"""IDL tokenizer.

Handles identifiers, keywords, integer/float/char/string literals,
multi-character punctuation (``::``, ``<<``, ``>>``), and both comment
styles.  Keywords are matched case-sensitively as the IDL spec demands.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from repro.corba.idl.errors import IdlParseError

KEYWORDS = frozenset("""
    module interface struct enum typedef const exception sequence string
    void short long unsigned float double boolean char octet any in out
    inout attribute readonly oneway raises TRUE FALSE
    component provides uses home manages
    primarykey factory finder supports abstract local native
    union switch case default fixed wstring valuetype
""".split())

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*.*?\*/)
  | (?P<preproc>\#[^\n]*)
  | (?P<float>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>0[xX][0-9a-fA-F]+|\d+)
  | (?P<char>'(?:\\.|[^'\\])')
  | (?P<string>"(?:\\.|[^"\\])*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>::|<<|>>|[{}()<>\[\];:,=+\-*/%|&^~])
""", re.VERBOSE | re.DOTALL)


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position."""

    kind: str      # keyword | ident | int | float | char | string | punct | eof
    value: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


def tokenize(source: str) -> list[Token]:
    """Tokenize IDL source; raises :class:`IdlParseError` on bad input."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            col = pos - line_start + 1
            raise IdlParseError(
                f"unexpected character {source[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        col = pos - line_start + 1
        if kind in ("ws", "line_comment", "block_comment", "preproc"):
            pass  # skipped, but track newlines below
        elif kind == "ident":
            tok_kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(tok_kind, text, line, col))
        else:
            tokens.append(Token(kind, text, line, col))
        # track line numbers across the consumed text
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + text.rindex("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


def iter_significant(tokens: list[Token]) -> Iterator[Token]:
    """All tokens (comments are already dropped by :func:`tokenize`)."""
    return iter(tokens)
