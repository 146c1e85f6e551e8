"""Per-line and per-file suppression comments.

Two forms, mirroring classic linters::

    x = time.time()        # repro-lint: disable=det-wallclock
    # repro-lint: disable-file=ker-thread

``disable=`` silences the named rules (comma-separated) on the line the
comment sits on.  ``disable-file=`` silences them for the whole file and
may appear on any line (conventionally near the top, with a
justification).  ``disable=all`` / ``disable-file=all`` silence every
rule.  Suppressions are extracted with :mod:`tokenize` so that ``#``
characters inside string literals are never misread as comments.

A ``disable=`` comment attached to a *multi-line statement* covers the
whole logical line: checkers report findings at the line of the AST
node that fired, which for a continuation argument is not the physical
line carrying the comment.  The scanner therefore tracks tokenize's
logical lines and extends any pragma found inside one to the statement's
full physical extent.  A pragma on a comment-only line still covers just
that line (it does not leak onto the following statement).
"""

from __future__ import annotations

import io
import re
import tokenize

_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\-\s]+)")


class Suppressions:
    """Suppressed rules per line (and file-wide) for one source file."""

    def __init__(self) -> None:
        self.by_line: dict[int, set[str]] = {}
        self.file_wide: set[str] = set()

    @classmethod
    def scan(cls, source: str) -> "Suppressions":
        sup = cls()
        # pragmas collected while inside one logical line, as
        # (physical line of the comment, rules); flushed on NEWLINE
        pending: list[tuple[int, set[str]]] = []
        stmt_start: int | None = None  # first code token of the stmt
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for tok in tokens:
                if tok.type == tokenize.COMMENT:
                    m = _PRAGMA.search(tok.string)
                    if not m:
                        continue
                    rules = {r.strip() for r in m.group(2).split(",")
                             if r.strip()}
                    if m.group(1) == "disable-file":
                        sup.file_wide |= rules
                    else:
                        pending.append((tok.start[0], rules))
                elif tok.type == tokenize.NEWLINE:
                    # end of a logical line: pragmas inside the statement
                    # cover its whole physical span
                    for line, rules in pending:
                        if stmt_start is not None and line >= stmt_start:
                            for covered in range(stmt_start,
                                                 tok.end[0] + 1):
                                sup.by_line.setdefault(
                                    covered, set()).update(rules)
                        else:
                            sup.by_line.setdefault(
                                line, set()).update(rules)
                    pending.clear()
                    stmt_start = None
                elif tok.type == tokenize.NL:
                    # blank/comment-only physical line: a pragma here
                    # outside any statement covers only its own line
                    if stmt_start is None:
                        for line, rules in pending:
                            sup.by_line.setdefault(
                                line, set()).update(rules)
                        pending.clear()
                elif tok.type not in (tokenize.INDENT, tokenize.DEDENT,
                                      tokenize.ENCODING,
                                      tokenize.ENDMARKER):
                    if stmt_start is None:
                        stmt_start = tok.start[0]
        except (tokenize.TokenError, SyntaxError, IndentationError):
            pass  # unparsable file: no suppressions; checkers report instead
        for line, rules in pending:  # EOF without trailing NEWLINE
            sup.by_line.setdefault(line, set()).update(rules)
        return sup

    def is_suppressed(self, rule: str, line: int) -> bool:
        for active in (self.file_wide, self.by_line.get(line, ())):
            if rule in active or "all" in active:
                return True
        return False
