"""Generated blocks of a markdown document.

A block is ``<!-- generated: NAME -->`` … ``<!-- end generated -->``;
the script that owns the document re-renders every block whole, so a
number inside one has exactly one writer, and a hand edit there is
overwritten on the next run (and shows in ``git diff``).
``benchmarks.run`` writes EXPERIMENTS.md's blocks this way, and
``benchmarks.census`` those of DESIGN.md and docs/PERFORMANCE.md.
"""

from __future__ import annotations

import re

BLOCK = re.compile(
    r"(<!-- generated: ([\w-]+) -->\n).*?(<!-- end generated -->)", re.S)


def render_blocks(text: str, blocks: dict[str, str], document: str) -> str:
    """``text`` with the body of each block ``NAME`` replaced by
    ``blocks[NAME]``.  Raises ``ValueError`` when the document's block
    names (each once) are not exactly the names of ``blocks``."""
    found = [m[2] for m in BLOCK.finditer(text)]
    if sorted(found) != sorted(blocks):
        raise ValueError(f"{document} blocks {found} != {sorted(blocks)}")
    return BLOCK.sub(lambda m: f"{m[1]}\n{blocks[m[2]]}\n{m[3]}", text)
