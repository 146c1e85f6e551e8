"""``idlc``: compile an IDL file and print the resulting model.

Usage::

    python -m repro.tools.idlc [--repo-ids] file.idl [more.idl ...]

Multiple files are compiled into one model (cross-file references work
as long as definitions precede uses across the file list)."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.corba.idl import IdlError, compile_idl
from repro.corba.idl.compiler import AttributeDef, CompiledIdl


def _attribute_lines(attributes: dict[str, AttributeDef]) -> list[str]:
    return [f"    {'readonly ' if a.readonly else ''}attribute "
            f"{a.type.typename()} {a.name}" for a in attributes.values()]


def format_model(idl: CompiledIdl, repo_ids: bool = False) -> str:
    """Human-readable summary of a compiled IDL model."""
    lines: list[str] = []

    def tag(scoped: str, rid: str) -> str:
        return f"{scoped}  [{rid}]" if repo_ids else scoped

    if idl.interfaces:
        lines.append("interfaces:")
        for name, idef in sorted(idl.interfaces.items()):
            lines.append(f"  {tag(name, idef.repo_id)}")
            for op in idef.operations.values():
                params = ", ".join(f"{d} {t.typename()} {n}"
                                   for n, d, t in op.params)
                suffix = " oneway" if op.oneway else ""
                raises = (" raises(" + ", ".join(
                    e.scoped_name for e in op.raises) + ")"
                    if op.raises else "")
                lines.append(f"    {op.return_type.typename()} "
                             f"{op.name}({params}){raises}{suffix}")
            lines.extend(_attribute_lines(idef.attributes))
    if idl.components:
        lines.append("components:")
        for name, cdef in sorted(idl.components.items()):
            lines.append(f"  {tag(name, cdef.repo_id)}")
            for pname, (kind, tname) in sorted(cdef.all_ports().items()):
                lines.append(f"    {kind} {tname} {pname}")
            lines.extend(_attribute_lines(cdef.attributes))
    if idl.homes:
        lines.append("homes:")
        for name, hdef in sorted(idl.homes.items()):
            lines.append(f"  {name} manages {hdef.manages}")
    if idl.types:
        lines.append("types:")
        for name, t in sorted(idl.types.items()):
            lines.append(f"  {name} = {t.typename()}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="idlc", description="compile IDL and print the model")
    parser.add_argument("files", nargs="+", type=Path,
                        help="IDL source files")
    parser.add_argument("--repo-ids", action="store_true",
                        help="show OMG repository ids")
    args = parser.parse_args(argv)

    merged = CompiledIdl()
    for path in args.files:
        try:
            source = path.read_text()
        except OSError as exc:
            print(f"idlc: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        try:
            merged.merge(compile_idl(source))
        except IdlError as exc:
            print(f"idlc: {path}: {exc}", file=sys.stderr)
            return 1
    sys.stdout.write(format_model(merged, repo_ids=args.repo_ids))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
