"""``padico-trace``: record, inspect and validate deterministic traces.

Usage::

    python -m repro.tools.trace demo --out trace.json
    python -m repro.tools.trace demo --size 1M --profile Mico --lan
    python -m repro.tools.trace summary trace.json
    python -m repro.tools.trace bench BENCH_padico.json

``demo`` runs the paper's Figure-7 workload — a GIOP ping-pong between
two PadicoTM processes over Myrinet — under ``runtime.trace()`` and
writes a Chrome ``trace_event`` JSON that loads directly into Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.  ``summary`` prints
the metrics roll-up embedded in such a file; ``bench`` schema-checks a
``padico-bench/1`` document (``BENCH_padico.json``)."""

from __future__ import annotations

import argparse
import json
import sys

from repro.corba import MICO, OMNIORB3, OMNIORB4, ORBACUS, Orb, compile_idl
from repro.corba.profiles import OrbProfile
from repro.net import MYRINET_2000, Topology, build_cluster
from repro.obs import (
    BENCH_SCHEMA,
    BenchSchemaError,
    TraceRecorder,
    metrics,
    validate_bench_doc,
    write_chrome_trace,
)
from repro.padicotm import PadicoRuntime

PROFILES: dict[str, OrbProfile] = {
    "omniORB3": OMNIORB3,
    "omniORB4": OMNIORB4,
    "Mico": MICO,
    "ORBacus": ORBACUS,
}

_IDL = """
module Demo { typedef sequence<octet> Blob;
              interface Echo { Blob bounce(in Blob data); }; };
"""


def parse_size(text: str) -> int:
    """'8M', '32K', '100' → bytes."""
    text = text.strip().upper()
    factor = 1
    if text.endswith("K"):
        factor, text = 1024, text[:-1]
    elif text.endswith("M"):
        factor, text = 1024 * 1024, text[:-1]
    try:
        return int(float(text) * factor)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size {text!r}") from None


def record_pingpong(profile: OrbProfile, size: int, rounds: int,
                    lan_only: bool) -> TraceRecorder:
    """Trace a GIOP ping-pong; returns the detached recorder."""
    topo = Topology()
    build_cluster(topo, "n", 2, san=None if lan_only else MYRINET_2000)
    rt = PadicoRuntime(topo)
    server = rt.create_process("n0", "server")
    client = rt.create_process("n1", "client")
    s_orb = Orb(server, profile, compile_idl(_IDL))
    s_orb.start()
    c_orb = Orb(client, profile, compile_idl(_IDL))

    class Echo(s_orb.servant_base("Demo::Echo")):
        def bounce(self, data):
            return data

    url = s_orb.object_to_string(s_orb.poa.activate_object(Echo()))

    def main(proc):
        stub = c_orb.string_to_object(url)
        payload = bytes(size)
        for _ in range(rounds):
            stub.bounce(payload)

    with rt.trace() as recorder:
        client.spawn(main)
        rt.run()
    rt.shutdown()
    return recorder


def _print_metrics(flat: dict) -> None:
    spans = flat.get("spans", {})
    if spans:
        print("spans (count, total virtual s):")
        for name in sorted(spans):
            entry = spans[name]
            print(f"  {name:24s} x{entry['count']:<4d} "
                  f"{entry['total']:.6f}")
    for key in ("counters", "driver_io"):
        table = flat.get(key, {})
        if table:
            print(f"{key}:")
            for name in sorted(table):
                print(f"  {name:24s} {table[name]}")
    for key in ("fabric_bytes", "flows", "context_switches",
                "events_fired"):
        if key in flat:
            print(f"{key}: {flat[key]}")


def cmd_demo(args: argparse.Namespace) -> int:
    profile = PROFILES[args.profile]
    recorder = record_pingpong(profile, parse_size(args.size),
                               args.rounds, args.lan)
    write_chrome_trace(recorder, args.out)
    n_spans = len(recorder.spans)
    print(f"wrote {args.out}: {n_spans} spans, "
          f"{len(recorder.flows)} flows "
          f"({args.rounds}x {args.size} ping-pong, {args.profile}, "
          f"{'Ethernet-100' if args.lan else 'Myrinet-2000'})")
    if args.tree:
        print(recorder.render_tree())
    else:
        _print_metrics(metrics(recorder))
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def cmd_summary(args: argparse.Namespace) -> int:
    with open(args.file, encoding="utf-8") as fh:
        doc = json.load(fh)
    events = doc.get("traceEvents", [])
    other = doc.get("otherData", {})
    if other.get("schema") != "padico-trace/1":
        print(f"warning: {args.file} is not a padico-trace/1 document",
              file=sys.stderr)
    complete = [e for e in events if e.get("ph") == "X"]
    print(f"{args.file}: {len(events)} events "
          f"({len(complete)} spans)")
    flat = other.get("padicoMetrics")
    if flat:
        _print_metrics(flat)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    with open(args.file, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        names = validate_bench_doc(doc)
    except BenchSchemaError as exc:
        print(f"{args.file}: INVALID — {exc}", file=sys.stderr)
        return 1
    print(f"{args.file}: valid {BENCH_SCHEMA} document, "
          f"{len(names)} series")
    for name in names:
        print(f"  {name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="padico-trace",
        description="deterministic trace recording and inspection")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser(
        "demo", aliases=["pingpong"],
        help="trace a Figure-7 GIOP ping-pong and write Chrome JSON")
    demo.add_argument("--out", default="trace.json",
                      help="output path (default: trace.json)")
    demo.add_argument("--size", default="32K",
                      help="payload size, e.g. 32K or 8M (default: 32K)")
    demo.add_argument("--rounds", type=int, default=3,
                      help="ping-pong iterations (default: 3)")
    demo.add_argument("--profile", choices=sorted(PROFILES),
                      default="omniORB4", help="ORB profile")
    demo.add_argument("--lan", action="store_true",
                      help="pin to Fast-Ethernet instead of Myrinet")
    demo.add_argument("--tree", action="store_true",
                      help="print the span tree instead of metrics")
    demo.set_defaults(func=cmd_demo)

    summary = sub.add_parser("summary",
                             help="summarise a recorded trace file")
    summary.add_argument("file")
    summary.set_defaults(func=cmd_summary)

    bench = sub.add_parser(
        "bench", help="validate a padico-bench/1 (BENCH_*.json) file")
    bench.add_argument("file")
    bench.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
