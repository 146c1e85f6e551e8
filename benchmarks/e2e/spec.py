"""Constants of the benchmark: workload sizes and metric definitions.

``BENCHMARK.json`` names the workloads and metrics (the driver's schema
allows nothing else there); this module is where their constants live.
``test_e2e.py`` checks the two agree.  Nothing here is adaptive: the
same numbers run on every commit.
"""

from __future__ import annotations

MIB = 1024 * 1024

#: repro's environment switches all carry this prefix; every such
#: variable is scrubbed from the child so the defaults are measured
SCRUBBED_ENV_PREFIX = "REPRO_"

#: workload name -> {"why", "full": constants, "smoke": constants}.
#: ``full`` is sized so one repetition takes 0.5-1.2 s here (ISSUE 11
#: measured 0.85-3.9 s per repetition at its sizes; the driver's budget
#: of ~25 s per run made us scale operation counts down, never shapes).
WORKLOADS: dict[str, dict] = {
    "rpc_small": {
        "why": "Fig. 7 left end + sec. 4.4 cohabitation: per-message cost "
               "(switches, dispatch, GIOP/ORB, arbitration) dominates; "
               "bytes are negligible",
        "clients": "2 closed-loop clients (1 CORBA caller, 1 MPI pair)",
        "full": {"n_corba": 1000, "n_mpi": 1000,
                 "sizes": [0, 8, 64, 512, 4096]},
        "smoke": {"n_corba": 50, "n_mpi": 50,
                  "sizes": [0, 8, 64, 512, 4096]},
    },
    "bulk_sharing": {
        "why": "Fig. 7 right end + sec. 4.4 sharing: the same corba/mpi/"
               "padicotm layers as rpc_small used per byte (CDR, copies, "
               "WireBuffer) under a zero-copy and a copying ORB; few events",
        "clients": "2 closed-loop clients per ORB profile",
        "full": {"n_corba": 48, "n_mpi": 48,
                 "sizes": [1 * MIB, 2 * MIB, 4 * MIB, 8 * MIB],
                 "profiles": ["OMNIORB4", "MICO"]},
        "smoke": {"n_corba": 4, "n_mpi": 4,
                  "sizes": [1 * MIB, 2 * MIB, 4 * MIB, 8 * MIB],
                  "profiles": ["OMNIORB4", "MICO"]},
    },
    "fig8_block": {
        "why": "paper Fig. 8: GridCCM block->block redistribution, server "
               "op = MPI_Barrier; two lengths alternate, so 1/3 of calls "
               "build a redistribution plan and 2/3 hit the plan cache",
        "clients": "8 (then 4) closed-loop client ranks, 8 server ranks",
        # per-rank length stays near 200 000: at 500 000 planning is
        # page-fault-bound and repetitions spread 0.57-3.2 s (ISSUE 11)
        "full": {"shapes": [[8, 8, "block", None], [4, 8, "block", None]],
                 "invocations": 6, "base_len": 200_000, "jitter": 500,
                 "profile": "MICO"},
        "smoke": {"shapes": [[8, 8, "block", None], [4, 8, "block", None]],
                  "invocations": 3, "base_len": 10_000, "jitter": 100,
                  "profile": "MICO"},
    },
    "gridccm_cyclic": {
        "why": "same component pair, cyclic and block-cyclic targets: the "
               "generic owner-arithmetic planner and fancy-index scatter; "
               "a block->block fast path must not move this",
        "clients": "8 (then 4) closed-loop client ranks, 8 server ranks",
        "full": {"shapes": [[8, 8, "cyclic", None],
                            [4, 8, "block-cyclic", 64]],
                 "invocations": 6, "base_len": 40_000, "jitter": 200,
                 "profile": "MICO"},
        "smoke": {"shapes": [[8, 8, "cyclic", None],
                             [4, 8, "block-cyclic", 64]],
                  "invocations": 3, "base_len": 2_000, "jitter": 50,
                  "profile": "MICO"},
    },
    "grid_collectives": {
        "why": "MPI layer + flow solver with WAN sharing on a 4-site grid; "
               "the one workload whose virtual time a collective-schedule "
               "change moves",
        "clients": "20 closed-loop ranks",
        "full": {"sites": 4, "hosts_per_site": 5, "rounds": 12,
                 "bcast_bytes": 256 * 1024, "chunk_bytes": 16 * 1024,
                 "reduce_len": 32 * 1024, "alltoall_bytes": 256 * 1024},
        "smoke": {"sites": 4, "hosts_per_site": 5, "rounds": 1,
                  "bcast_bytes": 64 * 1024, "chunk_bytes": 4 * 1024,
                  "reduce_len": 4 * 1024, "alltoall_bytes": 64 * 1024},
    },
    "flow_churn": {
        "why": "bare SimKernel + FlowNetwork on a 2-site grid: solver "
               "only, no processes, no middleware; the bypass workload "
               "for switch-backend and middleware changes",
        "clients": "closed loop: every completion refills its route",
        "full": {"sites": 2, "hosts_per_site": 500, "switch_fanout": 32,
                 "flows_per_host": 10, "completions": 600,
                 "ramp_batch": 2000, "chunk_s": 2e-3, "size_classes": 7},
        "smoke": {"sites": 2, "hosts_per_site": 64, "switch_fanout": 32,
                  "flows_per_host": 4, "completions": 150,
                  "ramp_batch": 200, "chunk_s": 2e-3, "size_classes": 7},
    },
}

#: repetitions in ``--smoke`` mode (full mode measures for ``--seconds``)
SMOKE_REPS = 2
#: fewest timed repetitions of a full run, however short ``--seconds`` is
MIN_REPS = 3
#: fewest plain/recorder/ledger rounds of a traced full run
MIN_TRACED_ROUNDS = 2

#: (name, unit, better, bound, definition)
END_TO_END: list[tuple[str, str, str, float, str]] = [
    ("wall_s", "s", "lower", 0.25,
     "median over repetitions of host wall seconds from entry into run() "
     "to drain plus shutdown(), tracing off"),
    ("setup_s", "s", "lower", 0.25,
     "median over repetitions of wall seconds spent building a repetition "
     "(IDL compile, topology, runtime, ORBs/components/worlds, routes) "
     "plus the one-off import time of repro in the child"),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "ru_maxrss of the child after the untraced repetitions"),
    ("virt_s", "s", "lower", 0.0,
     "virtual seconds (kernel.now at drain) of one repetition; identical "
     "across repetitions of one seed, else every op counts as failed"),
]

#: The bounds above are the benchmark's own: ``compare`` holds two
#: documents of one seed to them, ``virt_s`` exactly.  The driver of
#: ``BENCHMARK.json`` instead compares runs of *different* seeds, refuses
#: a metric whose spread over ten seeds exceeds its bound and refuses a
#: time that reads the same on every run — so there, and when ``compare``
#: is given two seeds, ``virt_s`` gets the smallest bound that clears
#: three times its seed-to-seed spread (at most 0.43 %, on flow_churn).
ACROSS_SEEDS_BOUND: dict[str, float] = {"virt_s": 0.02}

# Units name the clock: plain s/us are host wall time, *_virtual are the
# simulated clock (bit-identical under any wall-clock-only change).
#: (name, unit, better, source) — source is "ledger" (wall self time of a
#: ledger bucket), "recorder"/"counter" (exact counts), "host" or "model"
PER_LAYER: list[tuple[str, str, str, str]] = [
    ("sim.events", "count", "lower", "counter"),
    ("sim.events_skipped", "count", "lower", "counter"),
    ("sim.switches", "count", "lower", "recorder"),
    ("sim.kernel_self_s", "s", "lower", "ledger"),
    ("sim.switch_s", "s", "lower", "ledger"),
    ("sim.threads_leaked", "count", "lower", "counter"),
    ("net.flows_completed", "count", "lower", "counter"),
    ("net.solver_iterations", "count", "lower", "counter"),
    ("net.timer_reuses", "count", "higher", "counter"),
    ("net.route_cache_hit_ratio", "ratio", "higher", "counter"),
    ("net.bytes", "B", "lower", "counter"),
    ("net.self_s", "s", "lower", "ledger"),
    ("net.virt_self_s", "s_virtual", "lower", "recorder"),
    ("padicotm.arbitration_calls", "count", "lower", "recorder"),
    ("padicotm.abstraction_calls", "count", "lower", "recorder"),
    ("padicotm.arbitration_self_s", "s", "lower", "ledger"),
    ("padicotm.abstraction_self_s", "s", "lower", "ledger"),
    ("padicotm.personality_self_s", "s", "lower", "ledger"),
    ("padicotm.virt_self_s", "s_virtual", "lower", "recorder"),
    ("corba.invocations", "count", "lower", "recorder"),
    ("corba.self_s", "s", "lower", "ledger"),
    ("corba.cdr_s", "s", "lower", "ledger"),
    ("corba.copied_bytes", "B", "lower", "recorder"),
    ("corba.referenced_bytes", "B", "higher", "recorder"),
    ("corba.virt_self_s", "s_virtual", "lower", "recorder"),
    ("mpi.pt2pt_calls", "count", "lower", "ledger"),
    ("mpi.collective_calls", "count", "lower", "recorder"),
    ("mpi.self_s", "s", "lower", "ledger"),
    ("mpi.wan_crossings", "count", "lower", "recorder"),
    ("mpi.wan_bytes", "B", "lower", "recorder"),
    ("mpi.copied_bytes", "B", "lower", "recorder"),
    ("mpi.referenced_bytes", "B", "higher", "recorder"),
    ("mpi.virt_self_s", "s_virtual", "lower", "recorder"),
    ("core.gridccm_calls", "count", "lower", "recorder"),
    ("core.plans_built", "count", "lower", "ledger"),
    ("core.plan_reuse_ratio", "ratio", "higher", "ledger"),
    ("core.plan_s", "s", "lower", "ledger"),
    ("core.gridccm_self_s", "s", "lower", "ledger"),
    ("core.redistribution_bytes", "B", "lower", "recorder"),
    ("core.copied_bytes", "B", "lower", "recorder"),
    ("core.virt_self_s", "s_virtual", "lower", "recorder"),
    ("app.self_s", "s", "lower", "ledger"),
    ("obs.recorder_overhead_ratio", "ratio", "lower", "host"),
    ("host.cpu_s", "s", "lower", "host"),
    ("host.sys_s", "s", "lower", "host"),
    ("host.minor_faults", "count", "lower", "host"),
    ("harness.traced_wall_s", "s", "lower", "ledger"),
    ("harness.ledger_overhead_ratio", "ratio", "lower", "host"),
    ("harness.ledger_unmapped_share", "ratio", "lower", "ledger"),
    ("model.corba_latency_us", "us_virtual", "lower", "model"),
    ("model.mpi_latency_us", "us_virtual", "lower", "model"),
    ("model.corba_bw_mbps", "MB/s_virtual", "higher", "model"),
    ("model.mpi_bw_mbps", "MB/s_virtual", "higher", "model"),
    ("model.fig8_agg_mbps", "MB/s_virtual", "higher", "model"),
]

#: the paper's value for each ``model.*`` metric and the workload it is
#: derived on (every other workload reports it as not applicable)
MODEL_REFERENCE: dict[str, tuple[str, float, str]] = {
    "model.corba_latency_us": ("rpc_small", 19.0,
                               "§4.4: omniORB 4 one-way latency ~19 us"),
    "model.mpi_latency_us": ("rpc_small", 11.0,
                             "§4.4: MPI one-way latency 11 us"),
    "model.corba_bw_mbps": ("bulk_sharing", 120.0,
                            "§4.4: CORBA and MPI share Myrinet, 120 MB/s each"),
    "model.mpi_bw_mbps": ("bulk_sharing", 120.0,
                          "§4.4: CORBA and MPI share Myrinet, 120 MB/s each"),
    "model.fig8_agg_mbps": ("fig8_block", 280.0,
                            "Fig. 8: 8->8 aggregate 280 MB/s (paper: 2 "
                            "processes per host; here 1, so 8 NICs)"),
}

#: ledger bucket -> the per-layer metric that reports it
BUCKET_METRIC: dict[str, str] = {
    "sim.kernel": "sim.kernel_self_s",
    "sim.switch": "sim.switch_s",
    "net": "net.self_s",
    "padicotm.arbitration": "padicotm.arbitration_self_s",
    "padicotm.abstraction": "padicotm.abstraction_self_s",
    "padicotm.personality": "padicotm.personality_self_s",
    "corba": "corba.self_s",
    "corba.cdr": "corba.cdr_s",
    "mpi": "mpi.self_s",
    "core": "core.gridccm_self_s",
    "core.plan": "core.plan_s",
    "app": "app.self_s",
}

#: which end-to-end metric each layer's metrics should move, and where
#: (the README carries the full table with today's shares)
INTERACTIONS: list[str] = [
    "nothing contends (one pinned core, closed loop), so a faster layer "
    "saves at most its share of the traced wall time",
    "sim.switch_s is per-switch cost x sim.switches: a backend change "
    "moves wall_s on rpc_small/grid_collectives in proportion and leaves "
    "flow_churn flat",
    "core.plan_s scales with vector length x ranks^2 today: fig8_block "
    "and gridccm_cyclic respond to planning fixes, rpc_small cannot",
    "per-byte work (corba.copied_bytes, corba.cdr_s) moves bulk_sharing only",
    "mpi.wan_crossings moves virt_s on grid_collectives only",
]


PER_LAYER_UNITS: dict[str, str] = {
    name: unit for name, unit, _better, _src in PER_LAYER}


def is_exact(name: str) -> bool:
    """True for per-layer metrics that repeat exactly for one seed
    (counts, bytes, virtual-clock values); wall times and the ratios
    derived from them do not."""
    unit, source = next((u, s) for n, u, _b, s in PER_LAYER if n == name)
    return unit != "s" and source != "host" \
        and not name.startswith("harness.")
