"""Flow-level network simulation with max-min fair bandwidth sharing.

A :class:`Flow` is one in-flight message occupying a route (a list of
simplex :class:`~repro.net.topology.Link`).  Whenever the set of active
flows changes, every flow's progress is advanced at its previous rate
and rates are re-solved with the classic *progressive filling* (max-min
fairness) algorithm: repeatedly find the most-loaded link, give each
flow crossing it an equal share of that link's remaining capacity, fix
those flows, and subtract what they consume elsewhere.

This is the mechanism behind the paper's concurrency experiment
("Concurrent benchmarks (CORBA and MPI at the same time) show the
bandwidth is efficiently shared: each gets 120 MB/s"): two flows across
one 240 MB/s Myrinet host link each receive exactly half.

Scaling (see docs/PERFORMANCE.md): there is one solve pipeline,
:meth:`FlowNetwork._reallocate`, and it picks its own tier from what it
observes — no caller-facing switch selects among them, because every
tier computes bit-for-bit the same rates:

* The solver state decomposes into *link-connected components* — flows
  in different components share no link, so progressive filling never
  couples them.  :class:`FlowNetwork` keeps a persistent link→flows
  index and re-solves only the component(s) a change touches.  The
  component-restricted fill performs the same float operations as the
  full fill restricted to that component (same flow order, same link
  insertion order, same subtraction sequence), so the rates are
  *exactly* — not approximately — the from-scratch ones
  (:func:`maxmin_rates`, the reference the test oracles call).
* Fabrics carry an optional ``site`` locality tag
  (:class:`repro.net.topology.Fabric`); a flow whose route stays inside
  one site's fabrics belongs to that site's **shard**, everything else
  (wide-area traffic, mixed routes) to the site-less **coupling tier**.
  A shard is a union of link-connected components — intra-site links
  are never shared with another site — so re-solving a whole dirty
  shard is exactly as correct as re-solving the minimal component, but
  needs no per-event graph search: shard membership is one dict lookup.
  A dirty shard is solved wholesale once it holds
  :data:`_VEC_MIN_FLOWS` live flows *and* the last component walked
  inside it spanned at least half the shard (a decaying estimate —
  densely coupled sites graduate to shard solves, shards full of small
  disjoint components keep the cheaper component walk).  A route
  mixing tagged and untagged fabrics *taints* the sites it touches, and
  tainted shards fall back to the always-correct component walk.
* Subsets of at least :data:`_VEC_MIN_FLOWS` flows — every whole-shard
  solve, and any component walk that large — are filled by a
  numpy-vectorised twin of the scalar loop
  (:func:`_progressive_fill_vec`): same shares, same rounds, same
  subtraction sequence, byte-identical results.
* A lone dirty flow — no link on its route carries another live flow:
  most events on an idle network — is its own component, and a one-flow
  fill is one round: :meth:`FlowNetwork._solve_lone` writes that round's
  result (the route's smallest bandwidth) without walking or filling.
* Around the solve, every event credits, scans and re-times *every*
  live flow.  From :data:`_TABLE_MIN_FLOWS` live flows on, a network
  holds their state as columns (:class:`_FlowTable`) and those passes
  are array operations — the loops' arithmetic, element by element, in
  their order; below it nothing but the per-object loops exists.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from struct import pack
from typing import Any, Callable, Sequence

import numpy as np

from repro.net.topology import Link, Topology
from repro.sim.kernel import SimKernel, SimProcess, Timer

#: Residual byte count below which a flow is considered complete
#: (guards against floating-point drift in progress accounting).
_EPS_BYTES = 1e-6

#: Live flows a subset needs before the numpy fill's setup cost
#: amortises over the saved per-round link scans — and before re-solving
#: a whole shard (one dict lookup) beats the per-event component walk.
#: One number for both: a whole-shard solve is always a vectorised one.
_VEC_MIN_FLOWS = 64

#: Live flows at which a network enters column form (:class:`_FlowTable`);
#: it leaves below three quarters of that, so a count hovering at either
#: edge converts once, not per event.  From the sweep in
#: docs/PERFORMANCE.md: the array passes break even with the per-object
#: loops at about 120 flows — entered clearly above that, left at it.
_TABLE_MIN_FLOWS = 160


class TransferError(RuntimeError):
    """A transfer failed mid-flight (link down, aborted)."""


class Flow:
    """One in-flight message on the network.

    ``remaining`` (bytes left, read-only) and ``rate`` (bytes/s) are
    live views: while the owning network is in column form the first is
    read from, and an assignment to the second written through to, the
    flow's :class:`_FlowTable` row.
    """

    __slots__ = ("route", "size", "_remaining", "_rate", "_table", "waiter",
                 "callback", "error", "done", "start_time", "fid", "seq",
                 "shard", "route_id_bytes", "route_bw_bytes",
                 "route_len_bytes")

    def __init__(self, route: Sequence[Link], size: float,
                 waiter: SimProcess | None, callback: Callable | None,
                 start_time: float):
        self.route = list(route)
        self.size = float(size)
        self._remaining = float(size)
        self._rate = 0.0
        #: the owning network's column form while this flow has a row
        self._table: _FlowTable | None = None
        self.waiter = waiter
        self.callback = callback
        self.error: Exception | None = None
        self.done = False
        self.start_time = start_time
        #: observability id; assigned only while a monitor is attached
        self.fid: int | None = None
        #: creation order within a FlowNetwork; mirrors the flow's
        #: position in the active list so component re-solves can
        #: reproduce the full solve's iteration order exactly
        self.seq = 0
        #: site tag when every link on the route lives in fabrics of one
        #: site; ``None`` for wide-area / mixed routes (coupling tier)
        self.shard: str | None = None
        #: route as interned link ids / link bandwidths / length, cached
        #: once at add time by the owning FlowNetwork as raw little
        #: buffers: ``bytes.join`` + ``np.frombuffer`` assembles a
        #: 100k-flow subset's link arrays in one C pass, where
        #: concatenating 100k tiny numpy arrays would dominate the solve
        self.route_id_bytes: bytes = b""
        self.route_bw_bytes: bytes = b""
        self.route_len_bytes: bytes = b""

    @property
    def remaining(self) -> float:
        table = self._table
        return self._remaining if table is None \
            else table.rem[bisect_left(table.seqs, self.seq)]

    @property
    def rate(self) -> float:
        return self._rate

    @rate.setter
    def rate(self, value: float) -> None:
        self._rate = value
        table = self._table
        if table is not None:
            table.rates[bisect_left(table.seqs, self.seq)] = value

    @property
    def progress(self) -> float:
        """Fraction of the transfer completed, clamped to [0.0, 1.0]."""
        size = self.size
        if size <= 0.0:
            return 1.0
        frac = (size - self.remaining) / size
        if frac <= 0.0:
            return 0.0
        return frac if frac < 1.0 else 1.0

    def __repr__(self) -> str:
        # the sanitizer fingerprints reprs in bulk: keep the common
        # terminal states free of float formatting work
        if self.done:
            return (f"<Flow {self.size:.0f}B "
                    f"{'failed' if self.error is not None else 'done'}>")
        if self.rate == 0.0:
            return f"<Flow {self.size:.0f}B remaining={self.remaining:.0f}>"
        return (f"<Flow {self.size:.0f}B remaining={self.remaining:.0f} "
                f"rate={self.rate/1e6:.1f}MB/s done={self.done}>")


class _ShardBuf:
    """Incrementally-maintained concatenation of one shard's per-flow
    route byte caches, in member (ascending ``Flow.seq``) order.

    The vectorised fill assembles its link tables from three byte
    buffers (route lengths, interned link ids, link bandwidths).
    Rebuilding them per solve costs a Python listcomp over every member
    flow; this cache keeps them as ``bytearray`` blobs instead —
    admission appends (amortised O(1)), departure splices the member's
    slice out (a C-level ``memmove``, with the splice point found by
    bisecting the ascending seq list) — so a whole-shard solve starts
    from ready-made buffers.  The blob contents are *by construction*
    byte-identical to ``b"".join(f.route_*_bytes for f in members)``:
    both follow admission order, and removals preserve relative order.

    ``rates`` mirrors the members' current ``Flow.rate`` values the
    same way (valid only while ``rates_valid``; any rate write outside
    the whole-shard solve path invalidates it).  A valid mirror lets
    the solve diff new rates against old ones *in numpy* and assign
    only the changed flows' attributes — under steady churn a couple
    of percent of the shard — instead of looping over every member.
    """

    __slots__ = ("lens", "ids", "bw", "rates", "rates_valid",
                 "seqs", "elens")

    def __init__(self) -> None:
        self.lens = bytearray()
        self.ids = bytearray()
        self.bw = bytearray()
        self.rates = bytearray()
        self.rates_valid = True
        self.seqs: list[int] = []
        self.elens: list[int] = []

    def add(self, flow: Flow) -> None:
        self.seqs.append(flow.seq)
        self.elens.append(len(flow.route))
        self.lens += flow.route_len_bytes
        self.ids += flow.route_id_bytes
        self.bw += flow.route_bw_bytes
        self.rates += pack("=d", flow.rate)

    def remove(self, flow: Flow) -> None:
        i = bisect_left(self.seqs, flow.seq)
        if i >= len(self.seqs) or self.seqs[i] != flow.seq:
            return
        e0 = sum(self.elens[:i])
        n = self.elens[i]
        del self.seqs[i]
        del self.elens[i]
        del self.lens[8 * i:8 * (i + 1)]
        del self.ids[8 * e0:8 * (e0 + n)]
        del self.bw[8 * e0:8 * (e0 + n)]
        del self.rates[8 * i:8 * (i + 1)]


class _FlowTable:
    """Column form of a network's live-flow state: one row per flow in
    active-list (ascending ``Flow.seq``) order — bytes left, rate, route
    length — plus the routes' interned link ids end to end and the byte
    totals per link id.

    The passes a network makes over every live flow at every event run
    here on NumPy views of the columns: the per-object loops' arithmetic
    per element, in their order (``np.add.at`` is unbuffered and takes
    its indices in sequence: the loop's (flow, link) order).  A view
    pins its ``array``; none outlives its method, as rows come and go.
    """

    __slots__ = ("seqs", "rem", "rates", "lens", "ids", "acc", "credited")

    def __init__(self, flows: Sequence[Flow], link_bytes: dict[Link, float],
                 link_ids: dict[Link, int]):
        self.seqs, self.lens, self.ids = array("q"), array("q"), array("q")
        self.rem, self.rates = array("d"), array("d")
        self.acc = array("d", bytes(8 * len(link_ids)))
        for link, moved in link_bytes.items():
            self.acc[link_ids[link]] = moved
        for f in flows:
            self.add(f)
        #: newest ``seq`` an advance has credited — here, all of them
        self.credited = self.seqs[-1]

    def add(self, flow: Flow) -> None:
        self.seqs.append(flow.seq)
        self.rem.append(flow._remaining)
        self.rates.append(flow._rate)
        self.lens.append(len(flow.route))
        self.ids.frombytes(flow.route_id_bytes)
        flow._table = self

    def pop(self, flow: Flow) -> int:
        """Splice the row of ``flow`` out — found by ``seq``, now: the
        callbacks between two departures admit flows — and hand its
        bytes left back; returns where the row was."""
        i = bisect_left(self.seqs, flow.seq)
        e0 = int(np.frombuffer(self.lens, dtype=np.int64, count=i).sum())
        del self.ids[e0:e0 + self.lens.pop(i)]
        del self.seqs[i]
        del self.rates[i]
        flow._remaining = self.rem.pop(i)
        flow._table = None
        return i

    def advance(self, dt: float, flows: Sequence[Flow],
                link_bytes: dict[Link, float], n_ids: int) -> None:
        # flows not credited before are a suffix of the active list:
        # their links join link_bytes in the order the loop would add them
        for f in flows[bisect_right(self.seqs, self.credited):]:
            for link in f.route:
                link_bytes.setdefault(link, 0.0)
        self.credited = self.seqs[-1]
        self.acc.frombytes(bytes(8 * (n_ids - len(self.acc))))
        moved = np.frombuffer(self.rates) * dt
        rem = np.frombuffer(self.rem)
        rem -= moved
        np.add.at(np.frombuffer(self.acc),
                  np.frombuffer(self.ids, dtype=np.int64),
                  np.repeat(moved, np.frombuffer(self.lens, dtype=np.int64)))

    def next_finish(self) -> float | None:
        rates = np.frombuffer(self.rates)
        live = rates > 0
        finish = np.frombuffer(self.rem)[live] / rates[live]
        return float(finish.min()) if len(finish) else None

    def due(self, now: float) -> list[int]:
        """Rows complete at ``now``: both clauses of ``_on_completion``."""
        rem = np.frombuffer(self.rem)
        rows = np.flatnonzero(rem <= _EPS_BYTES)
        if not len(rows):
            rates = np.frombuffer(self.rates)
            live = np.flatnonzero(rates > 0)
            rows = live[now + rem[live] / rates[live] == now]
        return rows.tolist()


def _progressive_fill(
        flows: Sequence[Flow]) -> tuple[dict[Flow, float], int]:
    """Core progressive-filling loop.

    Returns ``(rates, iterations)`` where ``rates`` assigns every input
    flow a rate and ``iterations`` counts bottleneck-fixing rounds (the
    quantity component-local re-solving saves; exported via the
    ``net.maxmin.iterations`` obs counter).
    """
    link_flows: dict[Link, list[Flow]] = {}
    for f in flows:
        for link in f.route:
            link_flows.setdefault(link, []).append(f)

    capacity = {link: link.bandwidth for link in link_flows}
    unfixed_count = {link: len(fl) for link, fl in link_flows.items()}
    rates: dict[Flow, float] = {}
    # insertion-ordered dict as a set: iteration below must not depend
    # on hash order, or the rates dict's order varies across runs
    unfixed = dict.fromkeys(flows)
    iterations = 0

    while unfixed:
        iterations += 1
        # bottleneck link: smallest equal-share among links with demand
        best_link = None
        best_share = None
        for link, count in unfixed_count.items():
            if count <= 0:
                continue
            share = max(capacity[link], 0.0) / count
            if best_share is None or share < best_share:
                best_share = share
                best_link = link
        if best_link is None:  # no flow crosses any link (empty routes)
            for f in unfixed:
                rates[f] = float("inf")
            break
        for f in link_flows[best_link]:
            if f not in unfixed:
                continue
            rates[f] = best_share
            unfixed.pop(f, None)
            for link in f.route:
                capacity[link] -= best_share
                unfixed_count[link] -= 1
    return rates, iterations


def _route_shard(route: Sequence[Link]) -> str | None:
    """Site tag owning every link of ``route``, or ``None``.

    ``None`` marks the coupling tier: wide-area routes (a link in an
    untagged fabric) and routes mixing two sites' fabrics.
    """
    shard: str | None = None
    for link in route:
        tag = link.fabric.site
        if tag is None:
            return None
        if shard is None:
            shard = tag
        elif tag != shard:
            return None
    return shard


def _progressive_fill_vec(
        flows: Sequence[Flow], n_ids: int,
        buffers: tuple[bytes, bytes, bytes] | None = None,
) -> tuple[np.ndarray, int]:
    """Vectorised progressive fill for large flow sets.

    Performs *bit-for-bit* the same computation as
    :func:`_progressive_fill` — identical bottleneck choices (ties
    break on first link in insertion order, which is ``np.argmin``'s
    contract too), identical equal-share divisions, and identical
    capacity-subtraction sequences (every subtraction in one round uses
    the same share value, so the accumulation order inside
    ``np.subtract.at`` cannot change the result) — but replaces the
    per-round Python scan over all links with numpy reductions over
    flat link arrays, themselves assembled by array ops from the
    ``route_id_bytes``/``route_bw_bytes`` buffers cached per flow at add
    time.  The per-round cost drops from O(L) dict iterations to a
    handful of array ops and the setup cost to a concatenate-and-rank
    pass, which is what lets one shard hold 100k concurrent flows.

    Returns ``(rates, iterations)``, ``rates`` a float64 array in
    ``flows`` order.  ``n_ids`` bounds the interned link ids on the
    routes (``len(FlowNetwork._link_ids)``).

    ``buffers`` (optional) supplies the three concatenated byte buffers
    — ``(lens, ids, bw)``, as produced by joining :class:`_ShardBuf`
    blobs — ready-made, skipping the per-flow listcomp assembly
    entirely.  They must equal exactly what the listcomps would build
    for ``flows``; the shard caches guarantee that by construction.
    """
    n = len(flows)
    inf = float("inf")
    # assemble the subset's link arrays from the per-flow id/bandwidth
    # buffers cached at add time — one bytes join + frombuffer per
    # array, no Link objects and no per-flow numpy calls on this path
    # (or zero joins at all when the caller hands in shard-cache blobs)
    if buffers is None:
        buffers = (b"".join([f.route_len_bytes for f in flows]),
                   b"".join([f.route_id_bytes for f in flows]),
                   b"".join([f.route_bw_bytes for f in flows]))
    lens = np.frombuffer(buffers[0], dtype=np.int64)
    gids = np.frombuffer(buffers[1], dtype=np.int64)
    bw = np.frombuffer(buffers[2], dtype=np.float64)
    total = len(gids)
    if total == 0:  # no flow crosses any link (empty routes)
        return np.full(n, inf, dtype=np.float64), 1
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    # local link ids must follow *first-appearance* order (the scalar
    # fill's link insertion order, which is what ties break on).  The
    # ids are dense per-network interns below ``n_ids``: a reversed
    # scatter records each id's first position (last write wins, so
    # writing positions back-to-front leaves the smallest), and only
    # the *present* ids get sorted — much smaller than the 2E element
    # sort np.unique would do
    first = np.full(n_ids, total, dtype=np.int64)
    first[gids[::-1]] = np.arange(total - 1, -1, -1, dtype=np.int64)
    present = np.flatnonzero(first < total)
    n_links = len(present)
    order = np.argsort(first[present], kind="stable")
    rank = np.empty(n_ids, dtype=np.intp)
    rank[present[order]] = np.arange(n_links, dtype=np.intp)
    local = rank[gids]
    cap = np.empty(n_links, dtype=np.float64)
    cap[local] = bw  # duplicate writes all carry the same bandwidth
    counts = np.bincount(local, minlength=n_links)
    cnt = counts.astype(np.int64)
    # flows grouped per link; the stable sort preserves subset order
    # within each group, matching the scalar fill's member lists
    flow_of = np.repeat(np.arange(n, dtype=np.intp), lens)
    grouped = flow_of[np.argsort(local, kind="stable")]
    bounds = np.zeros(n_links + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])

    shares = np.empty(n_links, dtype=np.float64)
    fixed = np.zeros(n, dtype=bool)
    rate_of = np.zeros(n, dtype=np.float64)
    iterations = 0
    remaining = n
    while remaining:
        iterations += 1
        valid = cnt > 0
        shares.fill(inf)
        # max(cap, 0.0) keeps -0.0 (Python max semantics), so compare
        # strictly against 0.0 rather than clipping
        np.divide(np.where(cap < 0.0, 0.0, cap), cnt, out=shares,
                  where=valid)
        bi = int(np.argmin(shares))
        if not bool(valid[bi]):
            if not valid.any():
                # only route-less flows remain: uncapacitated
                rate_of[~fixed] = inf
                break
            # every live share is inf (infinite-bandwidth links): the
            # scalar scan settles on the first live link instead of the
            # inf placeholder of a drained one
            bi = int(np.argmax(valid))
        best = float(shares[bi])
        mem = grouped[bounds[bi]:bounds[bi + 1]]
        newly = mem[~fixed[mem]]
        fixed[newly] = True
        rate_of[newly] = best
        # gather the newly-fixed flows' link rows — the concatenation
        # of ranges [offsets[fi], offsets[fi] + lens[fi]) built with
        # the cumsum range trick, no per-flow Python loop.  Every
        # grouped flow crosses >= 1 link, so no zero-length range can
        # corrupt the boundary steps.  subtract.at applies
        # element-by-element (unbuffered), so repeated hits on one link
        # reproduce the scalar fill's sequential same-value
        # subtractions exactly.
        if len(newly) == 1:
            # churn rounds usually fix one straggler: its link rows are
            # a single contiguous slice, no range trick needed
            s0 = int(offsets[newly[0]])
            seg = local[s0:s0 + int(lens[newly[0]])]
        else:
            sel_start = offsets[newly]
            sel_len = lens[newly]
            step = np.ones(int(sel_len.sum()), dtype=np.int64)
            ends = np.cumsum(sel_len)
            step[0] = sel_start[0]
            step[ends[:-1]] = sel_start[1:] - sel_start[:-1] \
                - sel_len[:-1] + 1
            seg = local[np.cumsum(step)]
        np.subtract.at(cap, seg, best)
        np.subtract.at(cnt, seg, 1)
        remaining -= len(newly)
    return rate_of, iterations


def maxmin_rates(flows: Sequence[Flow]) -> dict[Flow, float]:
    """Progressive-filling max-min fair allocation.

    Each flow receives the largest rate such that no link capacity is
    exceeded and no flow can be increased without decreasing a flow with
    an equal or smaller rate.  Deterministic: ties broken by link
    insertion order.  The returned dict lists flows in *input* order
    (not fixing order), so two solves over the same flows compare equal
    including iteration order — the property the differential tests
    rely on.
    """
    rates, _ = _progressive_fill(flows)
    return {f: rates[f] for f in flows}


class FlowNetwork:
    """Transfer engine binding a :class:`Topology` to a :class:`SimKernel`.

    The blocking entry point is :meth:`transfer`; middleware layers call
    it from inside simulated processes.  Bytes crossing each link are
    accounted in :attr:`link_bytes` (derived on read, keys in
    first-credited order) for white-box assertions in tests.

    Rate re-solves are restricted to what a change can affect — the
    link-connected component of the changed flows, or their whole site
    shard when that is cheaper — and large subsets go through the
    vectorised fill (see the module docstring).  Every tier is
    bit-for-bit equal to a from-scratch :func:`maxmin_rates` solve over
    all live flows; which one runs is decided from the subset's size
    and structure, never by the caller.
    """

    def __init__(self, kernel: SimKernel, topology: Topology):
        self.kernel = kernel
        self.topology = topology
        self._flows: list[Flow] = []
        #: persistent link→flows index (insertion-ordered dicts used as
        #: ordered sets), consulted for component discovery and
        #: link-failure victim lookup
        self._link_flows: dict[Link, dict[Flow, None]] = {}
        #: shard membership: site tag → live flows of that shard, plus
        #: the site-less coupling tier (wide-area / mixed routes); both
        #: insertion-ordered, so iteration follows Flow.seq
        self._shard_flows: dict[str, dict[Flow, None]] = {}
        self._coupling_flows: dict[Flow, None] = {}
        #: sites touched by coupling flows (counts): a tainted site's
        #: shard is not closed under link sharing, so it falls back to
        #: the component walk; _taint_total gates the coupling tier
        self._site_taint: dict[str, int] = {}
        self._taint_total = 0
        #: link → interned int id, assigned on first sight (deterministic:
        #: flow-add order); backs the per-flow route_ids arrays the
        #: vectorised fill assembles its link tables from
        self._link_ids: dict[Link, int] = {}
        #: per-shard-key size of the last component solved inside that
        #: shard (None keys the coupling tier), decremented as member
        #: flows leave.  Whole-shard solving only pays off when the
        #: dirty component covers most of the shard, and this estimate
        #: is how the solver knows without running the BFS; see
        #: _reallocate
        self._shard_comp: dict[str | None, int] = {}
        #: per-shard-key concatenated route byte caches (None keys the
        #: coupling tier), kept in lockstep with _shard_flows /
        #: _coupling_flows so whole-shard solves skip buffer assembly
        self._shard_buf: dict[str | None, _ShardBuf] = {}
        #: the live-flow state in column form, while there are many
        self._table: _FlowTable | None = None
        self._last_update = kernel.now
        self._timer: Timer | None = None
        self._link_bytes: dict[Link, float] = {}
        self.completed_flows = 0
        #: completed-transfer records for timeline analysis:
        #: (start time, end time, size bytes, first link name, ok)
        self.flow_log: list[tuple[float, float, float, str, bool]] = []
        #: observability hook surface (see repro.obs); pushed down by
        #: PadicoRuntime.observe, or set directly for standalone use
        self.monitor: Any = None
        self._flow_seq = 0
        self._flow_counter = 0
        #: solver work counters (plain ints — never routed through the
        #: monitor, so a trace does not depend on which fill ran; the
        #: wall-clock bench reports them via obs counters after the run)
        self.solver_solves = 0
        self.solver_iterations = 0
        self.solver_flows_resolved = 0
        #: completion-timer pushes avoided because the fire instant was
        #: unchanged (lazy cancellation fast path)
        self.timer_reuses = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def transfer(self, proc: SimProcess, src: str, dst: str, nbytes: float,
                 fabric: str, extra_latency: float = 0.0) -> float:
        """Move ``nbytes`` from ``src`` to ``dst`` over ``fabric``.

        Blocks the calling process for propagation latency plus the
        fluid transfer time; returns the elapsed virtual seconds.
        Raises :class:`TransferError` if a link on the route goes down
        mid-flight, and :class:`NoRouteError` if there is no live path.
        """
        t0 = self.kernel.now
        mon = self.monitor
        if mon is not None:
            mon.on_span_start("net.transfer", cat="net", src=src, dst=dst,
                              nbytes=float(nbytes), fabric=fabric)
        try:
            route = self.topology.route(src, dst, fabric)
            latency = sum(l.latency for l in route) + extra_latency
            if latency > 0:
                proc.sleep(latency)
            if nbytes > 0:
                self.send_on_route(proc, route, nbytes)
        finally:
            if mon is not None:
                mon.on_span_end("net.transfer")
        return self.kernel.now - t0

    def send_on_route(self, proc: SimProcess, route: Sequence[Link],
                      nbytes: float) -> None:
        """Blocking fluid transfer on an explicit route (no latency)."""
        if nbytes <= 0:
            return
        if not route:  # same-host, zero-cost copy handled by caller
            return
        flow = self._add_flow(route, nbytes, waiter=proc)
        try:
            proc.suspend()
        except BaseException:
            self._abort_flow(flow, TransferError("transfer cancelled"),
                             wake=False)
            raise
        if flow.error is not None:
            raise flow.error

    def start_flow(self, route: Sequence[Link], nbytes: float,
                   callback: Callable[[Flow], None]) -> Flow:
        """Non-blocking transfer; ``callback(flow)`` fires on completion
        (check ``flow.error``).  Used by event-driven transports."""
        if nbytes <= 0:
            raise ValueError("flow size must be positive")
        return self._add_flow(route, nbytes, callback=callback)

    def start_flows(self, requests: Sequence[
            tuple[Sequence[Link], float, Callable[[Flow], None]]],
    ) -> list[Flow]:
        """Admit many ``(route, nbytes, callback)`` transfers in one
        re-solve.

        Bit-for-bit equivalent to calling :meth:`start_flow` on each
        request back-to-back at one virtual instant: no virtual time
        passes between admissions, so the intermediate allocations the
        sequential form computes are unobservable — only the rates
        after the last member joins matter, and those come out of the
        same per-component solves either way.  What changes is the
        cost: one re-solve for the whole batch instead of one per flow,
        which is what makes ramping a grid to 100k concurrent flows
        tractable.  Validation is atomic — a bad size or downed link
        anywhere in the batch admits nothing.
        """
        reqs = list(requests)
        for route, nbytes, _callback in reqs:
            if nbytes <= 0:
                raise ValueError("flow size must be positive")
            for link in route:
                if not link.up:
                    raise TransferError(f"link {link.name} is down")
        flows = [self._admit(route, nbytes, None, callback)
                 for route, nbytes, callback in reqs]
        if flows:
            self._reallocate(flows)
            for flow in flows:
                self._notify_start(flow)
        return flows

    def current_rate(self, flow: Flow) -> float:
        """Instantaneous fair-share rate of an active flow (bytes/s)."""
        return flow.rate

    @property
    def active_flows(self) -> list[Flow]:
        return list(self._flows)

    @property
    def link_bytes(self) -> dict[Link, float]:
        """Bytes that crossed each link so far, in first-credited order;
        refreshed on read while the column form holds the totals."""
        totals, table, ids = self._link_bytes, self._table, self._link_ids
        if table is not None:
            for link in totals:
                totals[link] = table.acc[ids[link]]
        return totals

    def fail_link(self, link: Link) -> None:
        """Bring a link down and abort every flow crossing it."""
        link.up = False
        victims = list(self._link_flows.get(link, ()))
        self._advance()
        for f in victims:
            self._abort_flow(
                f, TransferError(f"link {link.name} went down"), wake=True,
                advance=False)
        self._reallocate(victims)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _add_flow(self, route: Sequence[Link], nbytes: float,
                  waiter: SimProcess | None = None,
                  callback: Callable | None = None) -> Flow:
        flow = self._admit(route, nbytes, waiter, callback)
        self._reallocate((flow,))
        self._notify_start(flow)
        return flow

    def _admit(self, route: Sequence[Link], nbytes: float,
               waiter: SimProcess | None,
               callback: Callable | None) -> Flow:
        """Validate, create and index one flow — no re-solve, no monitor
        notification; callers compose those (see :meth:`start_flows`)."""
        for link in route:
            if not link.up:
                raise TransferError(f"link {link.name} is down")
        self._advance()
        flow = Flow(route, nbytes, waiter, callback, self.kernel.now)
        flow.shard = _route_shard(flow.route)
        ids = self._link_ids
        fids = []
        for link in flow.route:
            li = ids.get(link)
            if li is None:
                li = len(ids)
                ids[link] = li
            fids.append(li)
        n = len(fids)  # native order and size: numpy's tobytes() layout
        flow.route_id_bytes = pack(f"={n}q", *fids)
        flow.route_bw_bytes = pack(f"={n}d", *[l.bandwidth for l in route])
        flow.route_len_bytes = pack("=q", n)
        self._flow_counter += 1
        flow.seq = self._flow_counter
        self._flows.append(flow)
        if self._table is not None:
            self._table.add(flow)
        self._index_add(flow)
        return flow

    def _notify_start(self, flow: Flow) -> None:
        mon = self.monitor
        if mon is not None:
            self._flow_seq += 1
            flow.fid = self._flow_seq
            first = flow.route[0] if flow.route else None
            mon.on_flow_start(
                flow.fid,
                src=first.src if first else "",
                dst=flow.route[-1].dst if flow.route else "",
                nbytes=flow.size,
                fabric=first.fabric.name if first else "")

    def _index_add(self, flow: Flow) -> None:
        link_flows = self._link_flows
        for link in flow.route:
            peers = link_flows.get(link)
            if peers is None:
                link_flows[link] = {flow: None}
            else:
                peers[flow] = None
        shard = flow.shard
        if shard is not None:
            members = self._shard_flows.get(shard)
            if members is None:
                self._shard_flows[shard] = {flow: None}
            else:
                members[flow] = None
        else:
            self._coupling_flows[flow] = None
            for tag in self._coupling_tags(flow):
                self._site_taint[tag] = self._site_taint.get(tag, 0) + 1
                self._taint_total += 1
        buf = self._shard_buf.get(shard)
        if buf is None:
            buf = self._shard_buf[shard] = _ShardBuf()
        buf.add(flow)

    def _index_remove(self, flow: Flow) -> None:
        link_flows = self._link_flows
        for link in flow.route:
            peers = link_flows.get(link)
            if peers is not None:
                peers.pop(flow, None)
                if not peers:
                    del link_flows[link]
        shard = flow.shard
        comp = self._shard_comp.get(shard, 0)
        if comp > 0:
            # a departing member can only shrink the component the
            # estimate came from; decaying it forces an eventual BFS
            # re-probe, so the estimate cannot stay optimistic forever
            self._shard_comp[shard] = comp - 1
        self._shard_buf[shard].remove(flow)
        if shard is not None:
            members = self._shard_flows.get(shard)
            if members is not None:
                members.pop(flow, None)
        else:
            self._coupling_flows.pop(flow, None)
            for tag in self._coupling_tags(flow):
                left = self._site_taint.get(tag, 0) - 1
                if left > 0:
                    self._site_taint[tag] = left
                else:
                    self._site_taint.pop(tag, None)
                self._taint_total -= 1

    @staticmethod
    def _coupling_tags(flow: Flow) -> set[str]:
        """Distinct site tags a coupling flow's route touches."""
        return {link.fabric.site for link in flow.route
                if link.fabric.site is not None}

    def _component(self, seeds: Sequence[Flow]) -> dict[Flow, None]:
        """Flows link-connected to any seed (seeds themselves included).

        Seeds may already have been removed from the index (completion /
        abort); their routes still seed the link frontier, so the
        closure covers every flow whose rate the change can affect.
        Deterministic: plain worklist over insertion-ordered dicts.
        """
        member: dict[Flow, None] = dict.fromkeys(seeds)
        frontier: list[Link] = []
        seen: dict[Link, None] = {}
        for f in seeds:
            for link in f.route:
                if link not in seen:
                    seen[link] = None
                    frontier.append(link)
        link_flows = self._link_flows
        i = 0
        while i < len(frontier):
            peers = link_flows.get(frontier[i])
            i += 1
            if peers is None:
                continue
            for g in peers:
                if g not in member:
                    member[g] = None
                    for link in g.route:
                        if link not in seen:
                            seen[link] = None
                            frontier.append(link)
        return member

    def _advance(self) -> None:
        """Credit every active flow with progress since the last update.

        Deliberately *eager* (per event, not lazily at completion):
        iterated IEEE-754 subtraction is not associative, so crediting
        lazily would change ``remaining`` in the last bits and break the
        byte-identical-results guarantee the solver work relies on.
        Eager, and in column form vectorised: the same multiply,
        subtract and per-link adds per flow, as array operations.
        """
        now = self.kernel.now
        dt = now - self._last_update
        if dt > 0:
            link_bytes = self._link_bytes
            if self._table is not None:
                self._table.advance(dt, self._flows, link_bytes,
                                    len(self._link_ids))
            else:
                for f in self._flows:
                    moved = f._rate * dt
                    f._remaining -= moved
                    for link in f.route:
                        link_bytes[link] = link_bytes.get(link, 0.0) + moved
                if len(self._flows) >= _TABLE_MIN_FLOWS:
                    # enter column form; every live flow is credited now
                    self._table = _FlowTable(self._flows, link_bytes,
                                             self._link_ids)
        self._last_update = now

    def _remove(self, flow: Flow) -> None:
        """Take a live flow off the active list, its table row and the
        indexes; a drained network leaves column form."""
        flows, table = self._flows, self._table
        if table is None:
            flows.remove(flow)
        else:
            del flows[table.pop(flow)]
            if 4 * len(flows) < 3 * _TABLE_MIN_FLOWS:
                self._link_bytes = self.link_bytes  # read: refreshes it
                for f, left in zip(flows, table.rem):
                    f._remaining = left
                    f._table = None
                self._table = None
        self._index_remove(flow)

    def _reallocate(self, dirty: Sequence[Flow]) -> None:
        """Re-solve fair-share rates after a flow-set change.

        ``dirty`` lists the flows added/removed since the last solve;
        flows their change cannot reach keep their — provably unchanged
        — rates.  Dirty site shards are re-solved wholesale, the rest
        through the component walk.

        A shard is a union of link-connected components (see module
        docstring), so whole-shard re-solving is exact whenever the
        shard is closed under link sharing — i.e. not tainted by a
        coupling flow touching its fabrics.  Exact, but only *cheaper*
        when the dirty component covers most of the shard: a shard full
        of small disjoint components (the disjoint-pair churn bench) is
        better served by the walk.  The ``_shard_comp`` estimate —
        size of the last component the walk solved inside the shard,
        decayed as members leave — decides: whole-shard solving engages
        once a probed component spans at least half the shard, and the
        decay forces a re-probe every ~half-shard's worth of departures
        so the estimate tracks fragmentation.  Seeds whose shard is too
        small, tainted, or fragmented fall back to one combined
        component walk, which is always correct.
        """
        groups: dict[str | None, list[Flow]] = {}
        for f in dirty:
            groups.setdefault(f.shard, []).append(f)
        residual: list[Flow] = []
        comp_est = self._shard_comp
        # every gate-passing shard lands in one combined subset solved
        # by a single fill: shards are link-disjoint by construction, so
        # a union fill performs exactly the per-shard fills' arithmetic
        # (each link only ever meets subtractions from its own shard's
        # rounds, in the same relative order) while paying the vec
        # setup once per *event* instead of once per shard; the
        # shard-cache blobs ride along so the fill starts from
        # ready-made link buffers instead of per-flow listcomps
        combined: list[Flow] = []
        bufs: list[_ShardBuf] = []
        for key, seeds in groups.items():
            if key is not None:
                members = self._shard_flows.get(key)
                if members is not None and len(members) >= _VEC_MIN_FLOWS \
                        and not self._site_taint.get(key) \
                        and 2 * comp_est.get(key, 0) >= len(members):
                    combined.extend(members)
                    bufs.append(self._shard_buf[key])
                    continue
            elif self._taint_total == 0 \
                    and len(self._coupling_flows) >= _VEC_MIN_FLOWS \
                    and 2 * comp_est.get(None, 0) \
                    >= len(self._coupling_flows) \
                    and not any(map(self._coupling_tags, seeds)):
                # the last test: a *departed* seed no longer counts in
                # the taint, yet its route still couples this tier to
                # every site it crossed — only the walk reaches those
                combined.extend(self._coupling_flows)
                bufs.append(self._shard_buf[None])
                continue
            residual.extend(seeds)
        if combined:
            self._solve(combined, bufs)
        if residual and not (len(residual) == 1
                             and self._solve_lone(residual[0])):
            subset = [f for f in self._component(residual) if not f.done]
            # iterate in active-list order so link insertion order (and
            # therefore every tie-break and float op) matches the full
            # solve restricted to this component
            subset.sort(key=_flow_seq_key)
            self._solve(subset)
            keys = {f.shard for f in subset}
            if len(keys) == 1:
                # the walk just measured one shard's component structure:
                # remember it so the next dirty event can skip the walk
                comp_est[keys.pop()] = len(subset)
        self._reschedule()

    def _solve_lone(self, flow: Flow) -> bool:
        """Closed form for a dirty flow sharing no link with a live one:
        the walk would fill it alone, in one round — share
        ``max(bandwidth, 0.0) / 1`` per link, first minimum in route
        order.  Leaves exactly the walk's state and counters (a departed
        flow re-solves nothing); False when a link is shared."""
        link_flows = self._link_flows
        route = flow.route
        for link in route:
            peers = link_flows.get(link)
            if peers is not None and (len(peers) > 1 or flow not in peers):
                return False
        if not flow.done:
            if len(set(route)) != len(route):  # a link shared with itself
                return False
            # min() keeps the first minimum, as the fill's strict < does
            rate = min([max(link.bandwidth, 0.0) / 1 for link in route],
                       default=float("inf"))  # empty route: uncapacitated
            if rate != flow.rate:
                flow.rate = rate
            self._shard_buf[flow.shard].rates_valid = False
            self._shard_comp[flow.shard] = 1
            self.solver_iterations += 1
            self.solver_flows_resolved += 1
        self.solver_solves += 1
        return True

    def _solve(self, subset: Sequence[Flow],
               bufs: Sequence[_ShardBuf] | None = None) -> None:
        """One fill over ``subset``; applies rates and counts the work.

        ``bufs`` (whole-shard solves only) supplies the shard caches
        whose concatenated members *are* ``subset``: the vectorised
        fill then starts from their ready-made byte buffers, and the new
        rates are diffed against the caches' rate mirrors in numpy so
        only the flows whose rate actually changed get attribute writes.
        Skipping a write when old and new compare equal is exactly what
        the scalar assignment loop's ``!=`` guard does (including the
        ``-0.0 == 0.0`` case), so both paths leave identical state.
        """
        if bufs is not None:
            buffers = (b"".join([b.lens for b in bufs]),
                       b"".join([b.ids for b in bufs]),
                       b"".join([b.bw for b in bufs]))
            rate_arr, iterations = _progressive_fill_vec(
                subset, len(self._link_ids), buffers)
            if all(b.rates_valid for b in bufs):
                old = np.frombuffer(b"".join([b.rates for b in bufs]),
                                    dtype=np.float64)
                for i in np.flatnonzero(rate_arr != old).tolist():
                    subset[i].rate = float(rate_arr[i])
            else:
                for f, new_rate in zip(subset, rate_arr.tolist()):
                    if new_rate != f.rate:
                        f.rate = new_rate
            lo = 0
            for buf in bufs:
                hi = lo + len(buf.seqs)
                buf.rates = bytearray(rate_arr[lo:hi].tobytes())
                buf.rates_valid = True
                lo = hi
        else:
            if len(subset) >= _VEC_MIN_FLOWS:
                rate_arr, iterations = _progressive_fill_vec(
                    subset, len(self._link_ids))
                for f, new_rate in zip(subset, rate_arr.tolist()):
                    if new_rate != f.rate:
                        f.rate = new_rate
            else:
                rates, iterations = _progressive_fill(subset)
                for f in subset:
                    new_rate = rates[f]
                    if new_rate != f.rate:
                        f.rate = new_rate
            # this solve wrote ``Flow.rate`` without going through the
            # shard caches: the touched shards' mirrors no longer
            # reflect their members, so the next whole-shard solve
            # falls back to the per-flow assignment loop once (and then
            # rebuilds the mirror from its own result)
            for key in dict.fromkeys(f.shard for f in subset):
                self._shard_buf[key].rates_valid = False
        self.solver_solves += 1
        self.solver_iterations += iterations
        self.solver_flows_resolved += len(subset)

    def _reschedule(self) -> None:
        next_finish = None
        if self._table is not None:
            next_finish = self._table.next_finish()
        else:
            for f in self._flows:
                if f._rate <= 0:
                    continue
                finish = f._remaining / f._rate
                if next_finish is None or finish < next_finish:
                    next_finish = finish
        timer = self._timer
        if next_finish is None:
            if timer is not None:
                timer.cancel()
                self._timer = None
            return
        fire = self.kernel.now + max(next_finish, 0.0)
        if timer is not None:
            # lazy cancellation: when the earliest completion instant is
            # unchanged, keep the already-queued timer instead of
            # cancel+repush (the cancelled entry would linger in the
            # heap until popped anyway)
            if not timer.cancelled and timer.time == fire:
                self.timer_reuses += 1
                return
            timer.cancel()
        self._timer = self.kernel.schedule(max(next_finish, 0.0),
                                           self._on_completion)

    def _on_completion(self) -> None:
        self._timer = None
        self._advance()
        flows, now = self._flows, self.kernel.now
        if self._table is not None:
            finished = [flows[i] for i in self._table.due(now)]
        else:
            finished = [f for f in flows if f._remaining <= _EPS_BYTES]
            if not finished:
                # Far enough into virtual time one ulp of the clock
                # moves more bytes than _EPS_BYTES (3.4e-6 B at 240 MB/s
                # once now > 64 s), so a flow can sit above the
                # threshold with a residual time that rounds to
                # ``now + 0``: the timer would re-arm for this instant,
                # advance nothing, and refire forever.  It is complete.
                finished = [f for f in flows if f._rate > 0
                            and now + f._remaining / f._rate == now]
        for f in finished:
            if f.done:
                continue  # an earlier callback's fail_link aborted it
            self._remove(f)
            f._remaining = 0.0
            f.done = True
            self.completed_flows += 1
            self.flow_log.append((f.start_time, now, f.size,
                                  f.route[0].name if f.route else "", True))
            mon = self.monitor
            if mon is not None and f.fid is not None:
                mon.on_flow_end(f.fid, ok=True, progress=1.0)
            self._notify(f)
        self._reallocate(finished)

    def _abort_flow(self, flow: Flow, error: Exception, wake: bool,
                    advance: bool = True) -> None:
        table = self._table
        if flow.done or (flow not in self._flows if table is None
                         else flow._table is not table):
            return  # not live here: finished, or another network's
        if advance:
            self._advance()
        flow.error = error
        flow.done = True
        self._remove(flow)
        self.flow_log.append((flow.start_time, self.kernel.now, flow.size,
                              flow.route[0].name if flow.route else "",
                              False))
        mon = self.monitor
        if mon is not None and flow.fid is not None:
            mon.on_flow_end(flow.fid, ok=False, progress=flow.progress)
        if wake:
            self._notify(flow)
        if advance:
            self._reallocate((flow,))

    def _notify(self, flow: Flow) -> None:
        if flow.waiter is not None:
            self.kernel.wake(flow.waiter, flow)
        if flow.callback is not None:
            flow.callback(flow)


def _flow_seq_key(flow: Flow) -> int:
    return flow.seq
