"""Flow-level network simulation with max-min fair bandwidth sharing.

A :class:`Flow` is one in-flight message occupying a route (a list of
simplex :class:`~repro.net.topology.Link`).  Whenever the set of active
flows changes, every flow's progress is advanced at its previous rate,
and before the clock moves on rates are re-solved with the classic
*progressive filling* (max-min fairness) algorithm: repeatedly find the
most-loaded link, give each flow crossing it an equal share of that
link's remaining capacity, fix those flows, and subtract what they
consume elsewhere.

This is the mechanism behind the paper's concurrency experiment
("Concurrent benchmarks (CORBA and MPI at the same time) show the
bandwidth is efficiently shared: each gets 120 MB/s"): two flows across
one 240 MB/s Myrinet host link each receive exactly half.

Scaling (see docs/PERFORMANCE.md): there is one solve pipeline,
:meth:`FlowNetwork._settle`, and it picks its own tier from what it
observes — no caller-facing switch selects among them, because every
tier computes bit-for-bit the same rates:

* Rates are solved once per virtual instant.  A change — admission,
  completion, abort, link failure — is recorded
  (:meth:`FlowNetwork._reallocate`), and the settle solves the
  instant's changes together when its last event is done
  (:meth:`~repro.sim.kernel.SimKernel.at_instant_end`), then re-times
  the one completion timer.  No virtual time passes between two
  changes of one instant, so the rates in between are never used: a
  completion that refills its flows costs one solve, not two.  The
  completion timer is pushed by the settle, so among events at its
  exact time it fires after those pushed during the instant that set
  it (docs/KERNEL.md, determinism item 4).
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
  A dirty shard is solved wholesale while the network is in column
  form (below) and the shard holds :data:`_VEC_MIN_FLOWS` live flows.
  A route mixing tagged and untagged fabrics *taints* the sites it
  touches; tainted shards, and the coupling tier always, go through the
  always-correct component walk.
* Every whole-shard solve is filled by a numpy-vectorised twin of the
  scalar loop (:func:`_progressive_fill_vec`): same shares, same
  rounds, same subtraction sequence, byte-identical results.  It fills
  *route classes*: the flows of one route are fixed in the same round
  at the same share, so a whole-shard solve hands it each distinct
  route once — the route's first row, weighted by its flow count — and
  gives every flow its route's rate.  A component walk, whatever its
  size, takes the scalar fill: the largest any workload makes is
  ``flow_churn``'s one 2 000-flow walk per repetition, about 10 ms
  dearer scalar, while ``gridccm_cyclic``'s 64-flow walks are cheaper
  scalar than vectorised.
* A whole-shard solve whose shards hold the same route classes, in the
  same order of first rows and with the same multiplicities, as at
  their last fill reuses that fill's rates (``_FlowTable.fills``): the
  fill is a pure function of those, a class id names one route for the
  table's life and link bandwidths never change.  A completion
  refilled on its own route at its instant is such a solve; the
  solver counters count it as the fill it stands for.
* A lone dirty flow — no link on its route carries another live flow:
  most events on an idle network — is its own component, and a one-flow
  fill is one round: :meth:`FlowNetwork._solve_lone` writes that round's
  result (the route's smallest bandwidth) without walking or filling.
* Around the solve, every event credits, scans and re-times *every*
  live flow.  From :data:`_TABLE_MIN_FLOWS` live flows on, a network
  holds their state as columns (:class:`_FlowTable`) and those passes
  are array operations — the loops' arithmetic, element by element, in
  their order; below it nothing but the per-object loops exists.  The
  table is the one per-flow route store: whole-shard solves gather
  their route classes from its columns and write their rates back into
  it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Sequence

import numpy as np

from repro.net.topology import Link, Topology
from repro.sim.kernel import SimKernel, SimProcess, Timer

#: Residual byte count below which a flow is considered complete
#: (guards against floating-point drift in progress accounting).
_EPS_BYTES = 1e-6

#: Live flows a site shard needs before re-solving it whole (one dict
#: lookup, then the numpy fill over its route classes) beats the
#: per-event component walk and its scalar fill.
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

    __slots__ = ("route", "size", "_remaining", "_rate", "_table",
                 "callback", "error", "done", "start_time", "fid", "seq",
                 "shard")

    def __init__(self, route: Sequence[Link], size: float,
                 callback: Callable[["Flow"], None], start_time: float):
        self.route = list(route)
        self.size = float(size)
        self._remaining = float(size)
        self._rate = 0.0
        #: the owning network's column form while this flow has a row
        self._table: _FlowTable | None = None
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


class _FlowTable:
    """Column form of a network's live-flow state: one row per flow in
    active-list (ascending ``Flow.seq``) order — bytes left, rate, route
    length, shard, route class — plus the routes' interned link ids end
    to end and the byte totals per link id.

    A *route class* is one distinct route: ``classes`` maps the tuple of
    a route's link ids to a dense id, assigned on first sight and kept
    for the table's life, and the ``cls`` column gives each row its
    route's id.  ``fills`` keeps, per set of shards solved together,
    the last whole-shard fill: its classes in fill order, their
    multiplicities, its per-class rates and its round count.

    The passes a network makes over every live flow at every event run
    here on NumPy views of the columns: the per-object loops' arithmetic
    per element, in their order (``np.add.at`` is unbuffered and takes
    its indices in sequence: the loop's (flow, link) order).  A view
    pins its ``array``; none outlives its method, as rows come and go.
    """

    __slots__ = ("seqs", "rem", "rates", "lens", "ids", "shards", "tags",
                 "cls", "classes", "fills", "acc", "credited")

    def __init__(self, flows: Sequence[Flow], link_bytes: dict[Link, float],
                 link_ids: dict[Link, int]):
        self.seqs, self.lens, self.ids = array("q"), array("q"), array("q")
        self.rem, self.rates = array("d"), array("d")
        #: per row, the number ``tags`` gives the flow's ``shard``
        self.shards = array("q")
        self.tags: dict[str | None, int] = {}
        self.cls = array("q")
        self.classes: dict[tuple[int, ...], int] = {}
        self.fills: dict[tuple[str, ...], tuple[
            np.ndarray, np.ndarray, np.ndarray, int]] = {}
        self.acc = array("d", bytes(8 * len(link_ids)))
        for link, moved in link_bytes.items():
            self.acc[link_ids[link]] = moved
        for f in flows:
            self.add(f, link_ids)
        #: newest ``seq`` an advance has credited — here, all of them
        self.credited = self.seqs[-1]

    def add(self, flow: Flow, link_ids: dict[Link, int]) -> None:
        route = tuple([link_ids[link] for link in flow.route])
        self.seqs.append(flow.seq)
        self.rem.append(flow._remaining)
        self.rates.append(flow._rate)
        self.lens.append(len(route))
        self.ids.extend(route)
        self.shards.append(self.tags.setdefault(flow.shard, len(self.tags)))
        self.cls.append(self.classes.setdefault(route, len(self.classes)))
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
        del self.shards[i]
        del self.cls[i]
        flow._remaining = self.rem.pop(i)
        flow._table = None
        return i

    def route_classes(self, shards: Sequence[str]) -> tuple[
            np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """What the whole-shard fill reads for the rows of ``shards``,
        but their links (:meth:`class_links`).

        Returns the rows, ascending; where each row's class sits among
        the classes present, which are taken in order of their first
        row; and per class, its first row, its class id and its row
        count (the multiplicity).
        """
        col = np.frombuffer(self.shards, dtype=np.int64)
        keep = np.isin(col, [self.tags[s] for s in shards])
        rows = np.flatnonzero(keep)
        cls = np.frombuffer(self.cls, dtype=np.int64)[rows]
        n = len(rows)
        # each class's first position among the rows: a reversed scatter
        # leaves the smallest (last write wins)
        first = np.full(len(self.classes), n, dtype=np.int64)
        first[cls[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
        heads = np.sort(first[first < n])
        slot = np.empty(len(first), dtype=np.int64)
        slot[cls[heads]] = np.arange(len(heads), dtype=np.int64)
        of_row = slot[cls]
        mult = np.bincount(of_row, minlength=len(heads))
        return rows, of_row, rows[heads], cls[heads], mult

    def class_links(self, firsts: np.ndarray) -> tuple[np.ndarray,
                                                        np.ndarray]:
        """Route lengths and link ids, end to end, of the rows
        ``firsts`` (ascending)."""
        lens = np.frombuffer(self.lens, dtype=np.int64)
        head = np.zeros(len(lens), dtype=bool)
        head[firsts] = True
        ids = np.frombuffer(self.ids, dtype=np.int64)
        return lens[head], ids[np.repeat(head, lens)]

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


def _check_up(route: Sequence[Link]) -> None:
    """Refuse a route with a downed link: admission's one check."""
    for link in route:
        if not link.up:
            raise TransferError(f"link {link.name} is down")


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


def _progressive_fill_vec(lens: np.ndarray, gids: np.ndarray,
                          mult: np.ndarray,
                          bandwidth: np.ndarray) -> tuple[np.ndarray, int]:
    """Vectorised progressive fill for whole-shard solves.

    Performs *bit-for-bit* the same computation as
    :func:`_progressive_fill` — identical bottleneck choices (ties
    break on first link in insertion order, which is ``np.argmin``'s
    contract too), identical equal-share divisions, and identical
    capacity-subtraction sequences — but replaces the per-round Python
    scan over all links with numpy reductions over flat link arrays.
    The per-round cost drops from O(L) dict iterations to a handful of
    array ops and the setup cost to a rank pass, which is what lets one
    shard hold 100k concurrent flows.

    The input is given as *route classes*, in subset order of their
    first flow: ``lens`` their route lengths (int64), ``gids`` their
    routes' interned link ids end to end (int64) and ``mult`` how many
    flows of the subset take each route (int64); ``bandwidth`` is
    indexed by link id (``FlowNetwork._link_bw``).  Filling the classes
    is filling their flows: the flows of one route are fixed in the
    same round at the same share, so a class's flows only ever count —
    ``m`` flows on a link are ``m`` in its count and ``m`` equal
    subtractions from its capacity when they are fixed.  Returns
    ``(rates, iterations)``, ``rates`` a float64 array with one rate per
    class.
    """
    n = len(lens)
    n_ids = len(bandwidth)
    inf = float("inf")
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
    # sort np.unique would do.  A link first appears at the first flow
    # of some route, which is that route's class: the classes' order
    # keeps it
    first = np.full(n_ids, total, dtype=np.int64)
    first[gids[::-1]] = np.arange(total - 1, -1, -1, dtype=np.int64)
    present = np.flatnonzero(first < total)
    n_links = len(present)
    ranked = present[np.argsort(first[present], kind="stable")]
    rank = np.empty(n_ids, dtype=np.intp)
    rank[ranked] = np.arange(n_links, dtype=np.intp)
    local = rank[gids]
    cap = bandwidth[ranked]  # a copy: local link r is link id ranked[r]
    cnt = np.bincount(local, weights=np.repeat(mult, lens),
                      minlength=n_links).astype(np.int64)
    # classes grouped per link; the stable sort preserves subset order
    # within each group, matching the scalar fill's member lists, and
    # on ids narrowed to 16 bits or less it is a radix sort.  A route
    # crossing a link twice is listed there once: its entries sit side
    # by side in the group, and a round fixes each class once
    order = np.argsort(local.astype(np.min_scalar_type(n_links - 1)),
                       kind="stable")
    by_link = local[order]
    grouped = np.repeat(np.arange(n, dtype=np.intp), lens)[order]
    once = np.ones(total, dtype=bool)
    once[1:] = (by_link[1:] != by_link[:-1]) | (grouped[1:] != grouped[:-1])
    grouped = grouped[once]
    bounds = np.zeros(n_links + 1, dtype=np.int64)
    np.cumsum(np.bincount(by_link[once], minlength=n_links), out=bounds[1:])

    # max(cap, 0.0) keeps -0.0 (Python max semantics), so compare
    # strictly against 0.0 rather than clipping.  A share changes only
    # with its link's capacity or count: recomputed for the links a
    # round hits, inf once a link drains
    shares = np.where(cap < 0.0, 0.0, cap) / cnt
    fixed = np.zeros(n, dtype=bool)
    rate_of = np.zeros(n, dtype=np.float64)
    nan_caps = False
    iterations = 0
    remaining = n
    while remaining:
        iterations += 1
        bi = int(np.argmin(shares))
        if nan_caps or cnt[bi] <= 0:
            valid = cnt > 0
            if not valid.any():
                # only route-less flows remain: uncapacitated
                rate_of[~fixed] = inf
                break
            # argmin met an inf placeholder or may meet a NaN share:
            # take the scalar scan's pick instead
            bi = _scalar_bottleneck(shares, valid)
        best = float(shares[bi])
        # an inf share is fixed only when every live capacity is inf,
        # and inf - inf leaves NaN capacities behind
        nan_caps = nan_caps or best == inf
        mem = grouped[bounds[bi]:bounds[bi + 1]]
        newly = mem[~fixed[mem]]
        fixed[newly] = True
        rate_of[newly] = best
        remaining -= len(newly)
        # gather the newly-fixed classes' link rows — the concatenation
        # of ranges [offsets[c], offsets[c] + lens[c]) built with the
        # cumsum range trick, no per-class Python loop.  Every grouped
        # class crosses >= 1 link, so no zero-length range can corrupt
        # the boundary steps
        sel_start = offsets[newly]
        sel_len = lens[newly]
        step = np.ones(int(sel_len.sum()), dtype=np.int64)
        ends = np.cumsum(sel_len)
        step[0] = sel_start[0]
        step[ends[:-1]] = sel_start[1:] - sel_start[:-1] - sel_len[:-1] + 1
        seg = local[np.cumsum(step)]
        weight = np.repeat(mult[newly], sel_len)
        # the scalar fill subtracts ``best`` once per fixed flow per
        # route entry: h hits on a link are h equal subtractions, left
        # to right — one reduceat run [cap, best, ..., best] per link.
        # Links whose count drops to 0 are never read again: skipped
        hits = np.bincount(seg, weights=weight)
        hit = np.flatnonzero(hits)
        h = hits[hit].astype(np.int64)
        left = cnt[hit] - h
        cnt[hit] = left
        live = left > 0
        shares[hit[~live]] = inf
        hit, h, left = hit[live], h[live], left[live]
        if len(hit):
            starts = np.zeros(len(h), dtype=np.int64)
            np.cumsum(h[:-1] + 1, out=starts[1:])
            run = np.full(int(starts[-1] + h[-1] + 1), best)
            run[starts] = cap[hit]
            left_cap = np.subtract.reduceat(run, starts)
            cap[hit] = left_cap
            shares[hit] = np.where(left_cap < 0.0, 0.0, left_cap) / left
    return rate_of, iterations


def _scalar_bottleneck(shares: np.ndarray, valid: np.ndarray) -> int:
    """The link :func:`_progressive_fill`'s scan settles on.

    The scan starts from the first live link and moves only to a
    strictly smaller share.  No share compares smaller than a NaN, and
    a NaN compares smaller than nothing.  ``np.argmin`` picks the same
    link unless a share is NaN or the minimum is a drained link's inf.
    """
    first = int(np.argmax(valid))
    share = shares[first]
    if share != share:  # NaN
        return first
    best = int(np.argmin(np.where(np.isnan(shares), np.inf, shares)))
    return best if shares[best] < share else first


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
    shard when the network is in column form — and whole shards go
    through the vectorised fill (see the module docstring).  Every tier
    is bit-for-bit equal to a from-scratch :func:`maxmin_rates` solve
    over all live flows; which one runs is decided from the subset's
    size and structure, never by the caller.
    """

    def __init__(self, kernel: SimKernel, topology: Topology):
        self.kernel = kernel
        self.topology = topology
        self._flows: list[Flow] = []
        #: persistent link→flows index (insertion-ordered dicts used as
        #: ordered sets), consulted for component discovery and
        #: link-failure victim lookup
        self._link_flows: dict[Link, dict[Flow, None]] = {}
        #: live flows per site shard (the coupling tier is not counted)
        self._shard_sizes: dict[str, int] = {}
        #: sites touched by coupling flows (counts): a tainted site's
        #: shard is not closed under link sharing, so it falls back to
        #: the component walk
        self._site_taint: dict[str, int] = {}
        #: link → interned int id, assigned on first sight (deterministic:
        #: flow-add order), and the link's bandwidth at that index: the
        #: table's route column and the vectorised fill speak in ids
        self._link_ids: dict[Link, int] = {}
        self._link_bw = array("d")
        #: the live-flow state in column form, while there are many
        self._table: _FlowTable | None = None
        self._last_update = kernel.now
        #: flows added or removed since the last solve, at this instant;
        #: :meth:`_settle` solves them when the instant ends
        self._dirty: list[Flow] = []
        self._timer: Timer | None = None
        self._link_bytes: dict[Link, float] = {}
        self.completed_flows = 0
        #: completed-transfer records, one per flow that ended:
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
                 fabric: str, lead: float | None = None) -> float:
        """Move ``nbytes`` from ``src`` to ``dst`` over ``fabric``.

        Blocks the calling process once — for ``lead`` seconds first
        when given (a sender's per-message overhead: the transfer starts
        after it), then for propagation latency plus the fluid transfer
        time, as one kernel chain (:class:`_Leg`); returns the elapsed
        virtual seconds.  Raises :class:`TransferError` if a link on the
        route goes down mid-flight, and :class:`NoRouteError` if there
        is no live path.
        """
        t0 = self.kernel.now
        leg = _Leg(self, proc, src, dst, nbytes, fabric)
        flow = None  # what the caller is woken with once a flow lands
        try:
            if lead is not None:
                flow = proc.chain(lead, leg.begin)
            else:
                latency = leg.open()
                if latency > 0:
                    flow = proc.chain(latency, leg.admit)
                elif leg.launch():
                    flow = proc.suspend()
        except BaseException:
            leg.cancel()
            raise
        finally:
            leg.close()
        if flow is not None and flow.error is not None:
            raise flow.error
        return self.kernel.now - t0

    def start_flow(self, route: Sequence[Link], nbytes: float,
                   callback: Callable[[Flow], None]) -> Flow:
        """Non-blocking transfer; ``callback(flow)`` fires on completion
        (check ``flow.error``).  Used by event-driven transports."""
        if nbytes <= 0:
            raise ValueError("flow size must be positive")
        return self._add_flow(route, nbytes, callback)

    def start_flows(self, requests: Sequence[
            tuple[Sequence[Link], float, Callable[[Flow], None]]],
    ) -> list[Flow]:
        """Admit many ``(route, nbytes, callback)`` transfers at once.

        Bit-for-bit equivalent to calling :meth:`start_flow` on each
        request back-to-back at one virtual instant: either way the
        instant's settle solves them together (only the rates after the
        last member joins are ever used).  What the batch adds is
        atomic validation — a bad size or downed link anywhere in the
        batch admits nothing.
        """
        reqs = list(requests)
        for route, nbytes, _callback in reqs:
            if nbytes <= 0:
                raise ValueError("flow size must be positive")
            _check_up(route)
        flows = [self._admit(route, nbytes, callback)
                 for route, nbytes, callback in reqs]
        if flows:
            self._reallocate(flows)
            for flow in flows:
                self._notify_start(flow)
        return flows

    def current_rate(self, flow: Flow) -> float:
        """Instantaneous fair-share rate of an active flow (bytes/s),
        with this instant's changes settled first."""
        self._settle()
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
        """Bring ``link``'s cable down — both simplex directions — and
        abort every flow crossing either one.

        This and :meth:`restore_link` are the only writers of link
        state.  Victims are the forward link's flows, then the reverse
        link's not already counted; each gets one
        :class:`TransferError` naming ``link``, and one re-solve covers
        them all.
        """
        reverse = link.fabric.link(link.dst, link.src)
        link._set_up(False)
        reverse._set_up(False)
        link_flows = self._link_flows
        victims = list(dict.fromkeys(
            [*link_flows.get(link, ()), *link_flows.get(reverse, ())]))
        self._advance()
        for f in victims:
            self._abort_flow(
                f, TransferError(f"link {link.name} went down"), wake=True,
                advance=False)
        self._reallocate(victims)

    def restore_link(self, link: Link) -> None:
        """Bring ``link``'s cable back up in both directions.

        Routes are recomputed on next use (the route cache is cleared);
        no rate is re-solved, because admission never lets a live flow
        cross a down link, so no live flow's share can change.
        """
        link._set_up(True)
        link.fabric.link(link.dst, link.src)._set_up(True)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _add_flow(self, route: Sequence[Link], nbytes: float,
                  callback: Callable[[Flow], None]) -> Flow:
        _check_up(route)
        flow = self._admit(route, nbytes, callback)
        self._reallocate((flow,))
        self._notify_start(flow)
        return flow

    def _admit(self, route: Sequence[Link], nbytes: float,
               callback: Callable[[Flow], None]) -> Flow:
        """Create and index one flow whose route the caller checked is
        up — no re-solve, no monitor notification; callers compose those
        (see :meth:`start_flows`)."""
        self._advance()
        flow = Flow(route, nbytes, callback, self.kernel.now)
        flow.shard = _route_shard(flow.route)
        ids = self._link_ids
        for link in flow.route:
            if link not in ids:
                ids[link] = len(ids)
                self._link_bw.append(link.bandwidth)
        self._flow_counter += 1
        flow.seq = self._flow_counter
        self._flows.append(flow)
        if self._table is not None:
            self._table.add(flow, ids)
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
            self._shard_sizes[shard] = self._shard_sizes.get(shard, 0) + 1
        else:
            for tag in self._coupling_tags(flow):
                self._site_taint[tag] = self._site_taint.get(tag, 0) + 1

    def _index_remove(self, flow: Flow) -> None:
        link_flows = self._link_flows
        for link in flow.route:
            peers = link_flows.get(link)
            if peers is not None:
                peers.pop(flow, None)
                if not peers:
                    del link_flows[link]
        shard = flow.shard
        if shard is not None:
            self._shard_sizes[shard] -= 1
        else:
            for tag in self._coupling_tags(flow):
                left = self._site_taint.get(tag, 0) - 1
                if left > 0:
                    self._site_taint[tag] = left
                else:
                    self._site_taint.pop(tag, None)

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
        """Take note of a flow-set change: ``dirty`` lists the flows
        added or removed.

        Rates are solved once per instant, by :meth:`_settle` when the
        instant's last event is done: a solve that another change at
        the same instant overwrites is one nothing could observe, since
        no virtual time passes in between.  A change while the
        completion timer is due at this very instant settles on the
        spot: the solve may move the timer, and it must not fire first.
        """
        if not self._dirty and not dirty:
            self._reschedule()  # a timer that found nothing due
            return
        self._dirty.extend(dirty)
        timer = self._timer
        if timer is not None and timer.time == self.kernel.now:
            self._settle()
        else:
            # every change asks: each is a happens-before edge to the
            # settle
            self.kernel.at_instant_end(self._settle)

    def _settle(self) -> None:
        """Solve the instant's changes (:meth:`_solve_dirty`) — one
        solve and one ``_reschedule`` however many changes there were.
        Runs as the kernel's instant-end callback, and sooner, in the
        caller's context, where a rate is read or the timer is due now;
        with a monitor attached it is a ``net.settle`` span."""
        dirty = self._dirty
        if not dirty:
            return
        self._dirty = []
        mon = self.monitor
        if mon is None:
            self._solve_dirty(dirty)
            return
        mon.on_span_start("net.settle", cat="net")
        try:
            self._solve_dirty(dirty)
        finally:
            mon.on_span_end("net.settle")

    def _solve_dirty(self, dirty: list[Flow]) -> None:
        """Re-solve fair-share rates after the instant's flow-set
        changes, then re-time the completion timer.

        ``dirty`` lists the flows added/removed since the last solve;
        flows their change cannot reach keep their — provably unchanged
        — rates.  In column form, dirty site shards of at least
        :data:`_VEC_MIN_FLOWS` live flows are re-solved wholesale from
        the table; every other seed goes through the component walk,
        which is always correct.

        A shard is a union of link-connected components (see module
        docstring), so whole-shard re-solving is exact whenever the
        shard is closed under link sharing — i.e. not tainted by a
        coupling flow touching its fabrics.  The coupling tier has no
        such closure to rely on (a departed seed no longer counts in
        the taint, yet its route still couples the tier to every site
        it crossed), so its seeds always take the walk.
        """
        groups: dict[str | None, list[Flow]] = {}
        for f in dirty:
            groups.setdefault(f.shard, []).append(f)
        shards: list[str] = []
        residual: list[Flow] = []
        for key, seeds in groups.items():
            if self._table is not None and key is not None \
                    and self._shard_sizes[key] >= _VEC_MIN_FLOWS \
                    and not self._site_taint.get(key):
                shards.append(key)
            else:
                residual.extend(seeds)
        if shards:
            self._solve_shards(shards)
        if residual and not (len(residual) == 1
                             and self._solve_lone(residual[0])):
            subset = [f for f in self._component(residual) if not f.done]
            # iterate in active-list order so link insertion order (and
            # therefore every tie-break and float op) matches the full
            # solve restricted to this component
            subset.sort(key=_flow_seq_key)
            self._solve(subset)
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
            self.solver_iterations += 1
            self.solver_flows_resolved += 1
        self.solver_solves += 1
        return True

    def _solve_shards(self, shards: Sequence[str]) -> None:
        """One vectorised fill over every table row of ``shards``.

        The rows are taken in row (``seq``) order, so each shard keeps
        its own flows' and links' relative order; shards are
        link-disjoint, so the one fill performs exactly the per-shard
        fills' arithmetic and pays the setup once per event.  The fill
        sees one row per route class — the class's first row, weighted
        by its row count — and each class's rate is every one of its
        rows' rate.

        The fill is a pure function of its classes' routes, their
        multiplicities and link bandwidths; a class id names one route
        for the table's life and a link's bandwidth never changes.  So
        when the classes, in fill order, and their multiplicities equal
        those of the last fill of the same shards (``_FlowTable.fills``)
        — a completion refilled on its own route at its instant — that
        fill's rates and round count stand for this one, and the links
        are not gathered.  Either way the counters count one fill.

        New rates are diffed against the rate column and written — to
        the column and to ``Flow._rate`` — only where they compare
        unequal: the walk's ``!=`` guard, ``-0.0 == 0.0`` included, so
        the two stores never disagree.
        """
        table = self._table
        rows, of_row, firsts, classes, mult = table.route_classes(shards)
        key = tuple(sorted(shards))
        last = table.fills.get(key)
        if last is not None and np.array_equal(classes, last[0]) \
                and np.array_equal(mult, last[1]):
            by_class, iterations = last[2], last[3]
        else:
            lens, gids = table.class_links(firsts)
            by_class, iterations = _progressive_fill_vec(
                lens, gids, mult, np.frombuffer(self._link_bw))
            table.fills[key] = classes, mult, by_class, iterations
        new = by_class[of_row]
        rates = np.frombuffer(table.rates)
        changed = np.flatnonzero(new != rates[rows])
        self._count(len(rows), iterations)
        rows, new = rows[changed], new[changed]
        rates[rows] = new
        flows = self._flows
        for i, rate in zip(rows.tolist(), new.tolist()):
            flows[i]._rate = rate

    def _solve(self, subset: list[Flow]) -> None:
        """One scalar fill over a walked component; applies rates and
        counts the work."""
        rates, iterations = _progressive_fill(subset)
        for f in subset:
            new_rate = rates[f]
            if new_rate != f._rate:
                f.rate = new_rate
        self._count(len(subset), iterations)

    def _count(self, flows: int, iterations: int) -> None:
        self.solver_solves += 1
        self.solver_iterations += iterations
        self.solver_flows_resolved += flows

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
            f.callback(f)
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
            flow.callback(flow)
        if advance:
            self._reallocate((flow,))


class _Leg:
    """One :meth:`FlowNetwork.transfer`, run as a kernel chain on its
    caller's behalf.

    Its steps are the ones a caller once took itself, at the same
    instants: open (the ``net.transfer`` span and the route lookup),
    propagation latency, flow admission, flow completion.  The caller
    blocks once; what happens while it is blocked runs in links of its
    chain (:meth:`~repro.sim.kernel.SimProcess.chain`), and a span
    boundary there names the caller as its explicit ``owner``.  The
    span closes in the context that opened it — a link's span in a link
    (or at the flow's completion), the caller's own on its return — so
    an observer keyed on the running context sees matched pairs.  Only
    an interrupt closes a link's span from the caller's side.
    """

    __slots__ = ("net", "proc", "src", "dst", "nbytes", "fabric", "route",
                 "flow", "mon", "chained")

    def __init__(self, net: FlowNetwork, proc: SimProcess, src: str,
                 dst: str, nbytes: float, fabric: str):
        self.net = net
        self.proc = proc
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.fabric = fabric
        self.route: Sequence[Link] = ()
        self.flow: Flow | None = None
        #: the monitor the open span was reported to (None: no span)
        self.mon: Any = None
        #: the span was opened by a link, not by the caller
        self.chained = False

    def open(self) -> float:
        """Open the span and look the route up; returns its latency."""
        mon = self.net.monitor
        if mon is not None:
            mon.on_span_start("net.transfer", cat="net", owner=self.proc,
                              src=self.src, dst=self.dst,
                              nbytes=float(self.nbytes), fabric=self.fabric)
            self.mon = mon
        self.route = self.net.topology.route(self.src, self.dst,
                                             self.fabric)
        return sum(l.latency for l in self.route)

    def launch(self) -> bool:
        """Admit the flow; False if there is nothing to move."""
        if self.nbytes > 0 and self.route:
            self.flow = self.net.start_flow(self.route, self.nbytes,
                                            self.landed)
            return True
        return False

    def begin(self) -> None:
        """Link after the lead: open, then latency or admission."""
        self.chained = True
        try:
            latency = self.open()
        except BaseException:
            self.settle()
            raise
        if latency > 0:
            self.net.kernel.then(self.proc, latency, self.admit)
        else:
            self.admit()

    def admit(self) -> None:
        """Link after the latency: admit the flow — the caller waits
        for it — or, with nothing to move, resume the caller now."""
        try:
            if self.launch():
                return
        except BaseException:
            self.settle()
            raise
        self.settle()
        proc = self.proc
        self.net.kernel._wake(proc, proc._wake_token, None)

    def landed(self, flow: Flow) -> None:
        """The flow completed or was aborted: wake the caller with it
        (it reads ``flow.error``).  The leg lets go of the flow first —
        the flow's callback holds the leg, and a cycle would outlive the
        transfer until a collection."""
        self.flow = None
        self.settle()
        self.net.kernel.wake(self.proc, flow)

    def settle(self) -> None:
        """Close a link's span from kernel context."""
        if self.chained:
            self.close()

    def close(self) -> None:
        mon = self.mon
        if mon is not None:
            self.mon = None
            mon.on_span_end("net.transfer", owner=self.proc)

    def cancel(self) -> None:
        """The caller was interrupted: abort an admitted flow (no one
        is left to wake)."""
        flow, self.flow = self.flow, None
        if flow is not None:
            self.net._abort_flow(flow, TransferError("transfer cancelled"),
                                 wake=False)


def _flow_seq_key(flow: Flow) -> int:
    return flow.seq
