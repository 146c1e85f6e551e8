"""Property-based MPI semantics: collectives match reference results
for arbitrary payloads and rank counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import MAX, MIN, SUM, create_world, spmd
from repro.mpi.ops import ReduceOp
from repro.net import Topology, build_cluster, build_grid
from repro.padicotm import PadicoRuntime
from tests.mpi._flat import flat_world


def _run(n_ranks, fn):
    topo = Topology()
    build_cluster(topo, "a", max(n_ranks, 1))
    rt = PadicoRuntime(topo)
    procs = [rt.create_process(f"a{i}", f"r{i}") for i in range(n_ranks)]
    world = create_world(rt, "w", procs)
    threads = spmd(world, fn)
    rt.run()  # raises if a rank is left blocked
    rt.shutdown()
    for t in threads:
        assert t.exc is None
    return [t.result for t in threads]


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5),
       st.lists(st.integers(-1000, 1000), min_size=5, max_size=5))
def test_allreduce_matches_reference(n, values):
    per_rank = values[:n]

    def body(proc, comm):
        return comm.allreduce(per_rank[comm.rank], SUM)

    results = _run(n, body)
    assert all(r == sum(per_rank) for r in results)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.data())
def test_allgather_matches_reference(n, data):
    payloads = [data.draw(st.lists(st.integers(), max_size=4))
                for _ in range(n)]

    def body(proc, comm):
        return comm.allgather(payloads[comm.rank])

    results = _run(n, body)
    assert all(r == payloads for r in results)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5),
       st.lists(st.floats(-1e6, 1e6), min_size=5, max_size=5),
       st.sampled_from([SUM, MAX, MIN]))
def test_reduce_scan_consistency(n, values, op):
    per_rank = values[:n]

    def body(proc, comm):
        red = comm.reduce(per_rank[comm.rank], op, root=0)
        sc = comm.scan(per_rank[comm.rank], op)
        return (red, sc)

    results = _run(n, body)
    # the last rank's scan equals the full reduction at root
    root_reduce = results[0][0]
    last_scan = results[-1][1]
    assert last_scan == pytest.approx(root_reduce)
    # scan prefixes are correct
    acc = per_rank[0]
    assert results[0][1] == pytest.approx(acc)
    for r in range(1, n):
        acc = op(acc, per_rank[r])
        assert results[r][1] == pytest.approx(acc)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 4), st.integers(0, 3), st.data())
def test_bcast_any_root_any_payload(n, root_mod, data):
    root = root_mod % n
    payload = data.draw(st.one_of(
        st.integers(), st.text(max_size=20),
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 max_size=6),
        st.dictionaries(st.text(alphabet="ab", min_size=1, max_size=3),
                        st.integers(), max_size=3)))

    def body(proc, comm):
        value = payload if comm.rank == root else None
        return comm.bcast(value, root=root)

    results = _run(n, body)
    assert all(r == payload for r in results)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 4), st.integers(1, 64))
def test_buffer_allreduce_matches_numpy(n, width):
    rng = np.random.default_rng(width)
    arrays = [rng.normal(size=width) for _ in range(n)]

    def body(proc, comm):
        out = np.zeros(width)
        comm.Allreduce(arrays[comm.rank], out, SUM)
        return out

    results = _run(n, body)
    expected = np.sum(arrays, axis=0)
    for r in results:
        np.testing.assert_allclose(r, expected)


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 4), st.data())
def test_alltoall_is_a_transpose(n, data):
    matrix = [[data.draw(st.integers(0, 99)) for _ in range(n)]
              for _ in range(n)]

    def body(proc, comm):
        return comm.alltoall(matrix[comm.rank])

    results = _run(n, body)
    for dst in range(n):
        assert results[dst] == [matrix[src][dst] for src in range(n)]


def test_simulation_is_deterministic_under_load():
    """Two identical runs of a busy mixed workload produce identical
    event timings — the foundation every measurement rests on."""
    def run_once():
        trace = []

        def body(proc, comm):
            for i in range(3):
                x = comm.allreduce(comm.rank * (i + 1), SUM)
                trace.append((comm.rank, i, x, round(comm.Wtime(), 12)))
                if comm.rank == 0:
                    comm.send("ping", dest=(comm.rank + 1) % comm.size)
                elif comm.rank == 1:
                    comm.recv(source=0)
            return True

        _run(4, body)
        return trace

    assert run_once() == run_once()


# ---------------------------------------------------------------------
# any layout on a grid: production == flat oracle == plain Python
# ---------------------------------------------------------------------
#: non-commutative (but associative): shows the operand order
CONCAT = ReduceOp("concat", lambda a, b: a + b)
MATMUL = ReduceOp("matmul", np.matmul, np.matmul)


def _matrix(rank):
    """A 2 x 2 integer matrix per rank; neighbours do not commute."""
    shear = [[1, rank + 1], [0, 1]]
    return np.array(shear if rank % 2 else shear[::-1], dtype=np.int64)


@st.composite
def grid_layouts(draw):
    """2-12 ranks on distinct hosts of a 4-site x 4-host grid, in any
    order — uneven sites, single-member sites, non-contiguous blocks,
    one-site groups — and a root."""
    hosts = draw(st.lists(st.integers(0, 15), min_size=2, max_size=12,
                          unique=True))
    return hosts, draw(st.integers(0, len(hosts) - 1))


def _every_collective(proc, comm, root):
    n, me = comm.size, comm.rank
    res = {"barrier": comm.barrier()}
    res["bcast"] = comm.bcast(("blob", root) if me == root else None,
                              root=root)
    buf = np.full(8, me, dtype=np.int64)
    comm.Bcast(buf, root=root)
    res["Bcast"] = buf.tolist()
    res["gather"] = comm.gather("g" * me, root=root)
    res["scatter"] = comm.scatter(
        [f"s{i}" for i in range(n)] if me == root else None, root=root)
    res["allgather"] = comm.allgather(me * 7)
    res["reduce"] = comm.reduce(f"{me}.", CONCAT, root=root)
    out = np.zeros(4)
    comm.Reduce(np.full(4, me + 1.0), out if me == root else None, SUM,
                root=root)
    res["Reduce"] = out.tolist()
    res["allreduce"] = comm.allreduce(f"{me}.", CONCAT)
    res["allreduce_t"] = comm.allreduce((me,), CONCAT)
    prod = np.zeros((2, 2), dtype=np.int64)
    comm.Allreduce(_matrix(me), prod, MATMUL)
    res["Allreduce"] = prod.tolist()
    fsum = np.zeros(3)
    comm.Allreduce(np.full(3, 0.1 * (me + 1)), fsum, SUM)
    res["Allreduce_f"] = fsum.tobytes()
    res["scan"] = comm.scan(f"{me}.", CONCAT)
    res["alltoall"] = comm.alltoall([(me, d) for d in range(n)])
    res["split"] = comm.split(me % 2, key=-me).allgather(me)
    res["dup"] = comm.dup().allgather(-me)
    cart = comm.Create_cart([n], periods=[True])
    res["cart"] = (cart.coords, cart.Shift(0), cart.allreduce((me,), CONCAT))
    return res


def _expected(n, me, root):
    """What MPI says rank ``me`` of ``n`` gets — no repro code involved.
    ``reduce`` is the one deviation: operands combine in root-rotated
    rank order (root, root + 1, ...), see ``Comm.reduce``."""
    at_root = me == root
    total = float(sum(range(1, n + 1)))
    prod = _matrix(0)
    for r in range(1, n):
        prod = prod @ _matrix(r)
    return {
        "barrier": None,
        "bcast": ("blob", root),
        "Bcast": [root] * 8,
        "gather": ["g" * r for r in range(n)] if at_root else None,
        "scatter": f"s{me}",
        "allgather": [r * 7 for r in range(n)],
        "reduce": "".join(f"{(root + i) % n}." for i in range(n))
        if at_root else None,
        "Reduce": [total if at_root else 0.0] * 4,
        "allreduce": "".join(f"{r}." for r in range(n)),
        "allreduce_t": tuple(range(n)),
        "Allreduce": prod.tolist(),
        "scan": "".join(f"{r}." for r in range(me + 1)),
        "alltoall": [(src, me) for src in range(n)],
        "split": sorted(range(me % 2, n, 2), reverse=True),
        "dup": [-r for r in range(n)],
        "cart": ([me], ((me - 1) % n, (me + 1) % n), tuple(range(n))),
    }


def _check_layout(sites, hosts_per_site, hosts, root):
    """Production == flat oracle == plain Python for the ranks placed on
    ``hosts`` (indices into the site-major host list of the grid)."""
    results = []
    for make_world in (create_world, flat_world):
        topo, site_hosts = build_grid(sites=sites,
                                      hosts_per_site=hosts_per_site)
        rt = PadicoRuntime(topo)
        pool = [h for hs in site_hosts.values() for h in hs]
        world = make_world(rt, "w", [
            rt.create_process(pool[i], f"p{i}") for i in hosts])
        threads = spmd(world, _every_collective, root)
        rt.run()  # raises if a rank is left blocked
        rt.shutdown()
        for t in threads:
            assert t.exc is None
        results.append([t.result for t in threads])
    for per_rank in results:
        # floating-point SUM: whatever the association, every rank of a
        # world holds the same bits (the two worlds need not agree)
        assert len({res.pop("Allreduce_f") for res in per_rank}) == 1
    production, oracle = results
    n = len(hosts)
    assert production == oracle
    assert production == [_expected(n, me, root) for me in range(n)]


@settings(max_examples=60, deadline=None)
@given(grid_layouts())
def test_every_collective_on_any_grid_layout(layout):
    hosts, root = layout
    _check_layout(4, 4, hosts, root)


@pytest.mark.parametrize("hosts", [
    range(0, 10),                     # 5 sites x 2: one fold pair
    range(1, 12),                     # 6 sites, uneven ends: two pairs
    range(0, 14),                     # 7 sites x 2: three pairs
    [0, 2, 3, 4, 6, 7, 9, 10, 12],    # 7 sites, one to two ranks each
    [0, 2, 4, 6, 8, 1, 3, 5, 7, 9],   # 5 sites interleaved: one block
], ids=["5x2", "6-uneven", "7x2", "7-uneven", "5-interleaved"])
def test_every_collective_on_five_to_seven_sites(hosts):
    """Leader counts that are not a power of two take the fold step of
    the leaders' reduction; rank-order results all the same."""
    hosts = list(hosts)
    _check_layout(7, 2, hosts, root=len(hosts) // 2)
