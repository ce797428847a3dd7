import copy
import itertools
import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcut import Graph, ParameterError, VertexSet, boundary_edges, conductance
from localcut import graphs
from localcut.graphs import best_prefix

from gen import (
    barbell,
    cycle_graph,
    path_graph,
    random_edge_array,
    random_multigraph,
    ring_of_cliques,
)
from oracle import edges, intersection, reference_csr


def test_degree_sum_is_twice_edges():
    g = barbell()
    assert sum(g.degree(u) for u in range(g.n)) == 2 * g.m == g.total_volume


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(0, 1), (2, 2)])


def test_out_of_range_edge_rejected():
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(0, 5)])
    # an unsigned endpoint of 2**63 is named as given, not wrapped negative
    with pytest.raises(ValueError, match=r"edge \(9223372036854775808, 1\) out of range"):
        Graph(3, np.array([[2**63, 1]], dtype=np.uint64))


@pytest.mark.parametrize(
    "edges",
    [
        [(0.5, 1.7)],
        np.array([[0.5, 1.7], [1.9, 2.2]]),
        np.array([[True, False]]),
        [("0", "1")],
        [(0, True)],
        [(True, 2)],
    ],
    ids=["float-list", "float-array", "bool-array", "str-list", "int-bool-list", "bool-int-list"],
)
def test_non_integer_endpoints_rejected(edges):
    with pytest.raises(ValueError, match="must be integers, got dtype"):
        Graph(3, edges)


def test_parallel_edges_counted():
    g = Graph(2, [(0, 1), (0, 1), (1, 0)])
    assert g.degree(0) == 3
    assert g.m == 3
    assert list(g.adjacent(0)) == [1, 1, 1]
    assert boundary_edges(g, VertexSet(g, [0])) == 3


def test_volume_examples():
    path = path_graph(3)
    assert VertexSet(path, [1]).volume == 2
    assert VertexSet(path, []).volume == 0
    # two triangles joined by an edge: middle-triangle volume 2+2+3
    g = barbell()
    assert VertexSet(g, [0, 1, 2]).volume == 7


def test_boundary_examples():
    c4 = cycle_graph(4)
    assert boundary_edges(c4, VertexSet(c4, [0, 1])) == 2
    assert boundary_edges(c4, VertexSet(c4, [])) == 0
    assert boundary_edges(c4, VertexSet(c4, range(4))) == 0
    assert boundary_edges(barbell(), VertexSet(barbell(), [0, 1, 2])) == 1


def test_conductance_examples():
    path = path_graph(3)
    assert conductance(path, VertexSet(path, [0])) == 1
    c4 = cycle_graph(4)
    assert conductance(c4, VertexSet(c4, [0, 1])) == Fraction(1, 2)
    g = barbell()
    assert conductance(g, VertexSet(g, [0, 1, 2])) == Fraction(1, 7)


def test_conductance_rejects_trivial_sets():
    g = path_graph(3)
    with pytest.raises(ParameterError):
        conductance(g, VertexSet(g, []))
    with pytest.raises(ParameterError):
        conductance(g, VertexSet(g, range(3)))
    # a triangle on 0, 1, 3 and an isolated vertex 2: either side may have volume 0
    g = Graph(4, [(0, 1), (1, 3), (3, 0)])
    for members in ([2], [0, 1, 3]):
        with pytest.raises(ParameterError, match="volume 0"):
            conductance(g, VertexSet(g, members))


def test_best_prefix_takes_whole_groups_within_the_volume_cap():
    g = barbell()
    groups = [[], [0], [1], [2], [3]]
    assert best_prefix(g, groups, 7) == [0, 1, 2]  # the triangle: volume 7, one cut edge
    assert best_prefix(g, groups, 6) == [0, 1]
    assert best_prefix(g, [[0, 1, 2], [3]], g.total_volume - 1) == [0, 1, 2]
    assert best_prefix(g, [[], [2, 3, 4, 5]], 7) is None


def test_vertex_set_ops():
    g = barbell()
    a = VertexSet(g, [2, 0, 0, 1])
    assert a.ids == (0, 1, 2)
    assert a.volume == 7
    assert intersection(a, [1, 5]).ids == (1,)
    with pytest.raises(ParameterError):
        VertexSet(g, [9])


@st.composite
def graph_and_set(draw):
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    g = random_multigraph(rng, n, rng.randint(1, 3 * n))
    k = rng.randint(1, n - 1)
    return g, VertexSet(g, rng.sample(range(n), k))


@given(graph_and_set())
@settings(max_examples=150, deadline=None)
def test_cut_symmetry_and_volume_split(gs):
    g, s = gs
    comp = VertexSet(g, (u for u in range(g.n) if u not in s))
    assert boundary_edges(g, s) == boundary_edges(g, comp)
    assert s.volume + comp.volume == g.total_volume
    if 0 < len(s) < g.n and s.volume and comp.volume:
        phi = conductance(g, s)
        assert 0 <= phi <= 1
        assert phi == conductance(g, comp)


@given(
    st.integers(1, 30).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=60,
            ),
        )
    ),
    st.sampled_from(["list", "int32", "strided"]),
)
@settings(max_examples=150, deadline=None)
def test_csr_matches_sorted_adjacency(n_edges, given_as):
    n, edges = n_edges
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if given_as == "int32":
        edges = np.array(edges, dtype=np.int32).reshape(-1, 2)
    elif given_as == "strided":
        # a non-contiguous int64 view into a wider array
        wide = np.ones((len(edges), 3), dtype=np.int64)
        wide[:, :2] = np.array(edges, dtype=np.int64).reshape(-1, 2)
        edges = wide[:, :2]
    g = Graph(n, edges)
    assert g.m == len(edges)
    assert list(g._off) == [0, *itertools.accumulate(len(a) for a in adj)]
    assert [list(g.adjacent(u)) for u in range(n)] == [sorted(a) for a in adj]


def test_csr_build_peak_memory():
    # the build's only arrays are the sorted keys (16 bytes per edge), the
    # degree count and the offsets; a temporary per endpoint array would
    # push the peak past the bound. Afterwards only the int32 heads (8 bytes
    # per edge) and the offsets stay: an int64 CSR would read 1.00.
    ring = ring_of_cliques(2000, 10)
    pairs = np.array(list(edges(ring)), dtype=np.int64)
    csr_bytes = 16 * ring.m + 8 * (ring.n + 1)
    tracemalloc.start()
    try:
        g = Graph(ring.n, pairs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(g._flat) == list(ring._flat)
    assert peak < 1.5 * csr_bytes, f"peak {peak} bytes is {peak / csr_bytes:.2f} x the CSR"
    assert current < 0.6 * csr_bytes, f"kept {current} bytes, {current / csr_bytes:.2f} x the CSR"


def test_graph_pickles_and_deep_copies():
    g = Graph(6, [(0, 1), (1, 2), (0, 1), (4, 5), (2, 0)])
    assert np.asarray(g._flat).dtype == np.int32
    for h in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert (h.n, h.m) == (g.n, g.m)
        assert np.asarray(h._flat).dtype == np.int32
        assert list(h._off) == list(g._off) and list(h._flat) == list(g._flat)
        assert all(list(h.adjacent(u)) == list(g.adjacent(u)) for u in range(g.n))


# the heads are masked from the keys in blocks: edge counts whose 2m keys
# fall on either side of one and of two block boundaries, and just past six
BLOCK = graphs._BLOCK
EDGE_COUNTS = (0, 1, BLOCK // 2 - 1, BLOCK // 2, BLOCK // 2 + 1)
EDGE_COUNTS += (BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1)


@given(
    st.sampled_from(EDGE_COUNTS),
    st.integers(2, 40) | st.integers(2, 100_000),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["list", "int32", "strided", "uint64", "uint32"]),
)
@settings(max_examples=60, deadline=None)
def test_int32_csr_matches_lexsort_reference(m, n, seed, given_as):
    # few vertices give many parallel edges
    edges = random_edge_array(seed, n, m)
    want = reference_csr(n, edges)
    if given_as == "list":
        arg = [tuple(e) for e in edges.tolist()]
    elif given_as == "strided":
        wide = np.ones((m, 3), dtype=np.int64)
        wide[:, :2] = edges
        arg = wide[:, :2]
    else:
        arg = edges.astype(given_as)
    g = Graph(n, arg)
    assert np.asarray(g._flat).dtype == np.int32
    assert (list(g._off), list(g._flat)) == want


# arcs come in pairs, so key counts are even
@pytest.mark.parametrize("arcs", [0, 2, BLOCK - 2, BLOCK, BLOCK + 2, 3 * BLOCK + 2])
@pytest.mark.parametrize("n", [7, graphs._MAX_N])
def test_reduce_to_heads_at_block_edges(arcs, n):
    rng = np.random.default_rng(arcs + n)
    tails, heads = rng.integers(0, n, size=(2, arcs), dtype=np.int64)
    if arcs:
        tails[-1] = heads[-1] = n - 1  # the largest tail and head, 2**31 - 1 at the cap
    want = heads[np.lexsort((heads, tails))].tolist()
    keys = graphs._arc_keys(tails, heads)
    keys.sort()
    got = graphs._reduce_to_heads(keys)
    assert got.dtype == np.int32 and got.tolist() == want


@pytest.mark.parametrize(
    "build",
    [
        lambda n: Graph(n, []),
        # a tail of n - 1 = 2**31 would overflow its key's shift
        lambda n: Graph._from_arcs(n, np.array([0, n - 1]), np.array([n - 1, 0])),
    ],
    ids=["init", "from_arcs"],
)
def test_vertex_cap_is_checked_before_allocation(build):
    # within the cap, the offsets alone of 2**31 + 1 vertices would take 17 GB
    n = graphs._MAX_N + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^vertex count {n} exceeds {graphs._MAX_N}$"):
            build(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
