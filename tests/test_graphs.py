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

from localcut import (
    Graph,
    ParameterError,
    VertexSet,
    boundary_edges,
    conductance,
    induced_subgraph,
    neighbors,
    volume,
)

from gen import barbell, cycle_graph, path_graph, random_multigraph, ring_of_cliques


def test_degree_sum_is_twice_edges():
    g = barbell()
    assert sum(g.degree(u) for u in range(g.n)) == 2 * g.m == g.total_volume


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(0, 1), (2, 2)])


def test_out_of_range_edge_rejected():
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(0, 5)])


def test_parallel_edges_counted():
    g = Graph(2, [(0, 1), (0, 1), (1, 0)])
    assert g.degree(0) == 3
    assert g.m == 3
    assert g.neighbor_multiplicities(0) == [(1, 3)]
    assert boundary_edges(g, VertexSet(g, [0])) == 3


def test_volume_examples():
    path = path_graph(3)
    assert volume(path, VertexSet(path, [1])) == 2
    assert volume(path, VertexSet(path, [])) == 0
    # two triangles joined by an edge: middle-triangle volume 2+2+3
    g = barbell()
    assert volume(g, VertexSet(g, [0, 1, 2])) == 7


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


def test_neighbors_are_external():
    path = path_graph(3)
    assert list(neighbors(path, VertexSet(path, [0]))) == [1]
    assert len(neighbors(path, VertexSet(path, range(3)))) == 0
    g = barbell()
    assert list(neighbors(g, VertexSet(g, [0, 1, 2]))) == [3]


def test_induced_subgraph():
    g = barbell()
    tri = induced_subgraph(g, VertexSet(g, [0, 1, 2]))
    assert (tri.n, tri.m) == (3, 3)
    whole = induced_subgraph(g, VertexSet(g, range(6)))
    assert (whole.n, whole.m) == (6, 7)
    c4 = cycle_graph(4)
    pair = induced_subgraph(c4, VertexSet(c4, [0, 1]))
    assert (pair.n, pair.m) == (2, 1)
    with pytest.raises(ParameterError):
        induced_subgraph(g, VertexSet(g, []))


def test_vertex_set_ops():
    g = barbell()
    a = VertexSet(g, [2, 0, 0, 1])
    assert a.ids == (0, 1, 2)
    assert a.volume == 7
    assert a.union([3]).ids == (0, 1, 2, 3)
    assert a.intersection([1, 5]).ids == (1,)
    assert a.difference([0]).ids == (1, 2)
    assert a.complement().ids == (3, 4, 5)
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
    comp = s.complement()
    assert boundary_edges(g, s) == boundary_edges(g, comp)
    assert s.volume + comp.volume == g.total_volume
    if 0 < len(s) < g.n and s.volume and comp.volume:
        phi = conductance(g, s)
        assert 0 <= phi <= 1
        assert phi == conductance(g, comp)


@given(graph_and_set())
@settings(max_examples=100, deadline=None)
def test_induced_subgraph_degrees_internal(gs):
    g, s = gs
    if len(s) == 0:
        return
    sub = induced_subgraph(g, s)
    order = s.ids
    for i, u in enumerate(order):
        internal = sum(1 for v in g.adjacent(u) if v in s)
        assert sub.degree(i) == internal


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
    # push the peak past the bound
    ring = ring_of_cliques(2000, 10)
    edges = np.array(list(ring.edges()), dtype=np.int64)
    csr_bytes = 16 * ring.m + 8 * (ring.n + 1)
    tracemalloc.start()
    try:
        g = Graph(ring.n, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(g._flat) == list(ring._flat)
    assert peak < 1.5 * csr_bytes, f"peak {peak} bytes is {peak / csr_bytes:.2f} x the CSR"


def test_graph_pickles_and_deep_copies():
    g = Graph(6, [(0, 1), (1, 2), (0, 1), (4, 5), (2, 0)])
    for h in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert (h.n, h.m) == (g.n, g.m)
        assert list(h._off) == list(g._off) and list(h._flat) == list(g._flat)
        assert all(list(h.adjacent(u)) == list(g.adjacent(u)) for u in range(g.n))
