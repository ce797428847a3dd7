import random
from fractions import Fraction

import pytest

from localcut import InvariantViolation, VertexSet, build
from localcut.flow import (
    FlowState,
    bfs_distances,
    blocking_flow,
    check_label_monotone,
    global_max_flow,
)

from gen import barbell, random_instance
from oracle import brute_min_cut_value, cut_value, push


def tri_state():
    g = barbell()
    a = VertexSet(g, [0, 1, 2])
    ag = build(g, a, Fraction(1, 2), Fraction(1, 3))
    fs = FlowState(ag)
    fs.open_all()
    return g, a, ag, fs


def _arc(fs, u, v):
    """The one arc from ``u`` to ``v``."""
    (arc,) = (x for x in fs.arcs_of[u] if fs.arc_to[x] == v)
    return arc


def _residual(fs, u, v):
    arc = _arc(fs, u, v)
    return fs.arc_cap[arc] - fs.arc_flow[arc]


def test_residual_capacity_fresh():
    g, a, ag, fs = tri_state()
    assert _residual(fs, 0, 1) == ag.edge_cap_unit == 6
    assert _residual(fs, 1, 0) == 6
    s = ag.source_id
    assert _residual(fs, s, 0) == ag.source_cap(0)
    assert _residual(fs, 0, s) == 0


def test_residual_capacity_after_push():
    g, a, ag, fs = tri_state()
    s = ag.source_id
    push(fs, _arc(fs, s, 0), 4)
    assert _residual(fs, s, 0) == ag.source_cap(0) - 4
    assert _residual(fs, 0, s) == 4
    assert fs.arc_flow[_arc(fs, s, 0)] == 4
    assert fs.arc_flow[_arc(fs, 0, s)] == -4


def test_zero_flow_sink_distance_is_three():
    _, _, _, fs = tri_state()
    dist, _ = bfs_distances(fs)
    assert dist[fs.ag.source_id] == 0
    assert dist[fs.ag.sink_id] == 3


def test_saturated_source_disconnects():
    g, a, ag, fs = tri_state()
    s = ag.source_id
    for arc in list(fs.arcs_of[s]):
        fs.arc_flow[arc] = fs.arc_cap[arc]
        fs.arc_flow[arc ^ 1] = -fs.arc_cap[arc]
    dist, admissible = bfs_distances(fs)
    assert ag.sink_id not in dist
    assert blocking_flow(fs, dist, admissible) == []


def test_blocking_flow_single_path():
    # path graph s -> 0 -> 1 -> t via A = {0}
    from gen import path_graph

    g = path_graph(2)
    a = VertexSet(g, [0])
    ag = build(g, a, Fraction(1), Fraction(1))
    fs = FlowState(ag)
    fs.open_all()
    blocking_flow(fs, *bfs_distances(fs))
    assert fs.value == min(ag.source_cap(0), ag.edge_cap_unit, ag.sink_cap(1)) == 1


def test_dinic_barbell_min_cut():
    g, a, ag, fs = tri_state()
    state, cut = global_max_flow(ag)
    assert state.flow_value == 2
    assert cut.ids == (0, 1, 2)


def test_full_flow_when_no_sparse_cut():
    # independent seed in complete bipartite graph: every cut costs vol(A)
    edges = [(i, 4 + j) for i in range(4) for j in range(8)]
    from localcut import Graph

    g = Graph(12, edges)
    a = VertexSet(g, range(4))
    eps = Fraction(a.volume, g.total_volume - a.volume)
    ag = build(g, a, Fraction(1), eps)
    fs, cut = global_max_flow(ag)
    assert fs.value == ag.source_total
    assert len(cut) == 0


def test_duality_against_brute_force(small_suite):
    for g, a, alpha, eps in small_suite[:150]:
        ag = build(g, a, alpha, eps)
        fs, cut = global_max_flow(ag)
        _, best = brute_min_cut_value(ag)
        assert fs.flow_value == best
        assert cut_value(ag, cut) == best


def test_scale_invariance(small_suite):
    for g, a, alpha, eps in small_suite[:40]:
        ag = build(g, a, alpha, eps)
        fs, _ = global_max_flow(ag)
        doubled = build(g, a, alpha, eps)
        doubled.scale *= 2
        doubled.edge_cap_unit *= 2
        doubled.source_total *= 2
        fs2, _ = global_max_flow(doubled)
        assert fs.flow_value == fs2.flow_value


def test_phase_labels_monotone_and_growing():
    # drive Dinic by hand and assert the classic per-phase label laws
    rng = random.Random(5)
    for _ in range(40):
        g, a, alpha, eps = random_instance(rng, nmax=10)
        ag = build(g, a, alpha, eps)
        fs = FlowState(ag)
        fs.open_all()
        t = ag.sink_id
        prev = None
        while True:
            dist, admissible = bfs_distances(fs)
            if prev is not None:
                check_label_monotone(prev, dist, t)
                if t in dist:
                    assert dist[t] >= prev[t] + 1
            if t not in dist:
                break
            value = fs.value
            blocking_flow(fs, dist, admissible)
            assert fs.value > value
            fs.check_conservation()
            prev = dist


def test_blocking_flow_blocks_admissible_graph():
    # after a phase, re-running the same-label blocking flow, on a copy of
    # the lists it walked, pushes nothing
    rng = random.Random(9)
    for _ in range(30):
        g, a, alpha, eps = random_instance(rng, nmax=10)
        ag = build(g, a, alpha, eps)
        fs = FlowState(ag)
        fs.open_all()
        dist, admissible = bfs_distances(fs)
        if ag.sink_id not in dist:
            continue
        lists = {v: arcs[:] for v, arcs in admissible.items()}
        blocking_flow(fs, dist, admissible)
        value = fs.value
        assert blocking_flow(fs, dist, lists) == []
        assert fs.value == value
        fresh, _ = bfs_distances(fs)
        dt = fresh.get(ag.sink_id)
        assert dt is None or dt > dist[ag.sink_id]


@pytest.mark.parametrize("release_prev", [False])
def test_label_monotone_rejects_a_stalled_sink(release_prev):
    """Equal labels decrease nowhere, but the sink distance did not grow."""
    _, _, ag, fs = tri_state()
    prev, _ = bfs_distances(fs)
    cur, _ = bfs_distances(fs)
    with pytest.raises(InvariantViolation, match="failed to grow"):
        check_label_monotone(prev, cur, ag.sink_id)


def _edge_arc(fs, u, v):
    """The forward arc of the edge pair ``u -> v`` (opened from ``u``)."""
    arc = _arc(fs, u, v)
    assert arc % 2 == 0
    return arc


def test_conservation_catches_a_corrupted_reverse_arc():
    _, _, _, fs = tri_state()
    fs.check_conservation()
    fs.arc_flow[_edge_arc(fs, 0, 1) ^ 1] -= 1
    with pytest.raises(InvariantViolation, match="not antisymmetric"):
        fs.check_conservation()


def test_conservation_catches_an_interior_imbalance():
    _, _, _, fs = tri_state()
    push(fs, _edge_arc(fs, 0, 1), 1)
    with pytest.raises(InvariantViolation, match="conservation violated at vertex 0: 1"):
        fs.check_conservation()

