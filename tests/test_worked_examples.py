"""Cross-cutting worked examples with independently derived expectations."""

import itertools
from fractions import Fraction

from localcut import (
    VertexSet,
    boundary_edges,
    build,
    local_flow,
    local_improve_overlap,
)
from localcut.flow import FlowState, bfs_distances, blocking_flow
from localcut.local_flow import update_saturated_set

from gen import asym_barbell, barbell
from oracle import brute_min_conductance, brute_min_cut_value, intersection, net_outflow, push


def _dag_min_cut(arcs: dict[tuple[int, int], int], s, t) -> int:
    """Independent oracle: exhaustive min cut over arc subsets of a tiny DAG."""
    items = list(arcs.items())
    best = None
    for r in range(len(items) + 1):
        for removed in itertools.combinations(range(len(items)), r):
            kept = [items[i][0] for i in range(len(items)) if i not in removed]
            # reachability without the removed arcs
            seen = {s}
            changed = True
            while changed:
                changed = False
                for u, v in kept:
                    if u in seen and v not in seen:
                        seen.add(v)
                        changed = True
            if t not in seen:
                value = sum(items[i][1] for i in removed)
                if best is None or value < best:
                    best = value
    return best


def test_first_phase_blocking_flow_matches_dag_oracle():
    """Zero-flow phase on the barbell equals the admissible DAG's min cut."""
    g = barbell()
    a = VertexSet(g, [0, 1, 2])
    ag = build(g, a, Fraction(1, 2), Fraction(1, 3))
    fs = FlowState(ag)
    fs.open_all()
    dist, lists = bfs_distances(fs)
    s, t = ag.source_id, ag.sink_id
    dt = dist[t]
    admissible: dict[tuple[int, int], int] = {}
    for u, d in dist.items():
        if u == t or d >= dt:
            continue
        for arc in fs.arcs_of[u]:
            w = fs.arc_to[arc]
            if fs.arc_cap[arc] > 0 and dist.get(w) == d + 1:
                if w == t or dist[w] < dt:
                    admissible[(u, w)] = fs.arc_cap[arc]
    expected = _dag_min_cut(admissible, s, t)
    blocking_flow(fs, dist, lists)
    assert fs.value == expected == 3  # only s->2->3->t is admissible, sink cap 3


def test_update_saturated_trivial_cases():
    g = barbell()
    a = VertexSet(g, [0, 1, 2])
    ag = build(g, a, Fraction(1, 2), Fraction(1, 3))
    fs = FlowState(ag)
    # nothing saturated: no change
    assert update_saturated_set(fs, []) == []
    assert fs.opened == {0, 1, 2}
    # saturate the single frontier vertex's sink arc by hand
    arc = next(
        x for x in fs.arcs_of[3] if fs.arc_to[x] == ag.sink_id
    )
    push(fs, arc, ag.sink_cap(3))
    fresh = update_saturated_set(fs, [arc])
    assert fresh == [3]
    assert fs.opened == {0, 1, 2, 3}


def test_improve_barbell_confirmed_by_oracle():
    """1/7 is the best conductance among sets within the volume budget."""
    g = asym_barbell()
    a = VertexSet(g, [0, 1, 2])
    res = local_improve_overlap(g, a, Fraction(1, 2))
    cap = 3 * a.volume / Fraction(1, 2)
    _, best = brute_min_conductance(g, max_vol=int(cap))
    assert res.phi == best == Fraction(1, 7)
    assert res.cut.volume <= cap


def test_no_improvement_confirmed_by_oracle():
    """Full-value flow at alpha=1 means the oracle min cut is vol(A)."""
    from localcut import Graph, local_improve

    g = Graph(12, [(i, 4 + j) for i in range(4) for j in range(8)])
    a = VertexSet(g, range(4))
    res = local_improve(g, a, None)
    assert not res.improved
    ag = build(g, a, Fraction(1), None)
    _, value = brute_min_cut_value(ag)
    assert value == a.volume


def test_expansion_bound_exhaustive_subsets():
    """Both certificate inequalities hold for every nonempty subset."""
    from localcut import Graph

    g = Graph(12, [(i, 4 + j) for i in range(4) for j in range(8)])
    a = VertexSet(g, range(4))
    eps = Fraction(a.volume, g.total_volume - a.volume)
    res = local_flow(g, a, Fraction(1), eps)
    assert res.full_flow
    alpha = Fraction(1)
    for mask in range(1, 1 << 12):
        members = {u for u in range(12) if (mask >> u) & 1}
        routed = net_outflow(res.flow, members)
        s = VertexSet(g, members)
        assert alpha * routed <= boundary_edges(g, s)
        inter = intersection(s, a).volume
        assert routed >= inter - eps * (s.volume - inter)
