import math
import random
from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcut import (
    FlowState,
    Graph,
    VertexSet,
    bfs_distances,
    blocking_flow,
    brute_min_cut_value,
    build,
    conductance,
    global_max_flow,
    iteration_bound,
    local_flow,
    local_flow_exact,
)
from localcut.augmented import sink_factor_for_overlap
from localcut.local_flow import (
    SaturatedSet,
    local_blocking_flow,
    update_saturated_set,
)

from gen import asym_barbell, barbell, random_instance, ring_of_cliques


def test_iteration_bound_examples():
    assert iteration_bound(Fraction(1, 2), 7, Fraction(1, 2)) == 38
    assert iteration_bound(Fraction(1), 1, Fraction(1)) == 6
    assert iteration_bound(Fraction(1), 0, Fraction(1, 2)) == 0  # nothing to route
    # doubling vol(A) adds at most ceil(5 ln 2 / alpha)
    for alpha in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
        for vol in (3, 10, 77):
            delta = iteration_bound(alpha, 2 * vol, Fraction(1, 2)) - iteration_bound(
                alpha, vol, Fraction(1, 2)
            )
            assert delta <= math.ceil(5 * math.log(2) / alpha)


def test_iteration_bound_matches_decimal_reference():
    """Exact ceilings against 60-digit logarithms over the whole grid."""
    alphas = [Fraction(1, 2**k) for k in range(7)]
    for sigma in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)):
        for vol in range(1, 5001):
            with localcontext() as ctx:
                ctx.prec = 60
                ln = (Decimal(3 * vol * sigma.denominator) / sigma.numerator).ln()
                expected = [
                    int((5 * alpha.denominator * ln).to_integral_value(ROUND_CEILING))
                    for alpha in alphas
                ]
            assert [iteration_bound(alpha, vol, sigma) for alpha in alphas] == expected, (
                vol,
                sigma,
            )


def test_local_matches_global_blocking_flow(small_suite):
    """Phase-by-phase: the lazily materialized run equals the full-graph run."""
    for g, a, alpha, eps in small_suite[:200]:
        ag = build(g, a, alpha, eps)
        loc = FlowState(ag)
        bs = SaturatedSet(ag)
        full = FlowState(ag)
        full.open_all()
        t = ag.sink_id
        for _ in range(g.n + 5):
            lab_l = bfs_distances(loc)
            lab_f = bfs_distances(full)
            assert lab_l.dist.get(t) == lab_f.dist.get(t)
            if t not in lab_f.dist:
                break
            p_l, _ = local_blocking_flow(loc, bs, lab_l)
            p_f, _ = blocking_flow(full, lab_f)
            assert p_l == p_f
            update_saturated_set(loc, bs)
            full.newly_saturated.clear()
        else:
            pytest.fail("differential run did not converge")
        assert loc.value == full.value
        for arc in range(0, len(full.arc_to), 2):
            f = full.arc_flow[arc]
            if f:
                u, v = full.arc_to[arc ^ 1], full.arc_to[arc]
                assert loc.flow_between(u, v) == f


def test_update_saturated_set_monotone():
    g = asym_barbell()
    a = VertexSet(g, [0, 1, 2])
    ag = build(g, a, Fraction(1, 2), Fraction(1, 3))
    fs = FlowState(ag)
    bs = SaturatedSet(ag)
    seen: set[int] = set()
    for _ in range(60):
        labels = bfs_distances(fs)
        if ag.sink_id not in labels.dist:
            break
        local_blocking_flow(fs, bs, labels)
        fresh = update_saturated_set(fs, bs)
        assert seen.isdisjoint(fresh)
        seen.update(fresh)
        assert bs.members >= seen
        if ag.eps is not None:
            assert bs.volume * ag.eps <= a.volume or bs._unclamped_volume * ag.eps <= a.volume


def test_local_flow_barbell_exact():
    g = barbell()
    a = VertexSet(g, [0, 1, 2])
    res = local_flow(g, a, Fraction(1, 2), Fraction(1, 3))
    assert res.exact and not res.full_flow
    assert res.cut.ids == (0, 1, 2)
    assert conductance(g, res.cut) == Fraction(1, 7) < Fraction(1, 2)
    assert res.value == 2


def test_local_flow_full_value_outcome():
    from localcut import Graph

    g = Graph(12, [(i, 4 + j) for i in range(4) for j in range(8)])
    a = VertexSet(g, range(4))
    eps = Fraction(a.volume, g.total_volume - a.volume)
    res = local_flow(g, a, Fraction(1), eps)
    assert res.exact and res.full_flow
    assert len(res.cut) == 0
    assert res.flow.value == res.flow.ag.source_total


def test_local_flow_differential_exact_values(small_suite):
    for g, a, alpha, eps in small_suite[:200]:
        ag = build(g, a, alpha, eps)
        res = local_flow(g, a, alpha, eps)
        assert res.exact, "phase budget must never bind on the small family"
        ref, _ = global_max_flow(ag)
        assert res.flow.value == ref.value


def test_local_flow_differential_up_to_fifty_vertices():
    rng = random.Random(61)
    for _ in range(60):
        g, a, alpha, eps = random_instance(rng, nmax=50)
        res = local_flow(g, a, alpha, eps)
        if not res.exact:
            continue
        ref, _ = global_max_flow(build(g, a, alpha, eps))
        assert res.flow.value == ref.value


def test_sink_distance_trace_grows(small_suite):
    for g, a, alpha, eps in small_suite[:80]:
        res = local_flow(g, a, alpha, eps)
        trace = res.stats.sink_distance_trace
        assert all(b >= a_ + 1 for a_, b in zip(trace, trace[1:]))
        if trace:
            assert trace[0] >= 3
            # sink distance after i phases is at least i+3
            assert all(d >= i + 3 for i, d in enumerate(trace))


def test_forced_early_stop_returns_layer_cut():
    g = asym_barbell()
    a = VertexSet(g, [0, 1, 2])
    full = local_flow(g, a, Fraction(1, 2), Fraction(1, 3))
    assert full.exact
    phases = full.stats.phases
    if phases >= 2:
        res = local_flow(g, a, Fraction(1, 2), Fraction(1, 3), max_phases=phases - 1)
        if not res.exact:
            assert res.layer_cut is not None
            assert set(res.cut) <= set(a) | res.saturated.members


def test_locality_on_ring_of_cliques():
    g = ring_of_cliques(200, 10)
    a = VertexSet(g, range(10))
    res = local_flow(g, a, Fraction(1, 4), Fraction(1, 3))
    sigma = Fraction(1, 2)
    assert res.stats.touched_volume <= 3 * a.volume / sigma
    assert res.exact


@st.composite
def small_flow_instances(draw):
    """Graphs on at most 7 vertices: parallel edges, isolated vertices and
    several components all occur, and seeds may include degree-0 vertices."""
    n = draw(st.integers(2, 7))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    g = Graph(n, draw(st.lists(pair, max_size=14)))
    seed = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    a = VertexSet(g, seed)
    if 2 * a.volume > g.total_volume:
        a = VertexSet(g, set(range(n)) - seed)
    alpha = draw(st.sampled_from([Fraction(1), Fraction(3, 4), Fraction(1, 2), Fraction(1, 8)]))
    sigma = draw(st.sampled_from([Fraction(1), Fraction(3, 4), Fraction(2, 3), Fraction(1, 2)]))
    return g, a, alpha, sink_factor_for_overlap(sigma)


@given(small_flow_instances())
@settings(max_examples=300, deadline=None)
def test_solvers_agree_with_oracles(instance):
    g, a, alpha, eps = instance
    ag = build(g, a, alpha, eps)
    approx = local_flow(g, a, alpha, eps)
    exact = local_flow_exact(g, a, alpha, eps)
    ref, ref_cut = global_max_flow(ag)
    _, brute = brute_min_cut_value(ag)
    # at most n - 1 phases on n <= 7 vertices, and the budget is at least 6
    assert approx.exact
    assert approx.value == exact.value == ref.flow_value == brute
    # residual reachability is the minimal min cut, whichever flow left it
    assert exact.cut == ref_cut == approx.cut
    assert ag.cut_value(exact.cut) == brute
