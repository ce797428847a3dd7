import importlib
import io
import math
import random
from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localcut import (
    FlowState,
    Graph,
    InvariantViolation,
    VertexSet,
    bfs_distances,
    blocking_flow,
    build,
    conductance,
    decompose_paths,
    global_max_flow,
    iteration_bound,
    local_flow,
    local_flow_exact,
    verify_bidemand_routing,
)
from localcut import flow as flow_module
from localcut.augmented import least_scale, sink_factor_for_overlap
from localcut.certify import BiDemand, validate_certificate, write_certificate
from localcut.improve import local_improve, local_improve_overlap
from localcut.local_flow import phase_budget, update_saturated_set

from gen import (
    asym_barbell,
    barbell,
    perturb_to_overlap,
    random_instance,
    ring_of_cliques,
    two_cluster_graph,
)
from oracle import brute_min_cut_value, reference_bfs_distances, reference_blocking_flow

# the modules; the package attributes of the same names are the re-exported functions
local_flow_module = importlib.import_module("localcut.local_flow")
improve_module = importlib.import_module("localcut.improve")


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
    """Exact ceilings against 60-digit logarithms over the whole grid.

    Both entry points must agree with the reference: ``iteration_bound``
    and one ``phase_budget`` reused across a search's alphas, as a binary
    search uses it.
    """
    alphas = [Fraction(1, 2**k) for k in range(7)] + [Fraction(3, 8), Fraction(11, 64)]
    for sigma in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)):
        for vol in range(1, 5001):
            with localcontext() as ctx:
                ctx.prec = 60
                ln = (Decimal(3 * vol * sigma.denominator) / sigma.numerator).ln()
                expected = [
                    int(
                        (5 * alpha.denominator * ln / alpha.numerator).to_integral_value(
                            ROUND_CEILING
                        )
                    )
                    for alpha in alphas
                ]
            budget = phase_budget(vol, sigma)
            assert [budget(alpha) for alpha in alphas] == expected, (vol, sigma)
            assert [iteration_bound(alpha, vol, sigma) for alpha in alphas] == expected, (
                vol,
                sigma,
            )


def test_local_matches_global_blocking_flow(small_suite):
    """Phase-by-phase: the lazily materialized run equals the full-graph run."""
    for g, a, alpha, eps in small_suite[:200]:
        ag = build(g, a, alpha, eps)
        loc = FlowState(ag)
        full = FlowState(ag)
        full.open_all()
        t = ag.sink_id
        for _ in range(g.n + 5):
            lab_l = bfs_distances(loc)
            lab_f = bfs_distances(full)
            assert lab_l.dist.get(t) == lab_f.dist.get(t)
            if t not in lab_f.dist:
                break
            p_l, _ = blocking_flow(loc, lab_l)
            p_f, _ = blocking_flow(full, lab_f)
            assert p_l == p_f
            update_saturated_set(loc)
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
    # alpha and eps low enough that the set grows over several phases
    ag = build(g, a, Fraction(1, 4), Fraction(1, 10))
    fs = FlowState(ag)
    seen: set[int] = set()
    for _ in range(60):
        labels = bfs_distances(fs)
        if ag.sink_id not in labels.dist:
            break
        blocking_flow(fs, labels)
        fresh = update_saturated_set(fs)
        assert seen.isdisjoint(fresh)
        seen.update(fresh)
        assert fs.opened == set(a) | seen
        assert (fs.touched_volume - a.volume) * ag.eps <= a.volume
    assert seen == {3, 4, 5, 6, 7, 8}


def _assert_saturated_record(res) -> None:
    """The run's saturated set is its opened non-seed vertices, each with a full sink arc."""
    fs = res.flow
    t = fs.ag.sink_id
    members = fs.opened - set(fs.ag.seed)
    assert res.saturated.members == members
    for v in members:
        (arc,) = (x for x in fs.arcs_of[v] if fs.arc_to[x] == t)
        assert 0 < fs.arc_flow[arc] == fs.arc_cap[arc], f"sink arc of {v} is not saturated"


def test_saturated_record_matches_opened_set(small_suite):
    """Cold runs, forced layer cuts and every probe of the improvement searches."""
    warm = []

    def spy(real):
        def solve(*args, start=None, **kwargs):
            res = real(*args, start=start, **kwargs)
            _assert_saturated_record(res)
            warm.append(start is not None)
            return res

        return solve

    for g, a, alpha, eps in small_suite:
        _assert_saturated_record(local_flow(g, a, alpha, eps))
        _assert_saturated_record(local_flow(g, a, alpha, eps, max_phases=1))
        _assert_saturated_record(local_flow_exact(g, a, alpha, eps))
    rng = random.Random(5150)
    g, b = two_cluster_graph(rng, 50, 62, 0.3, 3)
    a, _ = perturb_to_overlap(rng, g, b, Fraction(2, 3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(improve_module, "local_flow", spy(improve_module.local_flow))
        mp.setattr(improve_module, "local_flow_exact", spy(improve_module.local_flow_exact))
        for solver in ("approx", "exact"):
            local_improve_overlap(g, a, Fraction(2, 3), solver)
            for g_, a_, _, eps in small_suite[:200]:
                local_improve(g_, a_, eps, solver=solver)
    assert sum(warm) > 100


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
    _assert_saturated_record(approx)
    _assert_saturated_record(exact)


@st.composite
def warm_start_instances(draw):
    """A small instance, a higher alpha to start from and a lower one to resume at.

    The lower alpha's numerator is an odd multiple of the higher one's,
    before reduction, and eps denominators 3, 5 and 7 make the two least
    scales differ: the lower alpha's scale is often a larger multiple of
    the higher one's, and sometimes not a multiple at all.
    """
    g, a, _, _ = draw(small_flow_instances())
    p = draw(st.sampled_from([1, 3, 5]))
    q = draw(st.sampled_from([8, 10, 16]))
    k = draw(st.sampled_from([1, 3, 5, 7]))
    alpha_hi = Fraction(p, q)
    alpha_lo = Fraction(p * k, k * q + draw(st.sampled_from([0, 1, 2, 5])))
    eps = draw(
        st.sampled_from([None, Fraction(1, 3), Fraction(2, 3), Fraction(2, 5), Fraction(4, 7)])
    )
    return g, a, alpha_hi, alpha_lo, eps


_BARBELL = asym_barbell()


@given(warm_start_instances())
@example((_BARBELL, VertexSet(_BARBELL, [0, 1, 2]), Fraction(5, 9), Fraction(3, 10), Fraction(2, 5)))
@example((_BARBELL, VertexSet(_BARBELL, [0, 1, 2]), Fraction(7, 9), Fraction(1, 3), Fraction(2, 5)))
@settings(max_examples=300, deadline=None)
def test_resumed_flow_matches_global_oracle(instance):
    """Resuming a max flow at a lower alpha whose scale is a multiple of the start's is exact.

    A lower alpha whose scale the start's does not divide is refused.
    """
    g, a, alpha_hi, alpha_lo, eps = instance
    start = local_flow_exact(g, a, alpha_hi, eps)
    before = (start.flow.ag.scale, start.flow.value, start.flow.arc_flow[:], start.flow.arc_cap[:])
    scale = least_scale(alpha_lo, eps)
    if scale % start.flow.ag.scale:
        for solve in (local_flow, local_flow_exact):
            with pytest.raises(InvariantViolation, match="is not a multiple of"):
                solve(g, a, alpha_lo, eps, start=start)
        return
    ref, ref_cut = global_max_flow(build(g, a, alpha_lo, eps))
    for solve in (local_flow, local_flow_exact):
        warm = solve(g, a, alpha_lo, eps, start=start)
        _assert_saturated_record(warm)
        fs = warm.flow
        assert fs.ag.scale == scale and fs.ag.alpha == alpha_lo
        assert all(f <= c for f, c in zip(fs.arc_flow, fs.arc_cap))
        fs.check_conservation()
        assert warm.exact
        assert warm.value == ref.flow_value
        assert warm.cut == ref_cut
        assert fs.opened >= start.flow.opened
        if warm.full_flow:
            # the routing certificate a no-improvement result would carry
            check = verify_bidemand_routing(fs, BiDemand(a, Fraction(1), eps), 1 / alpha_lo)
            assert check.ok, check.violations[:3]
            pd = decompose_paths(fs)
            assert pd.total == fs.value and pd.scale == scale
            text = io.StringIO()
            write_certificate(text, fs.ag, pd)
            text.seek(0)
            report = validate_certificate(text, g, a)
            assert report.ok, report.violations[:3]
    after = (start.flow.ag.scale, start.flow.value, start.flow.arc_flow, start.flow.arc_cap)
    assert after == before, "resuming must not modify the earlier result"


def test_resume_refuses_a_higher_alpha_or_a_foreign_scale():
    g = asym_barbell()
    a = VertexSet(g, [0, 1, 2])
    start = local_flow_exact(g, a, Fraction(5, 9), Fraction(1, 3))
    assert start.flow.ag.scale == 15
    with pytest.raises(InvariantViolation, match="alpha rose"):
        local_flow(g, a, Fraction(2, 3), Fraction(1, 3), start=start)
    with pytest.raises(InvariantViolation, match="scale 3 is not a multiple of 15"):
        start.flow.resumed(build(g, a, Fraction(1, 3), Fraction(1, 3)))
    with pytest.raises(InvariantViolation, match="its own graph"):
        local_flow(g, a, Fraction(1, 4), Fraction(1, 5), start=start)
    with pytest.raises(InvariantViolation, match="scale 3 is not a multiple of 15"):
        local_flow_exact(g, a, Fraction(1, 3), Fraction(1, 3), start=start)


# the engine against the plain reference, phase by phase ----------------------


def _lockstep(mp: pytest.MonkeyPatch, module, pushes: list[int]) -> None:
    """Check every phase the solvers in ``module`` run against the reference phase.

    Each BFS must give the reference labels in the same discovery order.
    Each blocking flow is first run by the reference on the same state,
    which is then restored; the engine's run must push the same amount and
    leave the same arc flows, flow value and newly saturated vertices, in
    the same order. ``pushes`` collects the amount of every phase.
    """
    real_bfs = module.bfs_distances
    real_blocking = module.blocking_flow

    def bfs(fs):
        want = reference_bfs_distances(fs)
        labels = real_bfs(fs)
        assert list(labels.dist.items()) == list(want.items())
        return labels

    def blocking(fs, labels):
        before = (fs.arc_flow[:], fs.value, fs.newly_saturated[:])
        want_pushed = reference_blocking_flow(fs, labels.dist)
        want = (want_pushed, fs.arc_flow[:], fs.value, fs.newly_saturated[:])
        fs.arc_flow[:], fs.value, fs.newly_saturated[:] = before
        pushed, blocked = real_blocking(fs, labels)
        assert (pushed, fs.arc_flow, fs.value, fs.newly_saturated) == want
        pushes.append(pushed)
        return pushed, blocked

    mp.setattr(module, "bfs_distances", bfs)
    mp.setattr(module, "blocking_flow", blocking)


def _run_in_lockstep(g, a, alpha, eps) -> int:
    """Both localized solvers and the global solver in lockstep; returns the phase count."""
    pushes: list[int] = []
    with pytest.MonkeyPatch.context() as mp:
        _lockstep(mp, local_flow_module, pushes)
        _lockstep(mp, flow_module, pushes)
        local_flow(g, a, alpha, eps)
        local_flow_exact(g, a, alpha, eps)
        global_max_flow(build(g, a, alpha, eps))
    return len(pushes)


def test_engine_matches_reference_phase_by_phase(small_suite):
    phases = sum(_run_in_lockstep(*instance) for instance in small_suite)
    assert phases > 1500
    # improvement searches resume earlier flows; a planted instance has deep layers
    rng = random.Random(5150)
    g, b = two_cluster_graph(rng, 50, 62, 0.3, 3)
    a, _ = perturb_to_overlap(rng, g, b, Fraction(2, 3))
    cases = [(g, a, sink_factor_for_overlap(Fraction(2, 3)))]
    cases += [(g, a, eps) for g, a, _, eps in small_suite[:60]]
    pushes: list[int] = []
    with pytest.MonkeyPatch.context() as mp:
        _lockstep(mp, local_flow_module, pushes)
        for g, a, eps in cases:
            for solver in ("approx", "exact"):
                local_improve(g, a, eps, solver=solver)
    assert len(pushes) > 200


@given(small_flow_instances())
@settings(max_examples=150, deadline=None)
def test_engine_matches_reference_on_generated_instances(instance):
    _run_in_lockstep(*instance)


def test_admissible_lists_released_before_next_bfs(small_suite):
    """No labels of an earlier phase still hold admissible lists when the next BFS starts."""
    made = []

    def spy(real):
        def bfs(fs):
            assert all(labels.admissible is None for labels in made)
            made.append(real(fs))
            return made[-1]

        return bfs

    multi_phase = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local_flow_module, "bfs_distances", spy(local_flow_module.bfs_distances))
        mp.setattr(flow_module, "bfs_distances", spy(flow_module.bfs_distances))
        for g, a, alpha, eps in small_suite[:100]:
            for run in (
                lambda: local_flow(g, a, alpha, eps),
                lambda: local_flow_exact(g, a, alpha, eps),
                lambda: global_max_flow(build(g, a, alpha, eps)),
            ):
                made.clear()
                run()
                multi_phase += len(made) > 2
    assert multi_phase > 50
