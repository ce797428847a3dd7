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
    local_flow,
    local_flow_exact,
)
from localcut import flow as flow_module
from localcut.augmented import least_scale, overlap_for_sink_factor, sink_factor_for_overlap
from localcut.certify import validate_certificate, write_certificate
from localcut.flow import global_max_flow
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
from oracle import (
    brute_min_cut_value,
    capped_flow,
    cut_value,
    networkx_max_flow_value,
    reference_bfs_distances,
    reference_blocking_flow,
    reference_max_flow,
)

# the modules; the package attributes of the same names are the re-exported functions
local_flow_module = importlib.import_module("localcut.local_flow")
improve_module = importlib.import_module("localcut.improve")


def test_iteration_bound_examples():
    assert phase_budget(7, Fraction(1, 2), Fraction(1, 2)) == 38
    assert phase_budget(1, Fraction(1), Fraction(1)) == 6
    assert phase_budget(0, Fraction(1, 2), Fraction(1)) == 0  # nothing to route
    # doubling vol(A) adds at most ceil(5 ln 2 / alpha)
    for alpha in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
        for vol in (3, 10, 77):
            delta = phase_budget(2 * vol, Fraction(1, 2), alpha) - phase_budget(
                vol, Fraction(1, 2), alpha
            )
            assert delta <= math.ceil(5 * math.log(2) / alpha)


def test_iteration_bound_matches_decimal_reference():
    """Exact ceilings against 60-digit logarithms over the whole grid.

    The first alpha of each ``(vol, sigma)`` computes the logarithm and the
    others read it from the memo, as the probes of one search do.
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
            assert [phase_budget(vol, sigma, alpha) for alpha in alphas] == expected, (vol, sigma)


def test_phase_budget_doubles_its_precision_for_small_alphas(monkeypatch):
    """Small alphas need more logarithm digits than the first 12.

    1/10**11 and 7/10**13 need one doubling and 1/10**23 two. Budgets from
    a cleared memo and from a warm one must both agree with a 120-digit
    reference, and the memo computes each precision's logarithm once.
    """
    precisions = []
    context = local_flow_module.Context

    def recording_context(prec):
        precisions.append(prec)
        return context(prec=prec)

    monkeypatch.setattr(local_flow_module, "Context", recording_context)
    logs_needed = {Fraction(1, 10**11): 2, Fraction(7, 10**13): 2, Fraction(1, 10**23): 3}
    for sigma in (Fraction(1, 2), Fraction(2, 3), Fraction(1)):
        for vol in (1, 77, 2000, 10**6):
            with localcontext() as ctx:
                ctx.prec = 120
                ln = (Decimal(3 * vol * sigma.denominator) / sigma.numerator).ln()
                expected = {
                    alpha: int(
                        (5 * alpha.denominator * ln / alpha.numerator).to_integral_value(
                            ROUND_CEILING
                        )
                    )
                    for alpha in logs_needed
                }
            for alpha, logs in logs_needed.items():
                local_flow_module._scaled_log.cache_clear()
                precisions.clear()
                assert phase_budget(vol, sigma, alpha) == expected[alpha], (vol, sigma, alpha)
                assert len(precisions) == logs, (vol, sigma, alpha)
            local_flow_module._scaled_log.cache_clear()
            precisions.clear()
            got = {alpha: phase_budget(vol, sigma, alpha) for alpha in logs_needed}
            assert got == expected, (vol, sigma)
            assert len(precisions) == 3, (vol, sigma)
            if (vol, sigma) == (2000, Fraction(2, 3)):
                assert precisions == [16, 28, 52]


def _spy_budget(mp: pytest.MonkeyPatch, phases=None) -> list[tuple]:
    """Record the arguments of every ``phase_budget`` call the solvers make.

    With ``phases``, every call returns it instead of the real budget.
    """
    real = local_flow_module.phase_budget
    calls: list[tuple] = []

    def budget(*args):
        calls.append(args)
        return real(*args) if phases is None else phases

    mp.setattr(local_flow_module, "phase_budget", budget)
    return calls


def test_only_the_approximate_solver_asks_for_the_budget(small_suite):
    """``local_flow`` asks once per run, with ``(vol(A), sigma, alpha)``; the exact solver never.

    A search asks once per approximate probe, since each probe is one run.
    """
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_budget(mp)
        for g, a, alpha, eps in small_suite[:100]:
            calls.clear()
            local_flow(g, a, alpha, eps)
            assert calls == [(a.volume, overlap_for_sink_factor(eps), alpha)]
            local_flow_exact(g, a, alpha, eps)
            local_improve(g, a, eps, solver="exact")
            assert len(calls) == 1
            calls.clear()
            res = local_improve(g, a, eps)
            assert [call[2] for call in calls] == [alpha for alpha, _ in res.alpha_trace]


def test_the_budget_caps_the_run(small_suite):
    """A budget of ``k`` stops the run after ``k`` phases, as :func:`capped_flow` does."""
    capped = 0
    for g, a, alpha, eps in small_suite[:200]:
        full = local_flow(g, a, alpha, eps).stats.phases
        for k in (0, 1, 2):
            with pytest.MonkeyPatch.context() as mp:
                _spy_budget(mp, k)
                res = local_flow(g, a, alpha, eps)
            assert res.stats.phases == min(k, full)
            assert res.exact == (k >= full)
            ref = capped_flow(g, a, alpha, eps, k)
            assert (res.cut, res.value, res.exact) == (ref.cut, ref.value, ref.exact)
            capped += k < full
    assert capped > 200


def test_a_search_computes_each_logarithm_once(monkeypatch):
    """From a cleared memo, a whole search makes one Decimal context per precision it needs."""
    precisions = []
    context = local_flow_module.Context

    def recording_context(prec):
        precisions.append(prec)
        return context(prec=prec)

    monkeypatch.setattr(local_flow_module, "Context", recording_context)
    rng = random.Random(5150)
    g, b = two_cluster_graph(rng, 50, 62, 0.3, 3)
    a, _ = perturb_to_overlap(rng, g, b, Fraction(2, 3))
    local_flow_module._scaled_log.cache_clear()
    res = local_improve_overlap(g, a, Fraction(2, 3))
    assert len(res.alpha_trace) >= 3
    assert precisions and len(precisions) == len(set(precisions)) < len(res.alpha_trace)

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
            before = (loc.value, full.value)
            pushed = blocking_flow(loc, lab_l)
            blocking_flow(full, lab_f)
            assert loc.value - before[0] == full.value - before[1]
            update_saturated_set(loc, pushed)
        else:
            pytest.fail("differential run did not converge")
        assert loc.value == full.value
        loc_flow = {(loc.arc_to[x ^ 1], loc.arc_to[x]): f for x, f in enumerate(loc.arc_flow)}
        for arc in range(0, len(full.arc_to), 2):
            f = full.arc_flow[arc]
            if f:
                u, v = full.arc_to[arc ^ 1], full.arc_to[arc]
                assert loc_flow.get((u, v), 0) == f


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
        fresh = update_saturated_set(fs, blocking_flow(fs, labels))
        assert seen.isdisjoint(fresh)
        seen.update(fresh)
        assert fs.opened == set(a) | seen
        assert (fs.touched_volume - a.volume) * ag.eps <= a.volume
    assert seen == {3, 4, 5, 6, 7, 8}


def test_push_record_finds_every_filled_sink_arc(small_suite):
    """Each phase opens exactly the unopened non-seeds whose sink arc a full scan finds full.

    After a full-value flow nothing opens, whatever the scan finds.
    """
    real = local_flow_module.update_saturated_set
    calls = []

    def update(fs, pushed):
        t = fs.ag.sink_id
        to, cap, flow = fs.arc_to, fs.arc_cap, fs.arc_flow
        scan = sorted(
            to[x]
            for x in fs.arcs_of[t]
            if flow[x ^ 1] == cap[x ^ 1] and to[x] not in fs.opened and to[x] not in fs.ag.seed
        )
        full = fs.value == fs.ag.source_total
        fresh = real(fs, pushed)
        assert fresh == ([] if full else scan)
        calls.append((full and bool(scan), len(fresh)))
        return fresh

    phases = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local_flow_module, "update_saturated_set", update)
        for g, a, alpha, eps in small_suite:
            for solve in (local_flow, local_flow_exact):
                phases += solve(g, a, alpha, eps).stats.phases
    assert len(calls) == phases
    assert any(full_and_found for full_and_found, _ in calls)
    assert sum(opened for _, opened in calls) > 500


def _assert_saturated_record(res) -> None:
    """Every opened non-seed vertex, the run's saturated set, has a full sink arc."""
    fs = res.flow
    t = fs.ag.sink_id
    for v in fs.opened - set(fs.ag.seed):
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
        _assert_saturated_record(capped_flow(g, a, alpha, eps, 1))
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
        ref, _ = reference_max_flow(ag)
        assert res.flow.value == ref.value


def test_solvers_agree_with_networkx_max_flow(small_suite):
    """The networkx value shares no code with the engine; every solver must reach it."""
    approx_exact = 0
    for g, a, alpha, eps in small_suite:
        ag = build(g, a, alpha, eps)
        want = networkx_max_flow_value(ag)
        assert global_max_flow(ag)[0].value == want
        assert reference_max_flow(ag)[0].value == want
        assert local_flow_exact(g, a, alpha, eps).flow.value == want
        res = local_flow(g, a, alpha, eps)
        if res.exact:
            assert res.flow.value == want
            approx_exact += 1
    assert approx_exact > 400


def test_local_flow_differential_up_to_fifty_vertices():
    rng = random.Random(61)
    for _ in range(60):
        g, a, alpha, eps = random_instance(rng, nmax=50)
        res = local_flow(g, a, alpha, eps)
        if not res.exact:
            continue
        ref, _ = reference_max_flow(build(g, a, alpha, eps))
        assert res.flow.value == ref.value


def _spy_bfs(mp: pytest.MonkeyPatch, mutate=None, module=local_flow_module) -> list[int]:
    """Collect the sink distance of every BFS ``module`` runs, after ``mutate(fs, labels)``."""
    real = module.bfs_distances
    trace: list[int] = []

    def bfs(fs):
        labels = real(fs)
        if mutate is not None:
            mutate(fs, labels)
        if fs.ag.sink_id in labels.dist:
            trace.append(labels.dist[fs.ag.sink_id])
        return labels

    mp.setattr(module, "bfs_distances", bfs)
    return trace


def test_sink_distance_trace_grows(small_suite):
    multi_phase = 0
    for g, a, alpha, eps in small_suite[:80]:
        for solve in (local_flow, local_flow_exact):
            with pytest.MonkeyPatch.context() as mp:
                trace = _spy_bfs(mp)
                res = solve(g, a, alpha, eps)
            assert len(trace) == res.stats.phases, "every phase reached the sink"
            # sink distance after i phases is at least i+3
            assert all(d >= i + 3 for i, d in enumerate(trace))
            assert all(b >= a_ + 1 for a_, b in zip(trace, trace[1:]))
            multi_phase += len(trace) > 1
    assert multi_phase > 20


def test_stalled_sink_distance_is_caught():
    """Labels whose sink distance does not grow across a phase raise during the run."""
    g = asym_barbell()
    a = VertexSet(g, [0, 1, 2])
    alpha, eps = Fraction(1, 4), Fraction(1, 10)
    assert local_flow(g, a, alpha, eps).stats.phases >= 2

    def global_solve(g, a, alpha, eps):
        return global_max_flow(build(g, a, alpha, eps))

    for module, solve in (
        (local_flow_module, local_flow),
        (local_flow_module, local_flow_exact),
        (flow_module, global_solve),
    ):
        seen: list[int] = []

        def stall(fs, labels):
            t = fs.ag.sink_id
            if seen and t in labels.dist:
                labels.dist[t] = seen[0]
            seen.append(labels.dist.get(t))

        with pytest.MonkeyPatch.context() as mp:
            _spy_bfs(mp, stall, module)
            with pytest.raises(InvariantViolation, match="sink distance failed to grow"):
                solve(g, a, alpha, eps)
        assert len(seen) == 2


def test_fallen_label_in_the_sink_layer_is_caught():
    """An opened vertex of the previous sink layer whose label falls raises during the run.

    Once per run, the first opened vertex that sat in the previous BFS's
    sink layer is labelled one below that layer; the monotone check
    covers the sink's layer, so every corrupted run raises before it
    returns.
    """
    rng = random.Random(3)
    corrupted = 0
    for _ in range(300):
        g, a, alpha, eps = random_instance(rng)
        prev = []
        hit = []

        def lower(fs, labels):
            if prev and not hit:
                dt = prev[-1].dist[fs.ag.sink_id]
                v = next((v for v in sorted(fs.opened) if prev[-1].dist.get(v) == dt), None)
                if v is not None:
                    labels.dist[v] = dt - 1
                    hit.append(v)
            prev.append(labels)

        with pytest.MonkeyPatch.context() as mp:
            _spy_bfs(mp, lower)
            try:
                local_flow(g, a, alpha, eps)
            except InvariantViolation as exc:
                assert hit and f"decreased at vertex {hit[0]}:" in str(exc)
            else:
                assert not hit
        corrupted += len(hit)
    assert corrupted >= 10


def test_unopened_vertex_in_a_low_layer_is_caught():
    """An unopened vertex labelled below ``d(t) - 2`` raises before the run returns."""
    g = asym_barbell()
    a = VertexSet(g, [0, 1, 2])
    for solve in (local_flow, local_flow_exact):

        def misplace(fs, labels):
            outside = min(v for v in range(g.n) if v not in fs.opened)
            assert labels.dist[fs.ag.sink_id] >= 3
            labels.dist[outside] = 1

        with pytest.MonkeyPatch.context() as mp:
            _spy_bfs(mp, misplace)
            with pytest.raises(InvariantViolation, match="outside seed and saturated set"):
                solve(g, a, Fraction(1, 2), Fraction(1, 3))


def _reference_layer_cut(fs: FlowState) -> VertexSet:
    """The earliest lowest-conductance prefix union of the reference layers 1..d(t)-2."""
    g = fs.ag.graph
    dist = reference_bfs_distances(fs)
    best = None
    prefix: set[int] = set()
    for j in range(1, dist[fs.ag.sink_id] - 1):
        prefix.update(v for v, d in dist.items() if d == j)
        cut = VertexSet(g, prefix)
        if cut.volume >= g.total_volume:
            break
        if best is None or conductance(g, cut) < conductance(g, best):
            best = cut
    return best


def test_forced_early_stop_returns_layer_cut(small_suite):
    """A run out of budget returns the best prefix of its final labels' layers, inside the core."""
    g = asym_barbell()
    a = VertexSet(g, [0, 1, 2])
    alpha, eps = Fraction(1, 4), Fraction(1, 10)
    full = local_flow(g, a, alpha, eps)
    assert full.exact
    res = capped_flow(g, a, alpha, eps, full.stats.phases - 1)
    assert not res.exact and not res.full_flow
    assert set(res.cut) <= res.flow.opened
    dist = bfs_distances(res.flow).dist
    dt = dist[res.flow.ag.sink_id]
    top = max(dist[v] for v in res.cut)
    assert top <= dt - 2
    assert set(res.cut) == {v for v, d in dist.items() if v < g.n and 1 <= d <= top}
    layer_cuts = 0
    for g, a, alpha, eps in small_suite:
        for phases in (0, 1, 2, 3):
            res = capped_flow(g, a, alpha, eps, phases)
            if not res.exact:
                assert res.cut == _reference_layer_cut(res.flow)
                layer_cuts += 1
    assert layer_cuts > 300


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
    ref, ref_cut = reference_max_flow(ag)
    _, brute = brute_min_cut_value(ag)
    # at most n - 1 phases on n <= 7 vertices, and the budget is at least 6
    assert approx.exact
    assert approx.value == exact.value == ref.flow_value == brute
    # residual reachability is the minimal min cut, whichever flow left it
    assert exact.cut == ref_cut == approx.cut
    assert cut_value(ag, exact.cut) == brute
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
    ref, ref_cut = reference_max_flow(build(g, a, alpha_lo, eps))
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
            text = io.StringIO()
            write_certificate(text, fs)
            assert f"flow-value {Fraction(fs.value, scale)}\n" in text.getvalue()
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

    Each BFS must give the reference labels up to the sink's, or everywhere
    when the sink is unlabelled, and no others, discovered in the same
    order below the sink's label. Within the sink's layer the order comes
    from the lists of unopened vertices, which are not sorted, and no flow,
    cut or label depends on it.
    Each blocking flow is first run by the reference on the same state,
    which is then restored; the engine's run must leave the same arc flows
    and flow value, so it pushed the same amount and filled the same sink
    arcs. ``pushes`` collects the amount of every phase.
    """
    real_bfs = module.bfs_distances
    real_blocking = module.blocking_flow

    def bfs(fs):
        want = reference_bfs_distances(fs)
        labels = real_bfs(fs)
        dt = want.get(fs.ag.sink_id)
        assert labels.dist == {v: d for v, d in want.items() if dt is None or d <= dt}
        assert [v for v, d in labels.dist.items() if dt is None or d < dt] == [
            v for v, d in want.items() if dt is None or d < dt
        ]
        return labels

    def blocking(fs, labels):
        before = (fs.arc_flow[:], fs.value)
        amount = reference_blocking_flow(fs, labels.dist)
        want = (fs.arc_flow[:], fs.value)
        fs.arc_flow[:], fs.value = before
        pushed = real_blocking(fs, labels)
        assert (fs.arc_flow, fs.value) == want
        assert bool(pushed) == bool(amount)
        pushes.append(amount)
        return pushed

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


def _assert_arc_order(fs: FlowState) -> None:
    """The source's and every opened vertex's list strictly increase in target;
    every unopened non-seed's list ends with its sink arc."""
    to = fs.arc_to
    t = fs.ag.sink_id
    for v in (fs.ag.source_id, *fs.opened):
        targets = [to[a] for a in fs.arcs_of[v]]
        assert all(x < y for x, y in zip(targets, targets[1:])), (v, targets)
    for v, arcs in fs.arcs_of.items():
        if v < fs.ag.graph.n and v not in fs.opened and v not in fs.ag.seed:
            assert to[arcs[-1]] == t, v


def test_open_vertex_keeps_every_list_in_order(small_suite):
    """Checked after every open and on every resumed copy, across both solvers,
    the improvement searches (which resume) and the global solver (``open_all``)."""
    real_open = FlowState.open_vertex
    real_resumed = FlowState.resumed
    counts = {"open": 0, "resumed": 0}

    def open_vertex(fs, v):
        real_open(fs, v)
        _assert_arc_order(fs)
        counts["open"] += 1

    def resumed(fs, ag):
        copy = real_resumed(fs, ag)
        _assert_arc_order(copy)
        counts["resumed"] += 1
        return copy

    rng = random.Random(14)
    instances = small_suite + [random_instance(rng, nmax=40) for _ in range(60)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FlowState, "open_vertex", open_vertex)
        mp.setattr(FlowState, "resumed", resumed)
        for g, a, alpha, eps in instances:
            local_flow(g, a, alpha, eps)
            local_flow_exact(g, a, alpha, eps)
            global_max_flow(build(g, a, alpha, eps))
            local_improve(g, a, eps)
    assert counts["open"] > 10000 and counts["resumed"] > 200


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


# conservation: checked along each phase's pushes, and in full once per run ---


# A corruption is injected right after the blocking flow of one phase. The
# instance has two phases: the first pushes only along s-2-3-t, the second
# adds paths through 4..7; seeds 0 and 1 lie on no pushed path in either.
_G = asym_barbell()
_A = VertexSet(_G, [0, 1, 2])
_ALPHA, _EPS = Fraction(1, 3), Fraction(1, 10)


def _edge(fs: FlowState, u: int, v: int) -> int:
    return next(x for x in fs.arcs_of[u] if fs.arc_to[x] == v)


def _on_path(fs: FlowState, pushed: list[int]) -> int:
    """The first arc of the push record between two base vertices: inside a pushed path."""
    n = fs.ag.graph.n
    return next(x for x in pushed if fs.arc_to[x] < n and fs.arc_to[x ^ 1] < n)


def _shift(fs: FlowState, x: int) -> None:
    """One more unit on arc ``x``, antisymmetry kept: its two ends lose conservation."""
    fs.arc_flow[x] += 1
    fs.arc_flow[x ^ 1] -= 1


def _spy_checks(mp: pytest.MonkeyPatch) -> list[str]:
    """Log each conservation check as ``"phase"`` (one push record) or ``"full"``."""
    checks: list[str] = []
    real = FlowState.check_conservation

    def check(fs, *pushed):
        checks.append("phase" if pushed else "full")
        return real(fs, *pushed)

    mp.setattr(FlowState, "check_conservation", check)
    return checks


def _global(g, a, alpha, eps):
    return global_max_flow(build(g, a, alpha, eps))


# each solver with the module whose blocking_flow it calls
_SOLVERS = pytest.mark.parametrize(
    "solve, module",
    [
        (local_flow, local_flow_module),
        (local_flow_exact, local_flow_module),
        (_global, flow_module),
    ],
    ids=["approx", "exact", "global"],
)


def _run_corrupted(solve, module, corrupt) -> tuple[list[str], str]:
    """Run ``solve`` on the instance above with ``corrupt(fs, pushed)`` after its first phase.

    ``pushed`` is the push record that phase's blocking flow returned. The run must raise. Returns the conservation checks it made, in order
    (:func:`_spy_checks`), the last being the one that raised, and the
    error message.
    """
    real_blocking = module.blocking_flow
    corrupted = False

    def blocking(fs, labels):
        nonlocal corrupted
        pushed = real_blocking(fs, labels)
        if not corrupted:
            corrupt(fs, pushed)
            corrupted = True
        return pushed

    with pytest.MonkeyPatch.context() as mp:
        checks = _spy_checks(mp)
        mp.setattr(module, "blocking_flow", blocking)
        with pytest.raises(InvariantViolation) as info:
            solve(_G, _A, _ALPHA, _EPS)
    return checks, str(info.value)


def test_far_seeds_stay_off_every_pushed_path():
    """The premise of the far-corruption tests below, on the clean run."""
    heads = []
    real_blocking = local_flow_module.blocking_flow

    def blocking(fs, labels):
        pushed = real_blocking(fs, labels)
        heads.append({fs.arc_to[x] for x in pushed})
        return pushed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local_flow_module, "blocking_flow", blocking)
        res = local_flow_exact(_G, _A, _ALPHA, _EPS)
    assert res.stats.phases == len(heads) == 2
    assert heads[0] == {2, 3, res.flow.ag.sink_id}
    assert heads[1].isdisjoint({0, 1})
    assert _edge(res.flow, 0, 1) in res.flow.arcs_of[0]


@_SOLVERS
def test_corrupted_arc_on_a_pushed_path_is_caught_in_its_phase(solve, module):
    def corrupt(fs, pushed):
        _shift(fs, _on_path(fs, pushed))

    checks, error = _run_corrupted(solve, module, corrupt)
    assert checks == ["phase"]
    assert error in (
        "conservation violated at vertex 2: 1",
        "conservation violated at vertex 3: -1",
    )


@_SOLVERS
def test_broken_antisymmetry_on_a_pushed_pair_is_caught_in_its_phase(solve, module):
    def corrupt(fs, pushed):
        fs.arc_flow[_on_path(fs, pushed) ^ 1] -= 1

    checks, error = _run_corrupted(solve, module, corrupt)
    assert checks == ["phase"]
    assert "is not antisymmetric" in error


@_SOLVERS
def test_corrupted_arc_far_from_the_pushes_is_caught_before_the_run_returns(solve, module):
    """The phase checks pass over the corruption; the run's full check catches it.

    The global solver checks both phases' records. The localized solvers
    check only the first, which a second phase follows, and leave the last
    to the full check.
    """
    checks, error = _run_corrupted(solve, module, lambda fs, _: _shift(fs, _edge(fs, 0, 1)))
    if module is flow_module:
        assert checks == ["phase", "phase", "full"]
    else:
        assert checks == ["phase", "full"]
    assert error in (
        "conservation violated at vertex 0: 1",
        "conservation violated at vertex 1: -1",
    )


@pytest.mark.parametrize("alpha", [_ALPHA, _ALPHA / 2], ids=["same-alpha", "lower-alpha"])
@pytest.mark.parametrize("solve", [local_flow, local_flow_exact], ids=["approx", "exact"])
def test_corrupted_start_flow_is_caught_before_the_resumed_run_returns(solve, alpha):
    """No check runs at resume: the resumed run's full check reads every inherited arc.

    At the same alpha the start is already a maximum flow, so the resumed
    run makes no phase and only that full check sees the start at all. At
    the lower alpha new paths cross the corrupted seeds, and a phase check
    may catch it first.
    """
    start = local_flow_exact(_G, _A, _ALPHA, _EPS)
    _shift(start.flow, _edge(start.flow, 0, 1))
    with pytest.MonkeyPatch.context() as mp:
        checks = _spy_checks(mp)
        with pytest.raises(InvariantViolation, match="conservation violated at vertex [01]"):
            solve(_G, _A, alpha, _EPS, start=start)
    if alpha == _ALPHA:
        assert checks == ["full"]
