import importlib
import random
from fractions import Fraction

import pytest

import localcut.augmented as augmented_module
import localcut.graphs as graphs_module
import localcut.improve as improve_module
from localcut import (
    Graph,
    ParameterError,
    VertexSet,
    boundary_edges,
    build,
    conductance,
    local_flow,
    local_flow_exact,
    local_improve,
    local_improve_overlap,
)
from localcut.augmented import epsilon_sigma, overlap_for_sink_factor, relative_quotient

from gen import (
    asym_barbell,
    perturb_to_overlap,
    planted_alpha_star,
    random_instance,
    ring_of_cliques,
    two_cluster_graph,
)
from oracle import brute_min_quotient, cut_certificate_check, routing_check

# the module; the package attribute of the same name is the re-exported function
local_flow_module = importlib.import_module("localcut.local_flow")


def _spy_probes(monkeypatch, solver, starve=None):
    """Record ``(alpha, result)`` of every probe the search makes.

    ``starve`` maps the approximate solver's phase budget to the one
    actually run, which lets a test starve it into layer cuts.
    """
    if starve is not None:
        real_budget = local_flow_module.phase_budget
        monkeypatch.setattr(
            local_flow_module, "phase_budget", lambda *args: starve(real_budget(*args))
        )
    cold = local_flow if solver == "approx" else local_flow_exact
    probes = []

    def spy(g, a, alpha, eps, **kwargs):
        res = cold(g, a, alpha, eps, **kwargs)
        probes.append((alpha, res))
        return res

    monkeypatch.setattr(improve_module, cold.__name__, spy)
    return probes


def _check_search_rule(g, a, eps_sigma, probes, width=improve_module.BISECTION_WIDTH) -> int:
    """Assert the cut-quotient search's stepping rule; return how many probes bisected.

    The first probe is at 1. A cut whose quotient is below its alpha
    moves the next probe to that quotient; only after a cut that fails to
    lower the quotient may midpoints of the bracket follow. The search
    stops at a full flow that closes the bracket, at a disconnection cut,
    or when the bisected bracket is narrower than ``width``.
    """
    assert probes[0][0] == 1
    lo, hi = Fraction(0), Fraction(1)
    non_lowering = False
    midpoints = 0
    for i, (alpha, res) in enumerate(probes):
        q = None if res.full_flow else relative_quotient(g, a, res.cut, eps_sigma)
        if res.full_flow:
            lo = alpha
        else:
            hi = alpha if q is None else min(alpha, q)
            non_lowering = non_lowering or hi == alpha
        if i + 1 == len(probes):
            disconnected = not res.full_flow and conductance(g, res.cut) == 0
            assert disconnected or hi - lo <= width * lo
            break
        nxt = probes[i + 1][0]
        if hi < alpha and hi > lo:
            assert nxt == q, "a quotient-lowering cut moves the next probe to its quotient"
        else:
            assert non_lowering, "bisection follows only a cut that failed to lower the quotient"
            assert nxt == (lo + hi) / 2
            midpoints += 1
    return midpoints


def test_improve_asym_barbell(monkeypatch):
    g = asym_barbell()
    a = VertexSet(g, [0, 1, 2])
    probes = _spy_probes(monkeypatch, "approx")
    res = local_improve_overlap(g, a, Fraction(1, 2))
    assert res.improved
    assert res.cut.ids == (0, 1, 2)
    assert res.phi == Fraction(1, 7)
    # the cut found at alpha = 1 has quotient 1/7, which routes a full flow
    assert res.alpha_trace == [(Fraction(1), "cut-found"), (Fraction(1, 7), "full-flow")]
    assert _check_search_rule(g, a, res.eps, probes) == 0


@pytest.mark.parametrize("solver", ["approx", "exact"])
def test_each_cut_found_counts_its_boundary_once(small_suite, solver, monkeypatch):
    """One boundary count per cut-found probe gives both its conductance and its quotient."""
    counted = 0

    def counting(g, s):
        nonlocal counted
        counted += 1
        return boundary_edges(g, s)

    for module in (graphs_module, augmented_module, improve_module):
        monkeypatch.setattr(module, "boundary_edges", counting)
    cuts = 0
    for g, a, _alpha, eps in small_suite[:100]:
        counted = 0
        res = local_improve(g, a, eps, solver=solver)
        found = sum(outcome == "cut-found" for _, outcome in res.alpha_trace)
        assert counted == found
        cuts += found
    assert cuts > 40


def test_search_rule_with_starved_layer_cuts(small_suite, monkeypatch):
    """Budget-starved layer cuts that fail to lower the quotient make the search bisect."""
    probes = _spy_probes(monkeypatch, "approx", starve=lambda budget: budget // 8)
    midpoints = 0
    for g, a, _, eps in small_suite[:200]:
        probes.clear()
        res = local_improve(g, a, eps)
        assert [alpha for alpha, _ in probes] == [alpha for alpha, _ in res.alpha_trace]
        midpoints += _check_search_rule(g, a, eps, probes)
    assert midpoints >= 10, f"only {midpoints} bisection probes"


def test_improve_no_improvement_outcome():
    g = Graph(12, [(i, 4 + j) for i in range(4) for j in range(8)])
    a = VertexSet(g, range(4))
    res = local_improve(g, a, None)
    assert not res.improved
    assert res.phi is None and len(res.cut) == 0
    cert = res.certificate_flow
    assert cert.full_flow
    assert routing_check(cert.flow).ok


def test_improve_probe_count_bound():
    g = asym_barbell()
    a = VertexSet(g, [0, 1, 2])
    res = local_improve_overlap(g, a, Fraction(1, 2))
    import math

    phi = res.phi
    width = improve_module.BISECTION_WIDTH
    bound = math.log2(1 / width) + math.ceil(math.log2(1 / float(phi))) + 3
    assert len(res.alpha_trace) <= bound


def test_improve_parameter_validation():
    g = asym_barbell()
    a = VertexSet(g, [0, 1, 2])
    with pytest.raises(ParameterError):
        local_improve(g, a, Fraction(1, 3), solver="bogus")
    with pytest.raises(ParameterError, match="at least"):
        local_improve_overlap(g, a, Fraction(1, 100))
    # refused by the first probe's augmented-graph build, with its message
    for seed, eps_sigma, message in [
        ([], Fraction(1, 3), "seed set must be nonempty"),
        (range(6), Fraction(1, 3), "seed volume 26 exceeds half the total volume 50"),
        ([0, 1, 2], Fraction(0), "eps must be positive, got 0"),
        ([0, 1, 2], Fraction(-1, 2), "eps must be positive, got -1/2"),
    ]:
        for solver in ("approx", "exact"):
            with pytest.raises(ParameterError, match=message):
                local_improve(g, VertexSet(g, seed), eps_sigma, solver=solver)


def test_exact_solver_never_worse_than_approx_bound():
    rng = random.Random(23)
    for _ in range(12):
        g, b = two_cluster_graph(rng, 18, 24, 0.5, 2)
        a, delta = perturb_to_overlap(rng, g, b, Fraction(2, 3))
        res_a = local_improve_overlap(g, a, Fraction(2, 3), "approx")
        res_e = local_improve_overlap(g, a, Fraction(2, 3), "exact")
        assert res_a.improved and res_e.improved
        phi_b = conductance(g, b)
        assert res_e.phi <= 2 / delta * phi_b
        assert res_a.phi <= 4 / delta * phi_b


def test_solvers_agree_wherever_the_budget_never_binds(small_suite, monkeypatch):
    """Where every approximate probe reached a maximum flow, both searches are one search.

    A starved pass meets probes that stop on a layer cut; the test claims
    nothing about those instances.
    """
    rng = random.Random(23)
    cases = [(g, a, eps) for g, a, _, eps in small_suite]
    for _ in range(12):  # the instances of test_exact_solver_never_worse_than_approx_bound
        g, b = two_cluster_graph(rng, 18, 24, 0.5, 2)
        a, _ = perturb_to_overlap(rng, g, b, Fraction(2, 3))
        cases.append((g, a, epsilon_sigma(Fraction(2, 3), g, a)))
    agreed = layered = 0
    for starve in (None, lambda budget: budget // 8):
        probes = _spy_probes(monkeypatch, "approx", starve)
        for g, a, eps in cases:
            probes.clear()
            res_a = local_improve(g, a, eps, solver="approx")
            res_e = local_improve(g, a, eps, solver="exact")
            if not all(res.exact for _, res in probes):
                layered += 1
                continue
            agreed += 1
            for field in ("cut", "phi", "improved", "alpha_trace", "phases", "touched_volume"):
                assert getattr(res_a, field) == getattr(res_e, field), field
    assert agreed and layered, (agreed, layered)


def test_bracketing_invariant_on_planted_instances():
    """No probe routes a full flow above the planted set's quotient."""
    rng = random.Random(31)
    instances = 0
    for _ in range(10):
        g, b = two_cluster_graph(rng, 15, 20, 0.5, 1)
        a, delta = perturb_to_overlap(rng, g, b, Fraction(2, 3))
        eps = Fraction(2, 3)
        alpha_star = planted_alpha_star(g, a, b, eps)
        if alpha_star >= 1:
            continue
        instances += 1
        res = local_improve(g, a, eps)
        lo = Fraction(0)
        checked = 0
        for alpha, outcome in res.alpha_trace:
            if outcome == "full-flow":
                lo = alpha
            assert lo <= alpha_star, "full-flow probes stay at or below the threshold"
            checked += 1
        assert checked == len(res.alpha_trace) >= 1
    assert instances >= 5


def test_exact_search_attains_least_quotient(small_suite, monkeypatch):
    """The exact search's cuts reach the brute-force least quotient, and it ends there.

    With no quotient below 1 the search reports no improvement. Bisection
    could only bracket this minimum within its stopping width.
    """
    probes = _spy_probes(monkeypatch, "exact")
    cases = [(g, a, eps) for g, a, _, eps in small_suite[:100]]
    # a seed inside a triangle that is a component of its own: quotient 0
    g = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6), (3, 5)])
    cases.append((g, VertexSet(g, [0, 1]), Fraction(2, 3)))
    seen = {"none": 0, "unbounded": 0, "zero": 0, "closed": 0}
    for g, a, eps in cases:
        probes.clear()
        res = local_improve(g, a, eps, solver="exact")
        _, least = brute_min_quotient(g, a, eps)
        assert res.improved == (least < 1)
        seen["unbounded"] += eps is None
        if not res.improved:
            seen["none"] += 1
            assert res.alpha_trace == [(Fraction(1), "full-flow")]
            continue
        cuts = [relative_quotient(g, a, r.cut, eps) for _, r in probes if not r.full_flow]
        assert min(cuts) == least
        if least == 0:
            seen["zero"] += 1
            assert res.phi == 0 and res.alpha_trace[-1][1] == "cut-found"
        else:
            seen["closed"] += 1
            assert res.alpha_trace[-1] == (least, "full-flow")
    assert min(seen.values()) >= 1, seen


def test_cut_certificates_verify():
    rng = random.Random(12)
    for _ in range(20):
        g, a, alpha, eps = random_instance(rng, nmax=10)
        res = local_improve(g, a, eps)
        if res.improved and res.certificate_flow.exact:
            ag = build(g, a, res.cut_alpha, eps)
            ok, phi = cut_certificate_check(ag, res.cut)
            assert ok and phi == res.phi
        elif not res.improved:
            assert routing_check(res.certificate_flow.flow).ok


@pytest.mark.parametrize("solver", ["approx", "exact"])
def test_warm_probes_match_cold_runs(small_suite, solver, monkeypatch):
    """Every probe after the first resumes the first probe and equals a cold run at its alpha.

    Every probe, warm or cold, keeps the locality cap ``3 vol(A)/sigma``.
    """
    cold = local_flow if solver == "approx" else local_flow_exact
    probes = []

    def spy(g, a, alpha, eps, **kwargs):
        res = cold(g, a, alpha, eps, **kwargs)
        probes.append((alpha, kwargs.get("start"), res))
        return res

    monkeypatch.setattr(improve_module, cold.__name__, spy)
    cases = [(g, a, overlap_for_sink_factor(eps)) for g, a, _, eps in small_suite[:150]]
    rng = random.Random(5150)
    g, b = two_cluster_graph(rng, 50, 62, 0.3, 3)
    a, _ = perturb_to_overlap(rng, g, b, Fraction(2, 3))
    cases.append((g, a, Fraction(2, 3)))
    ring = ring_of_cliques(2000, 10)
    for q in (0, 7000, 15000):
        cases.append((ring, VertexSet(ring, range(q, q + 10)), Fraction(1, 2)))
    resumed = 0
    for g, a, sigma in cases:
        probes.clear()
        res = local_improve_overlap(g, a, sigma, solver)
        assert [alpha for alpha, _, _ in probes] == [alpha for alpha, _ in res.alpha_trace]
        assert probes[0][1] is None, "the first probe has nothing to resume"
        first = probes[0][2]
        cap = 3 * a.volume / sigma
        for i, (alpha, start, got) in enumerate(probes):
            assert got.stats.touched_volume <= cap
            if i == 0:
                continue
            assert start is first and start.flow.ag.alpha == 1
            resumed += 1
            ref = cold(g, a, alpha, res.eps)
            assert got.cut == ref.cut and got.value == ref.value
            assert (got.full_flow, got.exact) == (ref.full_flow, ref.exact)
            assert got.flow.ag.scale == ref.flow.ag.scale
    assert resumed >= 50, f"only {resumed} probes resumed a flow"

