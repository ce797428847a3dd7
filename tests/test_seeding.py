import random
from fractions import Fraction

import pytest

from localcut import (
    Graph,
    ParameterError,
    VertexSet,
    appr_push,
    conductance,
    sweep_cut,
)

from gen import asym_barbell, complete_graph, random_multigraph


def test_two_vertex_closed_form():
    g = Graph(2, [(0, 1)])
    beta = 0.3
    scores, residual = appr_push(g, 0, beta=beta, volume_cap=10**7)  # threshold 1e-8
    # stationary push limit: p = beta + (1-beta)/2 at the seed
    exact = (beta + (1 - beta) / 2, (1 - beta) / 2)
    slack = sum(residual.values())
    assert abs(scores[0] - exact[0]) <= slack
    assert abs(scores[1] - exact[1]) <= slack
    assert slack < 1e-6


def test_coarse_tolerance_returns_indicator():
    # the seed's degree 11 exceeds 10 * volume_cap, so its unit residual is below the threshold
    g = complete_graph(12)
    assert appr_push(g, 2, volume_cap=1)[0] == {2: 1.0}


def test_residual_invariant_at_exit():
    rng = random.Random(6)
    for _ in range(20):
        g = random_multigraph(rng, rng.randint(3, 20), 30)
        seed = rng.randrange(g.n)
        scores, residual = appr_push(g, seed, beta=0.15, volume_cap=g.m)
        r_max = 1 / (10 * g.m)
        for u, r in residual.items():
            if g.degree(u) > 0:
                assert r < r_max * g.degree(u)


def test_push_refuses_a_volume_cap_whose_threshold_underflows():
    g = complete_graph(5)
    with pytest.raises(ParameterError, match=r"^volume_cap is too large: .* is 0$"):
        appr_push(g, 0, volume_cap=10**400)


def test_sweep_on_triangle_support():
    g = asym_barbell()
    out = sweep_cut(g, {0: 0.5, 1: 0.4, 2: 0.3})
    assert out.ids == (0, 1, 2)
    assert conductance(g, out) == Fraction(1, 7)


def test_sweep_uniform_scores_matches_bruteforce_prefix():
    rng = random.Random(14)
    for _ in range(15):
        g = random_multigraph(rng, rng.randint(4, 10), 16)
        scores = {u: 1.0 for u in range(g.n) if g.degree(u)}
        out = sweep_cut(g, scores)
        # oracle: best prefix of the same deterministic order
        order = sorted(scores, key=lambda u: (-1.0 / g.degree(u), u))
        best = None
        for k in range(1, len(order) + 1):
            s = VertexSet(g, order[:k])
            if 2 * s.volume > g.total_volume:
                break
            phi = conductance(g, s)
            if best is None or phi < best[0]:
                best = (phi, k)
        assert out.ids == tuple(sorted(order[: best[1]]))


def test_sweep_single_vertex_support():
    g = asym_barbell()
    assert sweep_cut(g, {4: 1.0}).ids == (4,)


def test_sweep_rejects_empty_support():
    g = asym_barbell()
    with pytest.raises(ParameterError):
        sweep_cut(g, {})


def test_push_determinism():
    rng = random.Random(3)
    g = random_multigraph(rng, 30, 70)
    a, _ = appr_push(g, 7)
    b, _ = appr_push(g, 7)
    assert a == b
    assert sweep_cut(g, a).ids == sweep_cut(g, b).ids


def test_sweep_volume_stays_within_half():
    rng = random.Random(9)
    for _ in range(20):
        g = random_multigraph(rng, rng.randint(4, 16), 30)
        seed = rng.randrange(g.n)
        if g.degree(seed) == 0:
            continue
        out = sweep_cut(g, appr_push(g, seed)[0])
        assert 0 < len(out)
        assert 2 * out.volume <= g.total_volume
