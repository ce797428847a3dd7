import itertools
import random
from fractions import Fraction

import pytest

from localcut import (
    ParameterError,
    VertexSet,
    build,
    conductance,
)
from localcut.augmented import relative_quotient

from gen import barbell, complete_graph, cycle_graph, random_instance
from oracle import (
    brute_min_conductance,
    brute_min_cut_value,
    brute_min_quotient,
    cut_value,
    eval_condition_41,
    reference_max_flow,
)


def test_min_conductance_barbell():
    g = barbell()
    s, phi = brute_min_conductance(g)
    assert phi == Fraction(1, 7)
    assert s.ids in ((0, 1, 2), (3, 4, 5))


def test_min_conductance_second_enumeration_order():
    # re-derive by a straight itertools enumeration as an independent oracle
    g = barbell()
    best = min(
        (
            conductance(g, VertexSet(g, combo))
            for r in range(1, g.n)
            for combo in itertools.combinations(range(g.n), r)
        ),
    )
    assert best == brute_min_conductance(g)[1]


def test_min_conductance_complete_and_cycle():
    s, phi = brute_min_conductance(complete_graph(4))
    assert phi == Fraction(2, 3)
    assert brute_min_conductance(cycle_graph(4))[1] == Fraction(1, 2)


def test_min_conductance_volume_cap():
    g = barbell()
    s, phi = brute_min_conductance(g, max_vol=2)
    assert s.volume <= 2
    assert phi == conductance(g, s)


def test_size_guard():
    from gen import random_multigraph

    g = random_multigraph(random.Random(0), 21, 30)
    with pytest.raises(ParameterError, match="capped"):
        brute_min_conductance(g)


def test_min_cut_value_barbell():
    g = barbell()
    a = VertexSet(g, [0, 1, 2])
    ag = build(g, a, Fraction(1, 2), Fraction(1, 3))
    s, value = brute_min_cut_value(ag)
    assert s.ids == (0, 1, 2)
    assert value == 2


def test_min_cut_value_never_exceeds_seed_volume(small_suite):
    for g, a, alpha, eps in small_suite[:80]:
        ag = build(g, a, alpha, eps)
        _, value = brute_min_cut_value(ag)
        assert value <= a.volume


def test_min_cut_matches_exhaustive_subsets():
    rng = random.Random(2)
    for _ in range(25):
        g, a, alpha, eps = random_instance(rng, nmax=8)
        ag = build(g, a, alpha, eps)
        _, value = brute_min_cut_value(ag)
        exhaustive = min(
            cut_value(ag, combo)
            for r in range(g.n + 1)
            for combo in itertools.combinations(range(g.n), r)
        )
        assert value == exhaustive


def test_min_quotient_matches_exhaustive_subsets():
    """The Gray-code scan agrees with enumerating subsets, and the quotient is the threshold."""
    rng = random.Random(3)
    for _ in range(25):
        g, a, _, eps = random_instance(rng, nmax=8)
        s, least = brute_min_quotient(g, a, eps)
        quotients = {}
        for r in range(1, g.n + 1):
            for combo in itertools.combinations(range(g.n), r):
                sub = VertexSet(g, combo)
                q = relative_quotient(g, a, sub, eps)
                if q is not None:
                    quotients[combo] = q
                    # the planted-set inequality holds exactly above the quotient
                    assert not eval_condition_41(g, a, sub, q, eps)
                    assert eval_condition_41(g, a, sub, q + Fraction(1, 10**6), eps)
        assert least == min(quotients.values()) == quotients[s.ids]


def test_condition_41_examples():
    g = barbell()
    a = VertexSet(g, [0, 1, 2])
    assert eval_condition_41(g, a, a, Fraction(1, 2), Fraction(1, 3))
    disjoint = VertexSet(g, [4, 5])
    assert not eval_condition_41(g, a, disjoint, Fraction(1, 2), Fraction(1, 3))
    # S* = A with full overlap: true exactly when boundary/vol < alpha
    assert eval_condition_41(g, a, a, Fraction(1, 7), None) is False
    assert eval_condition_41(g, a, a, Fraction(1, 2), None) is True


def test_condition_41_matches_cut_value_threshold(small_suite):
    # the inequality is exactly "augmented cut value below vol(A)"
    for g, a, alpha, eps in small_suite[:60]:
        ag = build(g, a, alpha, eps)
        rng = random.Random(g.n * 31 + a.volume)
        clamped = eps is None or any(
            eps * g.degree(v) > a.volume for v in range(g.n) if v not in a
        )
        if clamped:
            continue
        for _ in range(12):
            s = VertexSet(g, rng.sample(range(g.n), rng.randint(1, g.n)))
            assert eval_condition_41(g, a, s, alpha, eps) == (
                cut_value(ag, s) < a.volume
            )


def test_duality_on_suite(small_suite):
    for g, a, alpha, eps in small_suite[:120]:
        ag = build(g, a, alpha, eps)
        fs, _ = reference_max_flow(ag)
        _, value = brute_min_cut_value(ag)
        assert fs.flow_value == value
