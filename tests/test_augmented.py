import random
from fractions import Fraction

import pytest

from localcut import (
    Graph,
    InvariantViolation,
    NotACertificateError,
    ParameterError,
    VertexSet,
    build,
    epsilon_sigma,
    min_feasible_sigma,
)

from gen import asym_barbell, barbell, random_instance
from oracle import (
    cut_certificate_check,
    cut_value,
    flow_certificate_bound,
    intersection,
    reference_max_flow,
)


def tri_instance(alpha=Fraction(1, 2), eps=Fraction(1, 3)):
    g = barbell()
    a = VertexSet(g, [0, 1, 2])
    return g, a, build(g, a, alpha, eps)


def test_epsilon_sigma_values():
    g = asym_barbell()
    a = VertexSet(g, [0, 1, 2])
    assert epsilon_sigma(Fraction(1, 2), g, a) == Fraction(1, 3)
    assert epsilon_sigma(Fraction(2, 3), g, a) == Fraction(2, 3)
    assert epsilon_sigma(Fraction(3, 4), g, a) == 1
    assert epsilon_sigma(Fraction(1), g, a) is None  # unbounded sink factor


def test_epsilon_sigma_range_errors():
    g = barbell()
    a = VertexSet(g, [0, 1, 2])  # vol(A) = vol(V-A): only sigma >= 3/4 fits
    with pytest.raises(ParameterError, match="at least"):
        epsilon_sigma(Fraction(1, 2), g, a)
    assert epsilon_sigma(Fraction(3, 4), g, a) == 1
    assert min_feasible_sigma(g, a) == Fraction(3, 4)
    with pytest.raises(ParameterError):
        epsilon_sigma(Fraction(3, 2), g, a)


def test_capacity_scale_examples():
    _, _, ag = tri_instance()
    assert ag.scale == 3
    assert ag.edge_cap_unit == 6
    assert ag.source_cap(0) == 3 * 2
    assert ag.sink_cap(3) == 3  # deg(3) = 3, eps = 1/3
    g = barbell()
    a = VertexSet(g, [0, 1, 2])
    unit = build(g, a, Fraction(1), Fraction(1))
    assert unit.scale == 1
    assert unit.edge_cap_unit == 1
    mqi = build(g, a, Fraction(1), None)
    assert mqi.scale == 1
    assert all(mqi.sink_cap(v) == a.volume for v in (3, 4, 5))


def test_sink_clamp_on_finite_eps():
    g = barbell()
    a = VertexSet(g, [0])  # vol(A) = 2
    ag = build(g, a, Fraction(1), Fraction(2))
    # eps*deg(3) = 6 > vol(A) = 2: clamped to the source total
    assert ag.sink_cap(3) == ag.source_total == 2 * ag.scale
    assert ag.scale * ag.eps * g.degree(3) > ag.sink_cap(3)


def test_build_preconditions():
    g = barbell()
    a = VertexSet(g, [0, 1, 2])
    with pytest.raises(ParameterError):
        build(g, VertexSet(g, []), Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(ParameterError):
        build(g, a, Fraction(0), Fraction(1, 3))
    with pytest.raises(ParameterError):
        build(g, a, Fraction(3, 2), Fraction(1, 3))
    with pytest.raises(ParameterError):
        build(g, a, Fraction(1, 2), Fraction(0))
    big = VertexSet(g, [0, 1, 2, 3])
    with pytest.raises(ParameterError, match="half"):
        build(g, big, Fraction(1, 2), Fraction(1, 3))


def test_cut_value_examples():
    g, a, ag = tri_instance()
    assert cut_value(ag, []) == a.volume == 7
    assert cut_value(ag, a) == 2  # one bridge edge at capacity 1/alpha = 2
    assert cut_value(ag, range(6)) == Fraction(1, 3) * 7


def test_cut_value_rearrangement_identity():
    rng = random.Random(3)
    for _ in range(40):
        g, a, alpha, eps = random_instance(rng, nmax=9)
        if eps is None:
            continue
        ag = build(g, a, alpha, eps)
        clamped = any(
            eps * g.degree(v) > a.volume for v in range(g.n) if v not in a
        )
        if clamped:
            continue
        vol_a = a.volume
        for trial in range(20):
            s = VertexSet(g, rng.sample(range(g.n), rng.randint(0, g.n)))
            inter = intersection(s, a).volume
            outside = s.volume - inter
            from localcut import boundary_edges

            cross = boundary_edges(g, s)
            direct = Fraction(cross) / alpha + (vol_a - inter) + eps * outside
            rearranged = vol_a - (inter - eps * outside - Fraction(cross) / alpha)
            assert cut_value(ag, s) == direct == rearranged


def test_max_flow_bounded_by_source_total(small_suite):
    for g, a, alpha, eps in small_suite[:60]:
        ag = build(g, a, alpha, eps)
        fs, _ = reference_max_flow(ag)
        assert fs.value <= ag.source_total


def test_cut_certificate_check():
    g, a, ag = tri_instance()
    ok, phi = cut_certificate_check(ag, a)
    assert ok and phi == Fraction(1, 7) < Fraction(1, 2)
    with pytest.raises(NotACertificateError):
        cut_certificate_check(ag, VertexSet(g, []))  # value == vol(A)
    # a set with cut value above vol(A)
    with pytest.raises(NotACertificateError):
        cut_certificate_check(ag, VertexSet(g, [4]))


def test_cut_certificate_reverifies_conductance():
    # eps far below vol(A)/vol(V-A) can break the certificate guarantee on the
    # complement side; the check must catch that instead of certifying
    g = barbell()
    a = VertexSet(g, [0, 1, 2])
    ag = build(g, a, Fraction(1, 8), Fraction(1, 100))
    s = VertexSet(g, [0, 1, 2, 3, 4])  # vol(S) > vol(V-S)
    if cut_value(ag, s) < a.volume:
        with pytest.raises(InvariantViolation):
            cut_certificate_check(ag, s)


def test_flow_certificate_bound():
    g = asym_barbell()
    a = VertexSet(g, [0, 1, 2])
    ag = build(g, a, Fraction(1, 2), Fraction(1, 3))
    inside = VertexSet(g, [0, 1])  # fully inside A
    assert flow_certificate_bound(ag, inside) == Fraction(1, 2)
    disjoint = VertexSet(g, [5, 6])
    assert flow_certificate_bound(ag, disjoint) == -Fraction(1, 2) * Fraction(1, 3)
    with pytest.raises(ParameterError):
        flow_certificate_bound(ag, VertexSet(g, []))
    # an isolated vertex is a nonempty set of volume 0
    g = Graph(4, [(0, 1), (1, 3), (3, 0)])
    ag = build(g, VertexSet(g, [0]), Fraction(1), Fraction(1, 100))
    with pytest.raises(ParameterError, match="volume 0"):
        flow_certificate_bound(ag, VertexSet(g, [2]))


def test_flow_certificate_bound_dominates_overlap_rate():
    # any set with overlap delta >= sigma gets at least (2 alpha / 3) delta
    rng = random.Random(11)
    for _ in range(30):
        g, a, alpha, eps = random_instance(rng, nmax=10)
        if eps is None:
            continue
        sigma = 3 * eps / (1 + 3 * eps)
        ag = build(g, a, alpha, eps)
        for _ in range(10):
            s = VertexSet(g, rng.sample(range(g.n), rng.randint(1, g.n)))
            if s.volume == 0:
                continue
            delta = Fraction(intersection(s, a).volume, s.volume)
            if delta >= sigma:
                bound = flow_certificate_bound(ag, s)
                assert bound >= Fraction(2, 3) * alpha * delta
