import random
from fractions import Fraction

from localcut import (
    VertexSet,
    build,
    local_flow,
    local_flow_exact,
)

from gen import barbell, random_instance
from oracle import reference_max_flow


def test_exact_solver_barbell():
    g = barbell()
    a = VertexSet(g, [0, 1, 2])
    res = local_flow_exact(g, a, Fraction(1, 2), Fraction(1, 3))
    assert res.exact
    assert res.value == 2
    assert res.cut.ids == (0, 1, 2)


def test_exact_solver_differential(small_suite):
    for g, a, alpha, eps in small_suite[:200]:
        ag = build(g, a, alpha, eps)
        res = local_flow_exact(g, a, alpha, eps)
        ref, ref_cut = reference_max_flow(ag)
        assert res.flow.value == ref.value
        assert res.cut == ref_cut
        # three-way agreement with the approximate solver's exact branch
        approx = local_flow(g, a, alpha, eps)
        if approx.exact:
            assert approx.flow.value == res.flow.value


def test_exact_solver_differential_up_to_thirty_vertices():
    rng = random.Random(77)
    for _ in range(200):
        g, a, alpha, eps = random_instance(rng, nmax=30)
        res = local_flow_exact(g, a, alpha, eps)
        ref, ref_cut = reference_max_flow(build(g, a, alpha, eps))
        assert res.flow.value == ref.value
        assert res.cut == ref_cut


def test_delta_floor_terminates():
    # a path seeded at one end: the smallest source total, vol(A) = 1
    from gen import path_graph

    g = path_graph(6)
    a = VertexSet(g, [0])
    res = local_flow_exact(g, a, Fraction(1), Fraction(1))
    ref, _ = reference_max_flow(build(g, a, Fraction(1), Fraction(1)))
    assert res.flow.value == ref.value


def test_zero_length_cycle_contraction():
    # a path of 1-4 parallel edges per link plus random chords: flow
    # circulates along high-capacity multi-edges in both directions, and
    # the solver must still match the oracle's value and minimal min cut
    from localcut import Graph

    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(5, 9)
        edges = []
        for i in range(n - 1):
            edges += [(i, i + 1)] * rng.randint(1, 4)
        for _ in range(n):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v))
        g = Graph(n, edges)
        k = rng.randint(1, max(1, n // 3))
        a = VertexSet(g, rng.sample(range(n), k))
        if a.volume == 0 or 2 * a.volume > g.total_volume:
            continue
        eps = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        if eps < Fraction(a.volume, g.total_volume - a.volume):
            continue
        alpha = Fraction(rng.randint(1, 8), 8)
        res = local_flow_exact(g, a, alpha, eps)
        ref, ref_cut = reference_max_flow(build(g, a, alpha, eps))
        assert res.flow.value == ref.value
        assert res.cut == ref_cut
