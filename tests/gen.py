"""Shared instance builders for the test suite.

Everything takes an explicit ``random.Random`` (or is deterministic), so
any failure reproduces from the seed in the test.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from localcut import Graph, VertexSet
from localcut.augmented import sink_factor_for_overlap

from oracle import intersection

# named fixtures ------------------------------------------------------------


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def barbell() -> Graph:
    """Two triangles joined by a bridge: vertices 0-2 and 3-5, bridge 2-3."""
    return Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


# A certificate on the barbell, seeded with the triangle 0-2, that claims the
# seed's one boundary edge is at least alpha * vol(A) = 7. Its signed amounts
# tally to a routing that meets every demand and cap: each edge is written
# against its flow, so each load reads negative, under every cap of 1.
FORGED_CERTIFICATE = (
    "alpha 1\neps-sigma inf\nvol-a 7\nflow-value 7\n"
    "edge 2 0 -2\nedge 2 1 -2\nedge 3 2 -7\n"
)


def asym_barbell() -> Graph:
    """Triangle 0-2 bridged to a K7 on 3-9; the triangle has volume 7."""
    edges = [(0, 1), (0, 2), (1, 2), (2, 3)]
    edges += [(i, j) for i in range(3, 10) for j in range(i + 1, 10)]
    return Graph(10, edges)


def ring_of_cliques(num: int, size: int) -> Graph:
    """``num`` cliques of ``size`` vertices; vertex 0 of each joins the next."""
    i, j = np.triu_indices(size, k=1)
    base = (np.arange(num) * size)[:, None]
    us = (base + i).ravel()
    vs = (base + j).ravel()
    ring_u = np.arange(num) * size
    ring_v = ((np.arange(num) + 1) % num) * size
    edges = np.column_stack(
        [np.concatenate([us, ring_u]), np.concatenate([vs, ring_v])]
    )
    return Graph(num * size, edges)


# random families ------------------------------------------------------------


def random_multigraph(rng: random.Random, n: int, m: int) -> Graph:
    """Random multigraph with no isolated vertices (duplicates kept)."""
    edges: list[tuple[int, int]] = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((u, v))
    used = {u for e in edges for u in e}
    for u in range(n):
        if u not in used:
            v = rng.choice([x for x in range(n) if x != u])
            edges.append((u, v))
    return Graph(n, edges)


def random_instance(
    rng: random.Random, nmax: int = 14, alpha_cap: Fraction = Fraction(5, 8)
):
    """Random (graph, seed set, alpha, eps) with a feasible sink factor.

    ``alpha`` is dyadic and capped below 5/8 so the phase budget always
    exceeds the worst-case Dinic phase count on these sizes, keeping the
    approximate solver on its exact branch.
    """
    while True:
        n = rng.randint(4, nmax)
        m_hi = max(n, min(3 * n, 30 if nmax <= 14 else 3 * nmax))
        g = random_multigraph(rng, n, rng.randint(n - 1, m_hi))
        k = rng.randint(1, max(1, n // 3))
        a = VertexSet(g, rng.sample(range(n), k))
        if a.volume == 0 or 2 * a.volume > g.total_volume:
            continue
        den = rng.choice([2, 4, 8, 16])
        num = rng.randint(1, max(1, int(den * alpha_cap)))
        alpha = Fraction(num, den)
        vol_rest = g.total_volume - a.volume
        sigmas = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)]
        rng.shuffle(sigmas)
        for sigma in sigmas:
            eps = sink_factor_for_overlap(sigma)
            if eps is None or eps >= Fraction(a.volume, vol_rest):
                return g, a, alpha, eps


def two_cluster_graph(
    rng: random.Random, k1: int, k2: int, p: float, bridges: int
) -> tuple[Graph, VertexSet]:
    """Two G(k, p)-style clusters joined by ``bridges`` edges.

    Returns the graph and the first cluster (the planted set B, always the
    side of smaller volume). Both clusters are forced connected by a cycle
    backbone so the planted conductance is exactly ``bridges / vol(B)``.
    """
    for _ in range(50):
        edges: list[tuple[int, int]] = []
        for base, k in ((0, k1), (k1, k2)):
            for i in range(k):
                edges.append((base + i, base + (i + 1) % k))
            for i in range(k):
                for j in range(i + 2, k):
                    if (i, j) == (0, k - 1):
                        continue
                    if rng.random() < p:
                        edges.append((base + i, base + j))
        for _ in range(bridges):
            edges.append((rng.randrange(k1), k1 + rng.randrange(k2)))
        g = Graph(k1 + k2, edges)
        b = VertexSet(g, range(k1))
        if 2 * b.volume <= g.total_volume:
            return g, b
    raise AssertionError("planted side kept outweighing the rest; widen k2")


def perturb_to_overlap(
    rng: random.Random, g: Graph, b: VertexSet, target: Fraction
) -> tuple[VertexSet, Fraction]:
    """Shrink ``b`` until its volume overlap with ``b`` hits ``target``.

    Removes random vertices while the remaining volume stays at least
    ``target * vol(b)``; returns the seed set and the exact overlap
    ``vol(A)/vol(B)``.
    """
    ids = list(b.ids)
    rng.shuffle(ids)
    vol_b = b.volume
    keep = list(ids)
    vol = vol_b
    for u in ids:
        if len(keep) == 1:
            break
        du = g.degree(u)
        if Fraction(vol - du, vol_b) >= target:
            keep.remove(u)
            vol -= du
    a = VertexSet(g, keep)
    return a, Fraction(a.volume, vol_b)


def planted_alpha_star(
    g: Graph, a: VertexSet, s_star: VertexSet, eps: Fraction
) -> Fraction:
    """Exact threshold above which the planted set satisfies the probe inequality."""
    from localcut import boundary_edges

    inter = intersection(s_star, a).volume
    outside = s_star.volume - inter
    denom = Fraction(inter) - Fraction(eps) * outside
    assert denom > 0, "planted set must overlap the seed enough"
    return Fraction(boundary_edges(g, s_star)) / denom


def random_edge_array(seed: int, n: int, m: int) -> np.ndarray:
    """``m`` uniform random edges on ``n >= 2`` vertices as an int64 ``(m, 2)`` array.

    Repeated pairs are kept as parallel edges; self-loops are redrawn by
    shifting the second end.
    """
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2), dtype=np.int64)
    loops = edges[:, 0] == edges[:, 1]
    edges[loops, 1] = (edges[loops, 1] + rng.integers(1, n, size=int(loops.sum()))) % n
    return edges
