"""Benchmark-owned instance generators and a reference edge index.

The generators draw the instance families the acceptance suite uses,
kept here so that an edit to the test helpers cannot silently change a
benchmark workload. They return plain numpy edge arrays; the program
under test receives only those arrays (or files written from them).

:class:`EdgeIndex` is the benchmark's own adjacency over the same arrays.
Output checks recompute degrees, volumes and conductances with it, never
with the program's graph code.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import numpy as np


class EdgeIndex:
    """Adjacency over an undirected edge array: int32 neighbors grouped by vertex."""

    __slots__ = ("n", "m", "off", "nbr")

    def __init__(self, n: int, edges: np.ndarray):
        tails = np.concatenate([edges[:, 0], edges[:, 1]]).astype(np.int32)
        heads = np.concatenate([edges[:, 1], edges[:, 0]]).astype(np.int32)
        order = np.argsort(tails, kind="stable")
        self.nbr = heads[order]
        del tails, heads, order
        deg = np.bincount(edges.ravel(), minlength=n)
        self.off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=self.off[1:])
        self.n = n
        self.m = len(edges)

    @property
    def total_volume(self) -> int:
        return 2 * self.m

    def degree(self, u: int) -> int:
        return int(self.off[u + 1] - self.off[u])

    def volume(self, ids) -> int:
        return sum(self.degree(u) for u in set(ids))

    def boundary(self, ids) -> int:
        members = set(ids)
        off, nbr = self.off, self.nbr
        return sum(
            1 for u in members for v in nbr[off[u] : off[u + 1]].tolist() if v not in members
        )

    def conductance(self, ids) -> Fraction:
        vol = self.volume(ids)
        return Fraction(self.boundary(ids), min(vol, self.total_volume - vol))


@lru_cache(maxsize=None)
def _chord_slots(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex pairs of a ``k``-cycle that are not cycle edges, row by row."""
    i, j = np.triu_indices(k, 2)
    keep = ~((i == 0) & (j == k - 1))
    return i[keep], j[keep]


def two_cluster(
    rng: random.Random, k1: int, k2: int, p: float, bridges: int
) -> tuple[int, np.ndarray, list[int]]:
    """Two random clusters of ``k1`` and ``k2`` vertices joined by ``bridges`` edges.

    Each cluster is a cycle backbone plus independent chords of
    probability ``p``, so the planted set ``range(k1)`` is connected and
    its conductance is exactly ``bridges / vol(B)``. Redraws until the
    planted side has at most half the total volume. The family is the
    acceptance suite's ``two_cluster_graph``, drawn with numpy from a seed
    taken from ``rng``, so that generation stays a small part of set-up.
    Returns ``(n, edges, planted ids)``.
    """
    draw = np.random.default_rng(rng.getrandbits(64))
    for _ in range(50):
        parts = []
        for base, k in ((0, k1), (k1, k2)):
            ring = np.arange(k)
            parts.append(np.column_stack([ring, (ring + 1) % k]) + base)
            i, j = _chord_slots(k)
            chord = draw.random(len(i)) < p
            parts.append(np.column_stack([i[chord], j[chord]]) + base)
        parts.append(np.column_stack([draw.integers(k1, size=bridges), k1 + draw.integers(k2, size=bridges)]))
        arr = np.concatenate(parts).astype(np.int64)
        deg = np.bincount(arr.ravel(), minlength=k1 + k2)
        if 2 * int(deg[:k1].sum()) <= 2 * len(arr):
            return k1 + k2, arr, list(range(k1))
    raise RuntimeError("planted side kept outweighing the rest; widen k2")


def perturb_to_overlap(
    rng: random.Random, deg: np.ndarray, b: list[int], target: Fraction
) -> tuple[list[int], Fraction]:
    """Shrink ``b`` at random while ``vol(A)/vol(B)`` stays at least ``target``.

    ``deg`` holds the vertex degrees. Returns the seed ids (sorted) and the
    exact overlap ``vol(A)/vol(B)``.
    """
    ids = sorted(b)
    rng.shuffle(ids)
    vol_b = int(deg[b].sum())
    keep = list(ids)
    vol = vol_b
    for u in ids:
        if len(keep) == 1:
            break
        du = int(deg[u])
        if Fraction(vol - du, vol_b) >= target:
            keep.remove(u)
            vol -= du
    return sorted(keep), Fraction(vol, vol_b)


def ring_of_cliques(num: int, size: int) -> np.ndarray:
    """Edges of ``num`` cliques of ``size`` vertices; vertex 0 of each joins the next."""
    i, j = np.triu_indices(size, k=1)
    base = (np.arange(num) * size)[:, None]
    us = (base + i).ravel()
    vs = (base + j).ravel()
    ring_u = np.arange(num) * size
    ring_v = ((np.arange(num) + 1) % num) * size
    return np.column_stack([np.concatenate([us, ring_u]), np.concatenate([vs, ring_v])])


def ring_query(rng: random.Random, num: int, size: int) -> tuple[int, tuple[int, int]]:
    """Draw a clique index below ``num`` and the offsets of two members to drop."""
    return rng.randrange(num), tuple(rng.sample(range(size), 2))


def ring_seed(
    c: int, drop: tuple[int, int], num: int, size: int
) -> tuple[list[int], list[int]]:
    """Clique ``c`` without the members at offsets ``drop``, plus the next clique's hub.

    Returns ``(seed ids, clique ids)``; the clique is the planted set the
    output is compared against. Rings are homogeneous, so the same ``c``
    and ``drop`` give the same local problem on rings of any length.
    """
    clique = list(range(c * size, (c + 1) * size))
    seed = [v for i, v in enumerate(clique) if i not in drop] + [((c + 1) % num) * size]
    return sorted(seed), clique
