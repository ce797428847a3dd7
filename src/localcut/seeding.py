"""Seed expansion: approximate personalized-PageRank push plus a sweep cut.

This is deliberately minimal plumbing so a single starting vertex can be
turned into a seed set for the improvement drivers. The push loop is the
standard residual-threshold scheme with a FIFO queue, so identical inputs
always yield identical outputs. No quality guarantee is claimed here; the
guarantees belong to the improvement stage.
"""

from __future__ import annotations

from collections import deque

from .errors import ParameterError
from .graphs import Graph, VertexSet, best_prefix

__all__ = ["appr_push", "sweep_cut"]


def appr_push(
    g: Graph,
    seed_vertex: int,
    *,
    beta: float = 0.1,
    volume_cap: int | None = None,
) -> tuple[dict[int, float], dict[int, float]]:
    """Approximate personalized-PageRank vector from one seed vertex.

    Runs lazy-walk pushes with teleport probability ``beta`` until every
    vertex has ``residual(u) < r_max * deg(u)``, at the threshold
    ``r_max = 1 / (10 * volume_cap)``; ``volume_cap`` defaults to ``m``.
    ``volume_cap`` sets only this threshold, not the volume of the output.
    A push at ``u`` moves at least ``beta * r_max * deg(u)`` of the unit
    mass into the scores, so the pushed volume is at most
    ``1 / (beta * r_max)`` (Andersen, Chung, Lang).

    Returns ``(scores, residual)``, the residual being the scores' error
    term. If no push fires, the scores are the seed indicator.

    Raises:
        ParameterError: on a seed vertex out of range, ``beta`` outside
            (0, 1), ``volume_cap`` below 1, or a ``volume_cap`` so large
            that its threshold underflows to 0.
    """
    if not 0 <= seed_vertex < g.n:
        raise ParameterError(f"seed vertex {seed_vertex} out of range")
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must be in (0, 1), got {beta}")
    if volume_cap is None:
        volume_cap = max(1, g.m)
    elif volume_cap < 1:
        raise ParameterError(f"volume_cap must be at least 1, got {volume_cap}")
    r_max = 1 / (10 * volume_cap)
    if not r_max > 0.0:
        raise ParameterError("volume_cap is too large: its threshold 1/(10 * volume_cap) is 0")
    scores: dict[int, float] = {}
    residual: dict[int, float] = {seed_vertex: 1.0}
    queue: deque[int] = deque([seed_vertex])
    queued = {seed_vertex}
    while queue:
        u = queue.popleft()
        queued.discard(u)
        deg = g.degree(u)
        r = residual.get(u, 0.0)
        if deg == 0 or r < r_max * deg:
            continue
        scores[u] = scores.get(u, 0.0) + beta * r
        keep = (1.0 - beta) * r / 2.0
        residual[u] = keep
        share = keep / deg
        for v in g.adjacent(u):
            rv = residual.get(v, 0.0) + share
            residual[v] = rv
            if v not in queued and rv >= r_max * g.degree(v):
                queue.append(v)
                queued.add(v)
        if keep >= r_max * deg and u not in queued:
            queue.append(u)
            queued.add(u)
    if not scores:
        scores = {seed_vertex: 1.0}
    return scores, residual


def sweep_cut(g: Graph, scores: dict[int, float]) -> VertexSet:
    """Best-conductance prefix of the degree-normalized score order.

    Vertices with positive score are ordered by ``score/deg`` descending
    (ties by id); among prefixes of volume at most half the graph volume,
    the one with the smallest conductance wins, earliest prefix on ties.

    Raises:
        ParameterError: on empty support, or when even the first vertex
            exceeds half the graph volume.
    """
    support = [u for u, x in scores.items() if x > 0.0 and g.degree(u) > 0]
    if not support:
        raise ParameterError("sweep requires a nonempty score support")
    support.sort(key=lambda u: (-scores[u] / g.degree(u), u))
    best = best_prefix(g, ([u] for u in support), g.total_volume // 2)
    if best is None:
        raise ParameterError("no sweep prefix fits within half the graph volume")
    return VertexSet(g, best)
