"""Seed expansion: approximate personalized-PageRank push plus a sweep cut.

This is deliberately minimal plumbing so a single starting vertex can be
turned into a seed set for the improvement drivers. The push loop is the
standard residual-threshold scheme with a FIFO queue, so identical inputs
always yield identical outputs. No quality guarantee is claimed here; the
guarantees belong to the improvement stage.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .errors import ParameterError
from .graphs import Graph, VertexSet, best_prefix

__all__ = ["ApprConfig", "appr_push", "sweep_cut"]


@dataclass(frozen=True)
class ApprConfig:
    """Push parameters.

    ``beta`` is the teleport probability; ``r_max`` the per-degree residual
    threshold below which a vertex is never pushed. When ``r_max`` is
    omitted it defaults to ``1 / (10 * volume_cap)``, and ``volume_cap``
    defaults to half the graph volume.
    """

    beta: float = 0.1
    r_max: float | None = None
    volume_cap: int | None = None

    def resolved_r_max(self, g: Graph) -> float:
        if self.r_max is not None:
            return self.r_max
        cap = self.volume_cap if self.volume_cap is not None else max(1, g.m)
        return 1 / (10 * cap)


def appr_push(
    g: Graph,
    seed_vertex: int,
    cfg: ApprConfig | None = None,
    *,
    return_residual: bool = False,
) -> dict[int, float] | tuple[dict[int, float], dict[int, float]]:
    """Approximate personalized-PageRank vector from one seed vertex.

    Runs lazy-walk pushes until every vertex satisfies
    ``residual(u) < r_max * deg(u)``. Returns the sparse score vector;
    when the tolerance is too coarse for any push to fire, the seed
    indicator is returned instead so the vector always has support.
    ``return_residual`` additionally exposes the exit residuals for
    diagnostics.

    Raises:
        ParameterError: on a seed vertex out of range, ``beta`` outside
            (0, 1), ``volume_cap`` below 1, or an ``r_max`` (given, or
            resolved from ``volume_cap``) that is not finite and positive.
    """
    cfg = cfg or ApprConfig()
    if not 0 <= seed_vertex < g.n:
        raise ParameterError(f"seed vertex {seed_vertex} out of range")
    if not 0.0 < cfg.beta < 1.0:
        raise ParameterError(f"beta must be in (0, 1), got {cfg.beta}")
    if cfg.volume_cap is not None and cfg.volume_cap < 1:
        raise ParameterError(f"volume_cap must be at least 1, got {cfg.volume_cap}")
    r_max = cfg.resolved_r_max(g)
    if not 0.0 < r_max < math.inf:
        source = "" if cfg.r_max is not None else f" (from volume_cap {cfg.volume_cap})"
        raise ParameterError(f"r_max must be finite and positive, got {r_max}{source}")
    beta = cfg.beta
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
    if return_residual:
        return scores, residual
    return scores


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
