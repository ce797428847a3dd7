"""Parameterized source/sink-augmented graph with exact integer capacities.

Given a seed set ``A``, a conductance target ``alpha`` and a sink-capacity
factor ``eps``, the augmented graph adds a super-source ``s`` with an arc
``s -> u`` of capacity ``deg(u)`` for every seed vertex, a super-sink ``t``
with an arc ``v -> t`` of capacity ``eps * deg(v)`` for every non-seed
vertex, and keeps every original edge as an undirected edge of capacity
``1/alpha``. Cuts of value below ``vol(A)`` witness sets of conductance
below ``alpha``, while a full-value flow is a routing certificate that no
set well-overlapping ``A`` can have small conductance.

Capacities are stored as exact integers after scaling by the least ``L``
that clears both denominators, so min-cut and max-flow values are exact.
``eps=None`` means an unbounded sink factor (the pure quotient-improvement
regime, ``sigma = 1``); it is realized by clamping sink capacities to the
total source capacity, which never changes any max flow.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import ParameterError
from .graphs import Graph, VertexSet, boundary_edges

__all__ = [
    "AugmentedGraph",
    "build",
    "epsilon_sigma",
    "least_scale",
    "min_feasible_sigma",
    "relative_quotient",
    "sink_factor_for_overlap",
    "overlap_for_sink_factor",
]


def least_scale(alpha: Fraction, eps: Fraction | None) -> int:
    """Smallest ``L`` making ``L / alpha`` and ``L * eps`` integral."""
    return alpha.numerator if eps is None else lcm(alpha.numerator, eps.denominator)


def min_feasible_sigma(g: Graph, a: VertexSet) -> Fraction:
    """Smallest overlap parameter whose sink factor fits this seed set."""
    vol_a = a.volume
    vol_rest = g.total_volume - vol_a
    return Fraction(3 * vol_a, 3 * vol_a + vol_rest)


def sink_factor_for_overlap(sigma: Fraction) -> Fraction | None:
    """``1 / (3 (1/sigma - 1))`` for ``sigma`` in (0, 1); ``None`` at 1."""
    if sigma == 1:
        return None
    return 1 / (3 * (1 / Fraction(sigma) - 1))


def overlap_for_sink_factor(eps: Fraction | None) -> Fraction:
    """Inverse of :func:`sink_factor_for_overlap`."""
    if eps is None:
        return Fraction(1)
    return 3 * Fraction(eps) / (1 + 3 * Fraction(eps))


def epsilon_sigma(sigma: Fraction, g: Graph, a: VertexSet) -> Fraction | None:
    """Sink-capacity factor for overlap parameter ``sigma`` on this instance.

    Validates that the resulting factor is at least ``vol(A)/vol(V-A)``,
    the range in which the full-value-flow certificate is sound.

    Raises:
        ParameterError: if ``sigma`` is outside (0, 1] or too small for
            this seed set (the message names the minimum feasible value).
    """
    sigma = Fraction(sigma)
    if not 0 < sigma <= 1:
        raise ParameterError(f"sigma must be in (0, 1], got {sigma}")
    eps = sink_factor_for_overlap(sigma)
    if eps is not None:
        vol_a = a.volume
        vol_rest = g.total_volume - vol_a
        if vol_rest == 0 or eps < Fraction(vol_a, vol_rest):
            raise ParameterError(
                f"sigma={sigma} infeasible for this seed set: "
                f"sigma must be at least {min_feasible_sigma(g, a)}"
            )
    return eps


def relative_quotient(
    g: Graph, a: VertexSet, s: VertexSet, eps: Fraction | None, boundary: int | None = None
) -> Fraction | None:
    """``|E(S, V-S)| / (vol(S & A) - eps * vol(S - A))``; ``None`` when undefined.

    A set is a cut of value below ``vol(A)`` in the augmented graph at
    ``alpha`` exactly when its quotient is below ``alpha``. The quotient is
    undefined when the denominator is not positive, which with ``eps=None``
    (unbounded sink factor) is every set reaching outside ``A``. Costs
    ``O(vol(S))``; ``boundary`` is ``|E(S, V-S)|`` when the caller has
    already counted it.
    """
    inter = sum(g.degree(u) for u in s if u in a)
    outside = s.volume - inter
    if eps is None:
        denom = Fraction(0 if outside else inter)
    else:
        denom = inter - eps * outside
    if denom <= 0:
        return None
    if boundary is None:
        boundary = boundary_edges(g, s)
    return boundary / denom


class AugmentedGraph:
    """Source/sink-augmented view of a base graph, at integer capacity scale ``L``.

    Instances are immutable and hold no per-vertex state: capacities are
    computed from degrees on demand, so construction cost is independent of
    graph size. Use :func:`build` to construct one.
    """

    __slots__ = ("graph", "seed", "alpha", "eps", "scale", "edge_cap_unit", "source_total")

    def __init__(self, graph: Graph, seed: VertexSet, alpha: Fraction, eps: Fraction | None):
        self.graph = graph
        self.seed = seed
        self.alpha = alpha
        self.eps = eps
        scale = least_scale(alpha, eps)
        self.scale = scale
        self.edge_cap_unit = scale * alpha.denominator // alpha.numerator
        self.source_total = scale * seed.volume

    @property
    def source_id(self) -> int:
        return self.graph.n

    @property
    def sink_id(self) -> int:
        return self.graph.n + 1

    def source_cap(self, u: int) -> int:
        """Scaled capacity of the arc ``s -> u`` for a seed vertex."""
        return self.scale * self.graph.degree(u)

    def sink_cap(self, v: int) -> int:
        """Scaled capacity of the arc ``v -> t``, clamped at total source capacity.

        The clamp is flow-equivalent since no flow can exceed the source
        total, and it keeps the unbounded-sink regime finite.
        """
        if self.eps is None:
            return self.source_total
        raw = self.scale * self.eps.numerator * self.graph.degree(v) // self.eps.denominator
        return min(raw, self.source_total)

    def __repr__(self) -> str:
        return (
            f"AugmentedGraph(n={self.graph.n}, |A|={len(self.seed)}, "
            f"alpha={self.alpha}, eps={self.eps}, L={self.scale})"
        )


def build(
    g: Graph,
    a: VertexSet,
    alpha: Fraction,
    eps: Fraction | None,
) -> AugmentedGraph:
    """Construct the augmented graph for seed set ``a`` at ``(alpha, eps)``.

    ``eps=None`` selects the unbounded sink factor. ``eps`` below
    ``vol(A)/vol(V-A)`` is accepted (the flow problem is still well posed,
    and small fixtures exercise it); the overlap-parameterized entry points
    enforce the certificate range.

    Raises:
        ParameterError: on an empty seed set, ``vol(A) > vol(V-A)``,
            ``alpha`` outside (0, 1], or a nonpositive ``eps``.
    """
    if len(a) == 0:
        raise ParameterError("seed set must be nonempty")
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    if eps is not None:
        eps = Fraction(eps)
        if eps <= 0:
            raise ParameterError(f"eps must be positive, got {eps}")
    if 2 * a.volume > g.total_volume:
        raise ParameterError(
            f"seed volume {a.volume} exceeds half the total volume "
            f"{g.total_volume}; pass the complement instead"
        )
    return AugmentedGraph(g, a, alpha, eps)
