"""Localized Dinic over the augmented graph, phase-capped or run to completion.

The solver runs blocking-flow phases while materializing only the seed
set, the saturated set (non-seed vertices whose sink arc filled up), and
their immediate frontier. The flow state's opened set is the seed plus
the saturated set and the only record of either: a vertex joins the
saturated set by being opened (:func:`update_saturated_set`).

If a phase ever fails to augment, the flow is an exact maximum flow and
the residual reachability is a minimum cut. If the phase budget runs out
first, the best layer cut of the final residual distance labels is
returned instead; its conductance is below twice the capacity parameter
whenever the budget was the configured one.

The exact solver (:func:`localcut.exact_flow.local_flow_exact`) is the
same loop with no budget. It terminates because every phase raises the
sink's distance by at least one, and that distance is at most the number
of materialized vertices minus one, so an uncapped run ends within that
many phases; the loop raises ``InvariantViolation`` rather than spin past
it. The minimum cut it returns is the source side of residual
reachability: the unique minimal minimum cut, whichever maximum flow
produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Context, Decimal
from fractions import Fraction
from typing import Callable

from .augmented import AugmentedGraph, build, overlap_for_sink_factor
from .errors import InvariantViolation
from .flow import DistanceLabels, FlowState, bfs_distances, blocking_flow, check_label_monotone
from .graphs import Graph, VertexSet

__all__ = [
    "SaturatedRecord",
    "LayerCutResult",
    "LocalFlowResult",
    "update_saturated_set",
    "iteration_bound",
    "phase_budget",
    "local_flow",
]


def update_saturated_set(fs: FlowState) -> list[int]:
    """Open the frontier vertices whose sink arc just filled; they join the saturated set.

    The saturated set is ``fs.opened`` minus the seed, so opening a vertex
    is what adds it, and its edges join the local view. Returns the newly
    opened vertices (sorted). Once the flow has its full value no phase can
    follow, so nothing is opened: a sink arc that fills on the push
    completing the flow stays out of the set.

    Raises:
        InvariantViolation: if the saturated volume exceeds ``vol(A)/eps``.
            Each member absorbed ``eps * deg`` units of a flow of at most
            ``vol(A)``, and a clamped sink (capacity ``vol(A)``) fills only
            as the flow completes, so this would indicate a flow bug.
    """
    ag = fs.ag
    opened = fs.opened
    if fs.value == ag.source_total:
        fresh = []
    else:
        fresh = sorted(v for v in set(fs.newly_saturated) if v not in opened)
    fs.newly_saturated.clear()
    for v in fresh:
        fs.open_vertex(v)
    eps = ag.eps
    vol_a = ag.seed.volume
    volume = fs.touched_volume - vol_a
    if eps is not None and volume * eps.numerator > vol_a * eps.denominator:
        raise InvariantViolation(
            f"saturated volume {volume} exceeds vol(A)/eps = {Fraction(vol_a) / eps}"
        )
    return fresh


def phase_budget(vol_a: int, sigma: Fraction) -> Callable[[Fraction], int]:
    """``alpha -> ceil((5/alpha) * ln(3 vol(A) / sigma))``, computed exactly.

    For rational ``r != 1``, ``ln r`` is irrational, so the product is never
    an integer, and any two bounds on it with the same floor decide the
    ceiling. A correctly rounded decimal logarithm gives ``10**digits *
    ln r`` to within 2; ``digits`` doubles until the bounds agree. A ratio
    of at most 1 (a seed of volume 0, which routes nothing) gets budget 0.

    Only alpha varies between the probes of one improvement search, so the
    returned function keeps the logarithm at each precision it has needed
    and a search computes it once instead of once per probe.
    """
    sigma = Fraction(sigma)
    top = 3 * vol_a * sigma.denominator
    bottom = sigma.numerator
    logs: dict[int, int] = {}

    def log_ratio(digits: int) -> int:
        mid = logs.get(digits)
        if mid is None:
            # ln r < bit_length(top), so the log's last significant digit sits
            # two places below 10**-digits; rounding r moves its log by under a
            # tenth of a unit, rounding the log by less, truncating by under one
            ctx = Context(prec=digits + len(str(top.bit_length())) + 2)
            ln = ctx.ln(ctx.divide(Decimal(top), Decimal(bottom)))
            mid = logs[digits] = int(ctx.scaleb(ln, digits))
        return mid

    def budget(alpha: Fraction) -> int:
        if top <= bottom:
            return 0
        alpha = Fraction(alpha)
        num = 5 * alpha.denominator
        den = alpha.numerator
        digits = 12
        while True:
            mid = log_ratio(digits)
            unit = den * 10**digits
            lo = num * (mid - 2) // unit
            if lo == num * (mid + 2) // unit:
                return lo + 1
            digits *= 2

    return budget


def iteration_bound(alpha: Fraction, vol_a: int, sigma: Fraction) -> int:
    """Phase budget ``ceil((5/alpha) * ln(3 vol(A) / sigma))``; see :func:`phase_budget`."""
    return phase_budget(vol_a, sigma)(alpha)


@dataclass(frozen=True)
class LayerCutResult:
    """Best prefix-of-layers cut of the final residual distance labels."""

    cut: VertexSet
    phi: Fraction


@dataclass
class LocalFlowStats:
    """Instrumentation counters exposed for the locality contract."""

    phases: int = 0
    touched_volume: int = 0
    sink_distance_trace: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class SaturatedRecord:
    """The saturated set a run ended with: its opened non-seed vertices.

    Every member's sink arc is saturated. The flow state's opened set is
    the live record; this copy is taken once, when the run returns.
    """

    members: frozenset[int]


@dataclass
class LocalFlowResult:
    """Outcome of one localized flow run at fixed ``(alpha, eps)``."""

    flow: FlowState
    cut: VertexSet
    exact: bool
    full_flow: bool
    stats: LocalFlowStats
    saturated: SaturatedRecord
    layer_cut: LayerCutResult | None = None

    @property
    def value(self) -> Fraction:
        return self.flow.flow_value


def _check_layer_containment(fs: FlowState, labels: DistanceLabels) -> None:
    """Layers below the sink sit inside the core; the last one may touch the frontier."""
    dist = labels.dist
    ag = fs.ag
    dt = dist.get(ag.sink_id)
    if dt is None:
        return
    if dt < 3:
        raise InvariantViolation(f"sink distance {dt} below 3")
    n = ag.graph.n
    opened = fs.opened
    for v, d in dist.items():
        if v >= n or d >= dt:
            continue
        if d <= dt - 2:
            if v not in opened:
                raise InvariantViolation(
                    f"vertex {v} at distance {d} outside seed and saturated set"
                )
        else:
            # frontier membership: adjacent to an opened vertex
            if v not in opened and v not in fs.arcs_of:
                raise InvariantViolation(f"frontier vertex {v} has no materialized arcs")


def _best_layer_cut(fs: FlowState, labels: DistanceLabels, validate: bool) -> LayerCutResult:
    """Scan prefix unions of layers 1..d(t)-2 for the lowest conductance."""
    ag = fs.ag
    g = ag.graph
    dt = labels.dist[ag.sink_id]
    layers = labels.layers(fs)
    total = g.total_volume
    members: set[int] = set()
    vol = 0
    cross = 0
    best: Fraction | None = None
    best_members: list[int] = []
    prefix: list[int] = []
    for j in range(1, dt - 1):
        for v in layers.get(j, ()):
            if validate and v not in fs.opened:
                raise InvariantViolation(f"layer-cut vertex {v} escapes the core")
            internal = 0
            for w in g.adjacent(v):
                if w in members:
                    internal += 1
            cross += g.degree(v) - 2 * internal
            vol += g.degree(v)
            members.add(v)
            prefix.append(v)
        if not members or vol >= total:
            continue
        phi = Fraction(cross, min(vol, total - vol))
        if best is None or phi < best:
            best = phi
            best_members = list(prefix)
    if best is None:
        raise InvariantViolation("no nonempty layer cut available")
    return LayerCutResult(VertexSet(g, best_members), best)


def local_flow(
    g: Graph,
    a: VertexSet,
    alpha: Fraction,
    eps: Fraction | None,
    *,
    validate: bool = True,
    max_phases: int | None = None,
    ag: AugmentedGraph | None = None,
    start: LocalFlowResult | None = None,
) -> LocalFlowResult:
    """Localized phase-capped Dinic on the augmented graph of ``(a, alpha, eps)``.

    Returns an exact maximum flow and minimum cut when a phase fails to
    augment within the budget; ``full_flow`` marks the case where the flow
    value reaches ``vol(A)`` and the cut is empty. Otherwise the result is
    approximate and ``cut`` is the best layer cut (smallest layer index
    among conductance minimizers).

    ``max_phases`` is the phase budget, by default :func:`iteration_bound`.
    A smaller one, which tests use to force the approximate branch, voids
    the layer-cut guarantee. ``start`` resumes from the flow of an earlier
    run on the same instance at an alpha at least this one (see
    :func:`_localized_dinic`); that run's result is not modified.
    """
    if ag is None:
        ag = build(g, a, alpha, eps)
    if max_phases is None:
        sigma = overlap_for_sink_factor(ag.eps)
        max_phases = iteration_bound(ag.alpha, a.volume, sigma)
    return _localized_dinic(ag, max_phases, validate, start)


def _localized_dinic(
    ag: AugmentedGraph,
    budget: int | None,
    validate: bool,
    start: LocalFlowResult | None,
) -> LocalFlowResult:
    """Run at most ``budget`` localized Dinic phases; ``None`` runs to a max flow.

    Each phase labels the materialized residual graph, saturates its
    admissible arcs, and opens the vertices whose sink arcs filled. With
    ``validate`` every phase checks layer containment, label monotonicity
    within the exact zone, sink-distance growth and flow antisymmetry and
    conservation.

    The run starts from a zero flow, or with ``start`` from a copy of that
    result's flow, opened set included, rescaled to ``ag``'s scale, which
    must be a multiple of the start's (:meth:`FlowState.resumed`).
    ``stats.phases`` counts only the phases this run made, while
    ``stats.touched_volume`` is the volume of everything its flow has
    opened, the inherited part included.

    Why a warm start keeps the guarantees. Lowering alpha only raises edge
    capacities, so the copied flow is feasible, and every copied sink arc
    stays saturated, so every copied opened vertex outside the seed still
    belongs to the saturated set. The saturated-volume bound
    ``vol(A)/eps`` holds for any feasible flow, since each member absorbs
    ``eps * deg`` of a total of at most ``vol(A)``, and with it the
    touched-volume cap ``3 vol(A)/sigma``. The layer-cut guarantee
    needs only two facts about the final labels: every layer below the
    sink's last two lies in the seed plus saturated set, and the sink
    distance is at least ``budget + 3`` when the budget runs out. The first
    holds for any flow, since any other vertex still has residual capacity
    to the sink. For the second, the sink distance is at least 3 on any
    flow (seed vertices have no sink arcs), and each Dinic phase raises it
    by at least one whatever feasible flow it starts from. Neither fact
    uses a zero start, and the validation checks both every phase. A run
    that ends with the sink unreachable returns the minimal minimum cut,
    which is the same whichever maximum flow it reached, so exact results
    do not depend on the start at all.
    """
    g = ag.graph
    fs = FlowState(ag) if start is None else start.flow.resumed(ag)
    stats = LocalFlowStats()
    t = ag.sink_id
    prev: DistanceLabels | None = None
    labels = bfs_distances(fs)
    while True:
        if validate:
            _check_layer_containment(fs, labels)
            if prev is not None:
                check_label_monotone(prev, labels, t, exact_zone_only=True)
                dt_prev = prev.dist.get(t)
                dt_cur = labels.dist.get(t)
                if dt_cur is not None and dt_prev is not None and dt_cur < dt_prev + 1:
                    raise InvariantViolation("sink distance failed to grow across a phase")
        if t not in labels.dist:
            break
        if budget is None:
            if stats.phases > len(fs.arcs_of) + 2:
                # the sink distance grows every phase and stays below the
                # number of materialized vertices
                raise InvariantViolation("uncapped run exceeded the materialized vertex count")
        elif stats.phases >= budget:
            break
        stats.sink_distance_trace.append(labels.dist[t])
        pushed, _ = blocking_flow(fs, labels)
        labels.release()
        if pushed == 0:
            raise InvariantViolation("reachable sink but blocking flow pushed nothing")
        stats.phases += 1
        update_saturated_set(fs)
        if validate:
            fs.check_conservation()
        prev = labels
        labels = bfs_distances(fs)
    stats.touched_volume = fs.touched_volume
    saturated = SaturatedRecord(frozenset(fs.opened.difference(ag.seed)))
    if t not in labels.dist:
        if fs.value > ag.source_total:
            raise InvariantViolation("flow value exceeds total source capacity")
        full = fs.value == ag.source_total
        n = g.n
        cut = VertexSet(g, (v for v in labels.dist if v < n))
        if full and len(cut) != 0:
            raise InvariantViolation("full-value flow must leave the source isolated")
        return LocalFlowResult(fs, cut, True, full, stats, saturated)
    layer = _best_layer_cut(fs, labels, validate)
    return LocalFlowResult(fs, layer.cut, False, False, stats, saturated, layer_cut=layer)
