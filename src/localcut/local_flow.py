"""Localized Dinic over the augmented graph, phase-capped or run to completion.

The solver runs blocking-flow phases while materializing only the seed
set, the saturated set (non-seed vertices whose sink arc filled up), and
their immediate frontier. The flow state's opened set is the seed plus
the saturated set and the only record of either: a vertex joins the
saturated set by being opened (:func:`update_saturated_set`).

:func:`local_flow` always runs under :func:`phase_budget`, this module's
sole statement of ``ceil((5/alpha) ln(3 vol(A)/sigma))``. If a phase ever
fails to augment, the flow is an exact maximum flow and the residual
reachability is a minimum cut. If the budget runs out first, the best
layer cut of the final residual distance labels is returned instead; its
conductance is below twice the capacity parameter. Either way the run
returns one flat :class:`LocalFlowResult`: its ``cut``, ``exact`` (false
for a layer cut) and the flow state, whose opened set is the saturated
set's only copy.

A run may resume the flow of an earlier run of the same instance at a
higher alpha (``start=``). The improvement search resumes every probe
from its first one, at ``alpha = 1``.

The exact solver (:func:`localcut.exact_flow.local_flow_exact`) is the
same loop with no budget. It terminates because every phase raises the
sink's distance by at least one, and that distance is at most the number
of materialized vertices minus one, so an uncapped run ends within that
many phases: a phase that failed to raise it would make the growth check
raise ``InvariantViolation`` first. The minimum cut it returns is the
source side of residual reachability: the unique minimal minimum cut,
whichever maximum flow produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from operator import itemgetter

from .augmented import AugmentedGraph, build, overlap_for_sink_factor
from .errors import InvariantViolation
from .flow import FlowState, bfs_distances, blocking_flow, check_label_monotone
from .graphs import Graph, VertexSet, best_prefix

__all__ = [
    "LocalFlowResult",
    "update_saturated_set",
    "phase_budget",
    "local_flow",
]


def update_saturated_set(fs: FlowState, pushed: list[int]) -> list[int]:
    """Open the frontier vertices whose sink arc ``pushed`` filled; they join the saturated set.

    ``pushed`` is the phase's push record (:func:`blocking_flow`); a phase
    only adds flow to sink arcs, so its full ones are those it filled. The
    saturated set is ``fs.opened`` minus the seed, so opening a vertex is
    what adds it, and its edges join the local view. Returns the newly
    opened vertices (sorted). Once the flow has its full value no phase
    can follow, so nothing is opened: a sink arc that fills on the push
    completing the flow stays out of the set.

    Raises:
        InvariantViolation: if the saturated volume exceeds ``vol(A)/eps``.
            Each member absorbed ``eps * deg`` units of a flow of at most
            ``vol(A)``, and a clamped sink (capacity ``vol(A)``) fills only
            as the flow completes, so this would indicate a flow bug.
    """
    ag = fs.ag
    if fs.value == ag.source_total:
        fresh = []
    else:
        t = ag.sink_id
        to, cap, flow = fs.arc_to, fs.arc_cap, fs.arc_flow
        full = {to[a ^ 1] for a in pushed if to[a] == t and flow[a] == cap[a]}
        fresh = sorted(full - fs.opened)
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


@lru_cache(maxsize=256)
def _scaled_log(top: int, bottom: int, digits: int) -> int:
    """``10**digits * ln(top / bottom)`` to within 2 units; memoized, see :func:`phase_budget`."""
    # ln r < bit_length(top), so the log's last significant digit sits two
    # places below 10**-digits; rounding r moves its log by under a tenth of
    # a unit, rounding the log by less, truncating by under one
    ctx = Context(prec=digits + len(str(top.bit_length())) + 2)
    ln = ctx.ln(ctx.divide(Decimal(top), Decimal(bottom)))
    return int(ctx.scaleb(ln, digits))


def phase_budget(vol_a: int, sigma: Fraction, alpha: Fraction) -> int:
    """``ceil((5/alpha) * ln(3 vol(A) / sigma))``, computed exactly.

    For rational ``r != 1``, ``ln r`` is irrational, so the product is never
    an integer, and any two bounds on it with the same floor decide the
    ceiling. A correctly rounded decimal logarithm gives ``10**digits *
    ln r`` to within 2; ``digits`` doubles until the bounds agree. A ratio
    of at most 1 (a seed of volume 0, which routes nothing) gets budget 0.

    The logarithm depends on ``vol(A)``, ``sigma`` and the precision only,
    and :func:`_scaled_log` keeps it: a fresh one costs several times a
    kept one, and the probes of one search, which differ only in alpha,
    compute it once.
    """
    sigma, alpha = Fraction(sigma), Fraction(alpha)
    top, bottom = 3 * vol_a * sigma.denominator, sigma.numerator
    if top <= bottom:
        return 0
    num, den = 5 * alpha.denominator, alpha.numerator
    digits = 12
    while True:
        mid = _scaled_log(top, bottom, digits)
        unit = den * 10**digits
        lo = num * (mid - 2) // unit
        if lo == num * (mid + 2) // unit:
            return lo + 1
        digits *= 2


@dataclass
class LocalFlowStats:
    """Instrumentation counters exposed for the locality contract."""

    phases: int = 0
    touched_volume: int = 0


@dataclass
class LocalFlowResult:
    """Outcome of one localized flow run at fixed ``(alpha, eps)``.

    ``exact`` marks a maximum flow whose ``cut`` is the minimal minimum
    cut; otherwise the budget ran out and ``cut`` is the best layer cut.
    The saturated set is ``flow.opened`` minus the seed.
    """

    flow: FlowState
    cut: VertexSet
    exact: bool
    full_flow: bool
    stats: LocalFlowStats

    @property
    def value(self) -> Fraction:
        return self.flow.flow_value


def _check_layer_containment(fs: FlowState, dist: dict[int, int]) -> None:
    """Layers up to ``d(t) - 2`` of ``dist`` lie in the core; the last one may touch the frontier.

    The last needs no check: each labelled vertex heads an arc, so it is opened or adjacent to one.
    :func:`blocking_flow` relies on this check: it walks the lists below the last layer as
    target-id ordered, which only an opened vertex's list is.
    """
    ag = fs.ag
    dt = dist.get(ag.sink_id)
    if dt is None:
        return
    if dt < 3:
        raise InvariantViolation(f"sink distance {dt} below 3")
    n = ag.graph.n
    opened = fs.opened
    for v, d in dist.items():
        if v < n and d <= dt - 2 and v not in opened:
            raise InvariantViolation(f"vertex {v} at distance {d} outside seed and saturated set")


def _best_layer_cut(fs: FlowState, dist: dict[int, int]) -> VertexSet:
    """The lowest-conductance prefix union of layers 1..d(t)-2 of ``dist`` (:func:`best_prefix`).

    The BFS labels in nondecreasing order, so each layer is one run of
    ``dist``, and a prefix union's conductance does not depend on the
    order inside a layer. :func:`_check_layer_containment` has already
    checked these layers against the same labels.
    """
    g = fs.ag.graph
    top = dist[fs.ag.sink_id] - 2
    runs = groupby(dist.items(), key=itemgetter(1))
    groups = ([v for v, _ in run] for d, run in runs if 1 <= d <= top)
    best = best_prefix(g, groups, g.total_volume - 1)
    if best is None:
        raise InvariantViolation("no nonempty layer cut available")
    return VertexSet(g, best)


def local_flow(
    g: Graph,
    a: VertexSet,
    alpha: Fraction,
    eps: Fraction | None,
    *,
    start: LocalFlowResult | None = None,
) -> LocalFlowResult:
    """Localized Dinic on the augmented graph of ``(a, alpha, eps)``, within the phase budget.

    Returns an exact maximum flow and minimum cut when a phase fails to
    augment within the budget; ``full_flow`` marks the case where the flow
    value reaches ``vol(A)`` and the cut is empty. Otherwise the result is
    approximate and ``cut`` is the best layer cut (smallest layer index
    among conductance minimizers).

    ``start`` resumes from the flow of an earlier run on the same instance
    at an alpha at least this one, whose scale divides this run's (see
    :func:`_localized_dinic`); that run's result is not modified.
    """
    ag = build(g, a, alpha, eps)
    budget = phase_budget(a.volume, overlap_for_sink_factor(ag.eps), ag.alpha)
    return _localized_dinic(ag, budget, start)


def _localized_dinic(
    ag: AugmentedGraph,
    budget: int | None,
    start: LocalFlowResult | None,
) -> LocalFlowResult:
    """Run at most ``budget`` localized Dinic phases; ``None`` runs to a max flow.

    Each phase labels the materialized residual graph (the pair ``dist``,
    ``admissible`` of :func:`bfs_distances`) and checks the labels for
    layer containment, label monotonicity through the sink's layer and
    sink-distance growth. The run stops there if the sink is unreachable
    or the budget is spent. Otherwise the phase saturates the admissible
    arcs, checks antisymmetry and conservation along its push record at
    once, and opens the vertices whose sink arcs filled. Before returning,
    on either exit, the run checks these two over its whole flow once,
    with the source and sink totals, the inherited flow of a resumed run
    included. The growth check also bounds an uncapped run: the sink
    distance would outgrow the materialized vertex count before the phases
    could.

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
    uses a zero start, and the checks cover both every phase. A run
    that ends with the sink unreachable returns the minimal minimum cut,
    which is the same whichever maximum flow it reached, so exact results
    do not depend on the start at all.
    """
    g = ag.graph
    fs = FlowState(ag) if start is None else start.flow.resumed(ag)
    stats = LocalFlowStats()
    t = ag.sink_id
    prev: dict[int, int] | None = None
    while True:
        dist, admissible = bfs_distances(fs)
        _check_layer_containment(fs, dist)
        if prev is not None:
            check_label_monotone(prev, dist, t)
        if t not in dist or stats.phases == budget:
            break
        pushed = blocking_flow(fs, dist, admissible)
        if not pushed:
            raise InvariantViolation("reachable sink but blocking flow pushed nothing")
        fs.check_conservation(pushed)
        stats.phases += 1
        update_saturated_set(fs, pushed)
        prev = dist
    fs.check_conservation()
    stats.touched_volume = fs.touched_volume
    if t not in dist:
        if fs.value > ag.source_total:
            raise InvariantViolation("flow value exceeds total source capacity")
        full = fs.value == ag.source_total
        n = g.n
        cut = VertexSet(g, (v for v in dist if v < n))
        if full and len(cut) != 0:
            raise InvariantViolation("full-value flow must leave the source isolated")
        return LocalFlowResult(fs, cut, True, full, stats)
    return LocalFlowResult(fs, _best_layer_cut(fs, dist), False, False, stats)
