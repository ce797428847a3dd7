"""Cut-quotient search over the capacity parameter, and overlap-parameterized entry points.

A probe at ``alpha`` either routes a full-value flow (no set's relative
quotient ``Q(S) = |E(S, V-S)| / (vol(S & A) - eps vol(S - A))`` is below
``alpha``) or produces a cut. The search probes ``alpha = 1`` first, then
steps to the quotient of each cut it finds, as in the Dinkelbach iteration
of Andersen-Lang Improve and Lang-Rao MQI: a full flow there proves that no
set beats that cut. Only a cut that fails to lower the quotient (possible
only for the approximate solver's budget-limited layer cuts) makes the
search bisect its bracket instead. The search keeps the best cut seen by
conductance. It picks only the alphas: each approximate probe computes
its own phase budget, and the first probe's build checks the instance.

Every probe after the first resumes the first probe's flow, in the
manner of parametric max flow: the lower alpha only raises edge
capacities, so that flow stays feasible and its saturated set stays
valid, and the probe routes only what is left. The first probe is at
``alpha = 1``, so its integer scale (the denominator of ``eps``) divides
every later probe's least scale, and every probe's flow stays at the
least scale of its alpha, as a cold run's would. The first result is
never modified.

When ``alpha = 1`` routes a full-value flow there is no improvement to
report; that outcome is returned as a distinct non-error result whose
certificate is the routing itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .augmented import epsilon_sigma, relative_quotient
from .errors import InvariantViolation, ParameterError
from .exact_flow import local_flow_exact
from .graphs import Graph, VertexSet, boundary_edges, conductance
from .local_flow import LocalFlowResult, local_flow

# Not used here: the benchmark's span tracer (perfbench/spans.py) patches this name on this module.
from .augmented import build  # noqa: F401

__all__ = ["ImproveResult", "local_improve", "local_improve_overlap"]

_MAX_PROBES = 300
BISECTION_WIDTH = Fraction(1, 5)  # the relative width at which the fallback bisection stops


@dataclass
class ImproveResult:
    """Outcome of one improvement run.

    ``improved`` distinguishes a genuine cut from the no-improvement
    outcome, where ``cut`` is empty, ``phi`` is ``None``, and the final
    full-value flow state is kept as the routing certificate. Otherwise
    ``certificate_flow`` is the flow that cut ``cut``, and its ``exact``
    tells a minimum cut from a layer cut. ``eps`` is the sink factor.

    ``phases`` is the number of Dinic phases the search actually ran: a
    probe that resumed the first probe's flow adds only its own phases.
    ``touched_volume`` is the largest volume any probe's flow had opened,
    inherited vertices included, so it is the region the search touched.
    """

    cut: VertexSet
    phi: Fraction | None
    improved: bool
    solver: str
    alpha_trace: list[tuple[Fraction, str]]
    cut_alpha: Fraction | None
    certificate_flow: LocalFlowResult | None
    eps: Fraction | None
    touched_volume: int = 0
    phases: int = 0


def local_improve(
    g: Graph,
    a: VertexSet,
    eps: Fraction | None,
    solver: str = "approx",
) -> ImproveResult:
    """Minimize the capacity parameter by cut-quotient search and return the best cut.

    ``eps`` is the sink factor, as in ``local_flow``. Each cut found moves
    the next probe to its relative quotient, until a probe there routes a
    full flow. When a cut fails to lower the quotient the search bisects
    instead, down to the relative width ``BISECTION_WIDTH`` (1/5). With
    the ``approx`` solver the output conductance is below ``2 (1 + 1/5)``
    times the smallest parameter at which a well-overlapping
    low-conductance set exists; the ``exact`` solver drops both factors,
    since its search ends at a full flow at the least quotient of any set.
    """
    if solver not in ("approx", "exact"):
        raise ParameterError(f"solver must be 'approx' or 'exact', got {solver!r}")
    solve = local_flow if solver == "approx" else local_flow_exact
    alpha_min = Fraction(0)
    alpha = alpha_max = Fraction(1)
    trace: list[tuple[Fraction, str]] = []
    first: LocalFlowResult | None = None
    best: tuple[Fraction, int, tuple[int, ...], Fraction] | None = None
    winner: LocalFlowResult | None = None
    touched = 0
    phases = 0

    # A full flow at alpha_min proves no set has a quotient below it, so every
    # cut's quotient is at least alpha_min and the bracket never inverts.
    for _ in range(_MAX_PROBES):
        res = solve(g, a, alpha, eps, start=first)
        if first is None:
            first = res
        touched = max(touched, res.stats.touched_volume)
        phases += res.stats.phases
        if res.full_flow:
            trace.append((alpha, "full-flow"))
            alpha_min = alpha
        else:
            trace.append((alpha, "cut-found"))
            boundary = boundary_edges(g, res.cut)  # counted once for phi and the quotient
            key = (conductance(g, res.cut, boundary), res.cut.volume, res.cut.ids, alpha)
            if best is None or key < best:
                best, winner = key, res
            alpha_max = alpha
            if best[0] == 0:
                break  # a disconnection cut cannot be beaten
            q = relative_quotient(g, a, res.cut, eps, boundary)
            if q is not None and q < alpha:
                alpha_max = q
                if q > alpha_min:
                    alpha = q  # the Dinkelbach step
                    continue
        if alpha_max - alpha_min <= BISECTION_WIDTH * alpha_min:
            break
        alpha = (alpha_min + alpha_max) / 2
    else:
        raise InvariantViolation(f"cut-quotient search did not close within {_MAX_PROBES} probes")

    if best is None:
        # alpha = 1 routed a full flow, and that closed the bracket
        phi, ids, at_alpha, winner = None, (), None, res
    else:
        phi, _vol, ids, at_alpha = best
    return ImproveResult(
        cut=VertexSet(g, ids),
        phi=phi,
        improved=best is not None,
        solver=solver,
        alpha_trace=trace,
        cut_alpha=at_alpha,
        certificate_flow=winner,
        eps=eps,
        touched_volume=touched,
        phases=phases,
    )


def local_improve_overlap(
    g: Graph,
    a: VertexSet,
    sigma: Fraction,
    solver: str = "approx",
) -> ImproveResult:
    """Improvement run parameterized by the overlap guarantee ``sigma``.

    Any target set whose volume overlaps ``a`` by at least ``sigma``
    bounds the output: conductance within ``4/overlap`` (approx) or
    ``2/overlap`` (exact) times the target's, with output volume at most
    ``(3/sigma) vol(A)``.
    """
    return local_improve(g, a, epsilon_sigma(Fraction(sigma), g, a), solver)

