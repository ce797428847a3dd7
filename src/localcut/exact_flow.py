"""Localized exact max flow and min cut: localized Dinic with no phase cap."""

from __future__ import annotations

from fractions import Fraction

from .augmented import build
from .graphs import Graph, VertexSet
from .local_flow import LocalFlowResult, _localized_dinic

# Not used here: the benchmark's span tracer (perfbench/spans.py) patches
# these names on this module, and the two placeholders below, by name.
from .flow import bfs_distances, check_label_monotone  # noqa: F401
from .local_flow import update_saturated_set  # noqa: F401

__all__ = ["local_flow_exact"]

length_hat = binary_blocking_flow = None
"""Placeholders for the tracer only; no solver code uses them. They go
when the tracer stops patching this module, with the next benchmark
change."""


def local_flow_exact(
    g: Graph,
    a: VertexSet,
    alpha: Fraction,
    eps: Fraction | None,
    *,
    start: LocalFlowResult | None = None,
) -> LocalFlowResult:
    """Exact localized max flow and min cut on the augmented graph.

    The result always has ``exact=True``; ``full_flow`` marks a flow value
    of ``vol(A)`` (empty cut), and ``stats.phases`` counts Dinic phases.
    ``start`` resumes from an earlier result's flow, as in
    :func:`localcut.local_flow.local_flow`.
    """
    return _localized_dinic(build(g, a, alpha, eps), None, start)
