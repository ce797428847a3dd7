"""Flow-based local graph clustering.

Given a seed set in a large undirected graph, finds a nearby set of
provably low conductance by solving localized maximum-flow problems on a
source/sink-augmented graph, touching only a volume proportional to the
seed's. One localized Dinic engine serves both solvers: phase-capped for
the approximate solver, run to a maximum flow for the exact one. Also
ships cut-quotient improvement drivers, whose later probes all resume
the first probe's flow, routing certificates, a push/sweep seed
expander, and a CLI.
"""

from .augmented import AugmentedGraph, build, epsilon_sigma, min_feasible_sigma
from .errors import (
    GraphFormatError,
    InvariantViolation,
    LocalCutError,
    NotACertificateError,
    ParameterError,
)
from .exact_flow import local_flow_exact
from .graphio import load_graph, load_vertex_set
from .graphs import Graph, VertexSet, boundary_edges, conductance
from .improve import ImproveResult, local_improve, local_improve_overlap
from .local_flow import local_flow
from .seeding import appr_push, sweep_cut

__version__ = "0.1.0"

__all__ = [
    "AugmentedGraph",
    "Graph",
    "GraphFormatError",
    "ImproveResult",
    "InvariantViolation",
    "LocalCutError",
    "NotACertificateError",
    "ParameterError",
    "VertexSet",
    "appr_push",
    "boundary_edges",
    "build",
    "conductance",
    "epsilon_sigma",
    "load_graph",
    "load_vertex_set",
    "local_flow",
    "local_flow_exact",
    "local_improve",
    "local_improve_overlap",
    "min_feasible_sigma",
    "sweep_cut",
]
