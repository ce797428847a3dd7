"""Expansion certificates: the certificate file and its routing check.

A full-value flow on the augmented graph routes ``deg(u)`` units out of
every seed vertex into sinks absorbing at most ``eps * deg(v)`` each,
congesting no original edge beyond ``1/alpha`` times its multiplicity.
That flow is itself a certificate: what a vertex set's seed vertices send
out, less what its other vertices absorb, leaves the set across its
boundary, so ``alpha`` times it lower-bounds the boundary size. The
certificate file states the flow as the net amount on each edge that
carries flow, which by the flow-decomposition theorem is equivalent to a
set of source-to-sink paths. Reading one back is the only routing check:
one pass over the file tallies each vertex's net outflow and each edge's
load, and those tallies are tested against the demand, the absorption
caps and the congestion. A flow is checked through the certificate it
writes. All arithmetic is exact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import IO

from .errors import ParameterError
from .flow import FlowState
from .graphio import parse_rational, parse_unsigned
from .graphs import Graph, VertexSet

__all__ = ["RoutingCheck", "write_certificate", "validate_certificate"]

# Not used here: the benchmark's span tracer (perfbench/spans.py) patches this
# name on this module. It goes when the tracer stops, with the next benchmark change.
decompose_paths = None


@dataclass
class RoutingCheck:
    """Outcome of a routing verification with a human-readable report."""

    ok: bool
    violations: list[str]


# certificate text format: four header lines, then one edge per line
_HEADER_KEYS = ("alpha", "eps-sigma", "vol-a", "flow-value")


def write_certificate(fh: IO[str], fs: FlowState) -> int:
    """Serialize ``fs`` as a routing certificate; return its number of edge lines.

    The header states the flow's alpha, sink factor, seed volume and value.
    Then each base edge with positive net flow from ``u`` to ``v`` gets one
    line ``edge u v amount``, in ``(u, v)`` order, the amount in demand
    units. The flow keeps one arc pair per vertex pair and is antisymmetric,
    so the positive arc of each pair carries that pair's whole net flow.
    """
    ag = fs.ag
    n = ag.graph.n
    to = fs.arc_to
    edges = sorted(
        (to[a ^ 1], to[a], f)
        for a, f in enumerate(fs.arc_flow)
        if f > 0 and to[a] < n and to[a ^ 1] < n
    )
    eps = "inf" if ag.eps is None else str(ag.eps)
    fh.write(f"alpha {ag.alpha}\n")
    fh.write(f"eps-sigma {eps}\n")
    fh.write(f"vol-a {ag.seed.volume}\n")
    fh.write(f"flow-value {Fraction(fs.value, ag.scale)}\n")
    for u, v, f in edges:
        fh.write(f"edge {u} {v} {Fraction(f, ag.scale)}\n")
    return len(edges)


def validate_certificate(fh: IO[str], g: Graph, a: VertexSet) -> RoutingCheck:
    """Re-verify a serialized certificate against the graph and seed set.

    One pass over the lines parses each edge line, checks that it names an
    edge, and tallies each end's net outflow and the edge's load next to
    its multiplicity. The checks that need the header follow the pass. The
    report lists violations in this order: header (``vol-a``,
    ``flow-value``); edge lines that name no edge, in file order; demand
    (each seed vertex sends out ``deg``); every other vertex, in order of
    first mention, takes flow in, at most ``eps * deg`` of it; congestion
    (at most ``1/alpha`` per unit of multiplicity).

    Returns a report; raises :class:`ParameterError`, naming the line, on
    unparseable input, a line that is neither a header nor an edge line, a
    repeated header, a vertex outside the graph, an amount that is not
    positive, an edge given twice in either orientation, an ``alpha``
    outside ``(0, 1]`` or an ``eps-sigma`` that is neither positive nor
    ``inf``. Vertex ids and ``vol-a`` follow the unsigned-decimal grammar
    of graph and seed files (:func:`parse_unsigned`).
    """
    header: dict[str, tuple[int, str]] = {}
    edge_violations: list[str] = []
    outflow: dict[int, Fraction] = {}
    # edge (min, max): its line, its load and its multiplicity
    loads: dict[tuple[int, int], tuple[int, Fraction, int]] = {}
    for lineno, raw in enumerate(fh, start=1):
        ln = raw.strip()
        if not ln:
            continue
        key, _, rest = ln.partition(" ")
        if key in _HEADER_KEYS:
            if key in header:
                raise ParameterError(
                    f"certificate line {lineno}: repeated {key} (first on line {header[key][0]})"
                )
            header[key] = (lineno, rest)
            continue
        if key != "edge":
            raise ParameterError(f"certificate line {lineno}: unknown line {ln!r}")
        parts = rest.split()
        try:
            if len(parts) != 3:
                raise ValueError
            # as in seed files, a minus sign before digits reads as an id out of range
            u, v = (parse_unsigned(tok.removeprefix("-")) for tok in parts[:2])
            amount = parse_rational(parts[2])
        except ValueError:
            raise ParameterError(f"certificate line {lineno}: malformed edge line {ln!r}") from None
        outside = [tok for tok, x in zip(parts, (u, v)) if tok[0] == "-" or x >= g.n]
        if outside:
            raise ParameterError(
                f"certificate line {lineno}: vertex {outside[0]} out of range (n={g.n})"
            )
        # an edge's one positive amount loads it; a negative one, or a second
        # line for the same edge, could cancel the load another line states
        if amount <= 0:
            raise ParameterError(f"certificate line {lineno}: amount {parts[2]} is not positive")
        pair = (min(u, v), max(u, v))
        if pair in loads:
            raise ParameterError(
                f"certificate line {lineno}: edge {pair} already given on line {loads[pair][0]}"
            )
        outflow[u] = outflow.get(u, 0) + amount
        outflow[v] = outflow.get(v, 0) - amount
        adj = g.adjacent(u)
        mult = bisect_right(adj, v) - bisect_left(adj, v)
        if not mult:
            edge_violations.append(f"line {lineno}: ({u}, {v}) is not an edge")
        loads[pair] = (lineno, amount, mult)

    def field(name: str, parse):
        if name not in header:
            raise ParameterError(f"certificate header misses {name!r}")
        lineno, text = header[name]
        try:
            return parse(text.strip())
        except ValueError:
            raise ParameterError(f"certificate line {lineno}: malformed {name} {text!r}") from None

    def positive(text: str, most: int | None = None) -> Fraction:
        value = parse_rational(text)
        if value <= 0 or (most is not None and value > most):
            raise ValueError
        return value

    alpha = field("alpha", lambda text: positive(text, most=1))
    eps = field("eps-sigma", lambda text: None if text == "inf" else positive(text))
    vol_a = field("vol-a", parse_unsigned)
    flow_value = field("flow-value", parse_rational)
    violations: list[str] = []
    if vol_a != a.volume:
        violations.append(f"header vol-a {vol_a} != vol(A) {a.volume}")
    if flow_value != a.volume:
        violations.append(f"flow value {flow_value} is not vol(A) = {a.volume}")
    violations += edge_violations
    for u in a:
        got = outflow.get(u, 0)
        if got != g.degree(u):
            violations.append(f"seed vertex {u} sends out {got}, demand is {g.degree(u)}")
    for v, got in outflow.items():
        if v in a:
            continue
        if got > 0:
            violations.append(f"vertex {v} is not a seed but sends out {got}")
        elif eps is not None and -got > eps * g.degree(v):
            violations.append(f"sink {v} absorbs {-got}, cap is {eps * g.degree(v)}")
    for pair, (lineno, load, mult) in loads.items():
        cap = mult / alpha
        if mult and load > cap:
            violations.append(
                f"edge {pair} on line {lineno} carries {load}, congestion cap is {cap}"
            )
    return RoutingCheck(not violations, violations)
