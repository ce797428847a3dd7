"""Expansion certificates: path decomposition, the certificate file and its routing check.

A full-value flow on the augmented graph routes ``deg(u)`` units out of
every seed vertex into sinks absorbing at most ``eps * deg(v)`` each,
congesting no original edge beyond ``1/alpha`` times its multiplicity.
That routing is itself a certificate: for any vertex set, ``alpha`` times
the demand it sends across its boundary lower-bounds the boundary size.
This module peels such a flow into explicit paths and writes them as a
certificate file. Reading one back is the only routing check: one pass
over the file tallies what each vertex emits and absorbs and what each
edge carries, and those tallies are tested against the demand and the
congestion. A flow is checked through the certificate it decomposes into.
All arithmetic is exact.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import IO

from .augmented import AugmentedGraph
from .errors import InvariantViolation, ParameterError
from .flow import FlowState
from .graphio import parse_rational, parse_unsigned
from .graphs import Graph, VertexSet

__all__ = [
    "PathDecomposition",
    "RoutingCheck",
    "decompose_paths",
    "write_certificate",
    "validate_certificate",
]


@dataclass
class RoutingCheck:
    """Outcome of a routing verification with a human-readable report."""

    ok: bool
    violations: list[str]


@dataclass
class PathDecomposition:
    """Source-to-sink paths (interior vertices only) with scaled integer amounts.

    ``amounts[i]`` is the scaled flow on ``paths[i]``; ``scale`` converts
    back to demand units.
    """

    paths: list[tuple[int, ...]]
    amounts: list[int]
    scale: int

    @property
    def total(self) -> int:
        return sum(self.amounts)


def decompose_paths(fs: FlowState) -> PathDecomposition:
    """Peel the flow into source-to-sink paths, shortest first.

    The arcs of positive flow form a flow of the same value (the flow is
    antisymmetric), so while value remains a source-to-sink path of them
    exists, and peeling its bottleneck keeps that so. Circulation the
    peeling leaves behind carries no demand and appears in no path.
    Conserves value exactly, and every interior step is an original edge.
    """
    s = fs.ag.source_id
    t = fs.ag.sink_id
    # one arc pair per vertex pair, so each positive arc is its pair's only entry
    pos: dict[int, dict[int, int]] = {}
    for a, f in enumerate(fs.arc_flow):
        if f > 0:
            pos.setdefault(fs.arc_to[a ^ 1], {})[fs.arc_to[a]] = f
    paths: list[tuple[int, ...]] = []
    amounts: list[int] = []
    remaining = fs.value
    while remaining > 0:
        path = _shortest_positive_path(pos, s, t)
        if path is None:
            raise InvariantViolation("flow value positive but no source-sink path remains")
        steps = list(zip(path, path[1:]))
        amount = min(remaining, *(pos[u][v] for u, v in steps))
        for u, v in steps:
            pos[u][v] -= amount
            if pos[u][v] == 0:
                del pos[u][v]
        paths.append(tuple(path[1:-1]))
        amounts.append(amount)
        remaining -= amount
    return PathDecomposition(paths, amounts, fs.ag.scale)


def _shortest_positive_path(pos: dict[int, dict[int, int]], s: int, t: int) -> list[int] | None:
    """Breadth-first path from ``s`` to ``t`` over ``pos``, neighbors in id order, or ``None``."""
    parent = {s: s}
    dq = deque([s])
    while dq and t not in parent:
        u = dq.popleft()
        for v in sorted(pos.get(u, ())):
            if v not in parent:
                parent[v] = u
                dq.append(v)
    if t not in parent:
        return None
    path = [t]
    while path[-1] != s:
        path.append(parent[path[-1]])
    path.reverse()
    return path


# certificate text format: four header lines, then one path per line
_HEADER_KEYS = ("alpha", "eps-sigma", "vol-a", "flow-value")


def write_certificate(fh: IO[str], ag: AugmentedGraph, pd: PathDecomposition) -> None:
    """Serialize a routing certificate: header then ``path vertices... amount``."""
    eps = "inf" if ag.eps is None else str(ag.eps)
    fh.write(f"alpha {ag.alpha}\n")
    fh.write(f"eps-sigma {eps}\n")
    fh.write(f"vol-a {ag.seed.volume}\n")
    fh.write(f"flow-value {Fraction(pd.total, pd.scale)}\n")
    for path, amount in zip(pd.paths, pd.amounts):
        ids = " ".join(str(v) for v in path)
        fh.write(f"path {ids} {Fraction(amount, pd.scale)}\n")


def validate_certificate(fh: IO[str], g: Graph, a: VertexSet) -> RoutingCheck:
    """Re-verify a serialized certificate against the graph and seed set.

    One pass over the lines parses each path, checks that it walks real
    edges from a seed vertex to a non-seed vertex, and tallies what it
    emits, absorbs and loads onto each edge. One neighbor count per visited
    vertex serves each step: a count of 0 means no edge, any other is the
    edge's multiplicity, kept next to its load. The checks that need the
    header follow the pass. The report lists violations in this order:
    header (``vol-a``, ``flow-value``); paths in file order; the amounts'
    total; demand (each seed vertex emits ``deg``); absorption (at most
    ``eps * deg``); congestion (at most ``1/alpha`` per unit of multiplicity).

    Returns a report; raises :class:`ParameterError`, naming the line, on
    unparseable input, a line that is neither a header nor a path, a
    repeated header, a vertex outside the graph, a path amount that is not
    positive, an ``alpha`` outside ``(0, 1]`` or an ``eps-sigma`` that is
    neither positive nor ``inf``. Vertex ids and ``vol-a`` follow the
    unsigned-decimal grammar of graph and seed files (:func:`parse_unsigned`).
    """
    header: dict[str, tuple[int, str]] = {}
    path_violations: list[str] = []
    total = Fraction(0)
    emits: dict[int, Fraction] = {}
    absorbs: dict[int, Fraction] = {}
    # edge (u, v), u < v: the load it carries in either direction, and its multiplicity
    loads: dict[tuple[int, int], tuple[Fraction, int]] = {}
    neighbors: dict[int, Counter[int]] = {}
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
        if key != "path":
            raise ParameterError(f"certificate line {lineno}: unknown line {ln!r}")
        parts = rest.split()
        tokens = parts[:-1]
        try:
            if len(parts) < 2:
                raise ValueError
            # as in seed files, a minus sign before digits reads as an id out of range
            path = tuple(parse_unsigned(v.removeprefix("-")) for v in tokens)
            amount = parse_rational(parts[-1])
        except ValueError:
            raise ParameterError(f"certificate line {lineno}: malformed path line {ln!r}") from None
        outside = [tok for tok, v in zip(tokens, path) if tok[0] == "-" or v >= g.n]
        if outside:
            raise ParameterError(
                f"certificate line {lineno}: vertex {outside[0]} out of range (n={g.n})"
            )
        # a path leaving a set crosses its boundary, so positive loads bound
        # the demand routed out of it; a negative amount would cancel a load
        if amount <= 0:
            raise ParameterError(
                f"certificate line {lineno}: path amount {parts[-1]} is not positive"
            )
        if path[0] not in a:
            path_violations.append(f"path starts outside the seed set: {path[0]}")
        if path[-1] in a:
            path_violations.append(f"path ends inside the seed set: {path[-1]}")
        total += amount
        emits[path[0]] = emits.get(path[0], 0) + amount
        absorbs[path[-1]] = absorbs.get(path[-1], 0) + amount
        for u, v in zip(path, path[1:]):
            if u not in neighbors:
                neighbors[u] = Counter(g.adjacent(u))
            mult = neighbors[u][v]
            if not mult:
                path_violations.append(f"path step ({u}, {v}) is not an edge")
                continue
            edge = (min(u, v), max(u, v))
            load, _ = loads.get(edge, (0, mult))
            loads[edge] = (load + amount, mult)

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
    violations += path_violations
    if total != flow_value:
        violations.append(f"path amounts add to {total}, header says {flow_value}")
    for u in a:
        got = emits.get(u, 0)
        if got != g.degree(u):
            violations.append(f"seed vertex {u} emits {got}, demand is {g.degree(u)}")
    if eps is not None:
        for v, got in absorbs.items():
            if got > eps * g.degree(v):
                violations.append(f"sink {v} absorbs {got}, cap is {eps * g.degree(v)}")
    for (u, v), (load, mult) in loads.items():
        cap = mult / alpha
        if load > cap:
            violations.append(f"edge ({u}, {v}) carries {load}, congestion cap is {cap}")
    return RoutingCheck(not violations, violations)
