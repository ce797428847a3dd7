"""Expansion certificates: demand-routing checks, path decomposition, diagnostics.

A full-value flow on the augmented graph routes ``deg(u)`` units out of
every seed vertex into sinks absorbing at most ``eps * deg(v)`` each,
congesting no original edge beyond ``1/alpha`` times its multiplicity.
That routing is itself a certificate: for any vertex set, ``alpha`` times
the demand it sends across its boundary lower-bounds the boundary size.
This module verifies such routings, peels them into explicit paths, and
adds two floating-point diagnostics (everything certificate-bearing stays
exact).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import IO

import numpy as np

from .augmented import AugmentedGraph, relative_quotient
from .errors import InvariantViolation, NotACertificateError, ParameterError
from .flow import FlowState
from .graphio import parse_rational, parse_unsigned
from .graphs import Graph, VertexSet, boundary_edges, induced_subgraph
from .local_flow import iteration_bound

__all__ = [
    "BiDemand",
    "PathDecomposition",
    "RoutingCheck",
    "verify_bidemand_routing",
    "expansion_lower_bound",
    "decompose_paths",
    "path_length_certificate",
    "quotient_score",
    "conn_proxy",
    "write_certificate",
    "validate_certificate",
]


@dataclass(frozen=True)
class BiDemand:
    """Bipartite demand: ``c1 * deg`` out of each seed vertex, at most ``c2 * deg`` into each sink.

    ``c2=None`` means unbounded absorption. The usual sanity range is
    ``c2 >= c1 * vol(A) / vol(V - A)``, without which the total demand
    cannot fit.
    """

    source: VertexSet
    c1: Fraction
    c2: Fraction | None


@dataclass
class RoutingCheck:
    """Outcome of a routing verification with a human-readable report."""

    ok: bool
    violations: list[str]

    def __bool__(self) -> bool:
        return self.ok


def verify_bidemand_routing(
    fs: FlowState, bd: BiDemand, congestion: Fraction
) -> RoutingCheck:
    """Check that the flow routes ``bd`` within the given edge congestion.

    Verifies (i) every seed vertex emits exactly ``c1 * deg`` along its
    source arc, (ii) every non-seed vertex absorbs at most ``c2 * deg``,
    and (iii) no original edge carries more than ``congestion`` per unit of
    multiplicity. Returns a falsy report rather than raising.
    """
    ag = fs.ag
    g = ag.graph
    scale = ag.scale
    violations: list[str] = []
    s = ag.source_id
    t = ag.sink_id
    c1 = Fraction(bd.c1)
    for a in fs.arcs_of.get(s, ()):
        u = fs.arc_to[a]
        want = c1 * g.degree(u) * scale
        if want.denominator != 1:
            violations.append(f"demand c1*deg({u})*L = {want} is not integral")
            continue
        if fs.arc_flow[a] != want:
            violations.append(
                f"source arc to {u} carries {fs.arc_flow[a]}, demand is {want}"
            )
    seen_sources = {fs.arc_to[a] for a in fs.arcs_of.get(s, ())}
    for u in bd.source:
        if u not in seen_sources:
            violations.append(f"seed vertex {u} has no materialized source arc")
    cong = Fraction(congestion)
    for a in range(0, len(fs.arc_to), 2):
        f = fs.arc_flow[a]
        if f == 0:
            continue
        v = fs.arc_to[a]
        u = fs.arc_to[a ^ 1]
        if u == s or v == s:
            continue
        if v == t:
            if bd.c2 is not None and f > bd.c2 * g.degree(u) * scale:
                violations.append(
                    f"sink absorption at {u} is {Fraction(f, scale)}, "
                    f"cap is c2*deg = {bd.c2 * g.degree(u)}"
                )
            continue
        mult = fs.arc_cap[a] // ag.edge_cap_unit if ag.edge_cap_unit else 0
        if abs(f) > cong * mult * scale:
            violations.append(
                f"edge ({min(u, v)}, {max(u, v)}) carries {Fraction(abs(f), scale)}, "
                f"congestion cap is {cong * mult}"
            )
    return RoutingCheck(not violations, violations)


@dataclass
class PathDecomposition:
    """Source-to-sink paths (interior vertices only) with scaled integer amounts.

    ``amounts[i]`` is the scaled flow on ``paths[i]``; ``scale`` converts
    back to demand units. ``cancelled`` is the total amount of circulation
    removed before peeling (cycles carry no demand).
    """

    paths: list[tuple[int, ...]]
    amounts: list[int]
    scale: int
    cancelled: int = 0

    @property
    def total(self) -> int:
        return sum(self.amounts)

    def unscaled_amounts(self) -> list[Fraction]:
        return [Fraction(a, self.scale) for a in self.amounts]


def decompose_paths(fs: FlowState) -> PathDecomposition:
    """Peel the flow into source-to-sink paths, shortest first.

    Cycles of positive flow are cancelled first; then shortest positive
    paths are peeled until the flow is exhausted. Conserves value exactly,
    and every interior step is an original edge.
    """
    s = fs.ag.source_id
    t = fs.ag.sink_id
    pos: dict[int, dict[int, int]] = {}
    for a in range(len(fs.arc_to)):
        f = fs.arc_flow[a]
        if f > 0:
            u = fs.arc_to[a ^ 1]
            v = fs.arc_to[a]
            pos.setdefault(u, {})[v] = pos.get(u, {}).get(v, 0) + f
    cancelled = _cancel_cycles(pos, s, t)
    paths: list[tuple[int, ...]] = []
    amounts: list[int] = []
    remaining = fs.value
    while remaining > 0:
        path = _shortest_positive_path(pos, s, t)
        if path is None:
            raise InvariantViolation("flow value positive but no source-sink path remains")
        amount = min(pos[path[i]][path[i + 1]] for i in range(len(path) - 1))
        amount = min(amount, remaining)
        for i in range(len(path) - 1):
            u, v = path[i], path[i + 1]
            pos[u][v] -= amount
            if pos[u][v] == 0:
                del pos[u][v]
        paths.append(tuple(path[1:-1]))
        amounts.append(amount)
        remaining -= amount
    return PathDecomposition(paths, amounts, fs.ag.scale, cancelled)


def _cancel_cycles(pos: dict[int, dict[int, int]], s: int, t: int) -> int:
    """Remove circulation from the positive-flow graph; returns total removed."""
    cancelled = 0
    color: dict[int, int] = {}
    while True:
        cycle = None
        color.clear()
        for root in sorted(pos):
            if color.get(root):
                continue
            stack = [(root, iter(sorted(pos.get(root, ()))))]
            color[root] = 1
            trail = [root]
            while stack and cycle is None:
                v, it = stack[-1]
                found = False
                for w in it:
                    if pos[v].get(w, 0) <= 0:
                        continue
                    c = color.get(w, 0)
                    if c == 0:
                        color[w] = 1
                        stack.append((w, iter(sorted(pos.get(w, ())))))
                        trail.append(w)
                        found = True
                        break
                    if c == 1:
                        cycle = trail[trail.index(w) :] + [w]
                        found = True
                        break
                if not found:
                    color[v] = 2
                    stack.pop()
                    trail.pop()
            if cycle:
                break
        if not cycle:
            return cancelled
        amount = min(pos[cycle[i]][cycle[i + 1]] for i in range(len(cycle) - 1))
        for i in range(len(cycle) - 1):
            u, v = cycle[i], cycle[i + 1]
            pos[u][v] -= amount
            if pos[u][v] == 0:
                del pos[u][v]
        cancelled += amount


def _shortest_positive_path(
    pos: dict[int, dict[int, int]], s: int, t: int
) -> list[int] | None:
    parent: dict[int, int] = {}
    seen = {s}
    dq = deque([s])
    while dq:
        u = dq.popleft()
        if u == t:
            break
        for v in sorted(pos.get(u, ())):
            if pos[u][v] > 0 and v not in seen:
                seen.add(v)
                parent[v] = u
                dq.append(v)
    if t not in parent:
        return None
    path = [t]
    while path[-1] != s:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def expansion_lower_bound(
    g: Graph, fs: FlowState, s: VertexSet, alpha: Fraction
) -> Fraction:
    """``alpha`` times the demand routed from inside ``s`` to outside it.

    Requires a verified full-demand routing (raises otherwise). The bound
    is certified: it never exceeds the actual boundary size, and it is at
    least ``alpha * (vol(A & S) - eps * vol(S - A))``.
    """
    ag = fs.ag
    check = verify_bidemand_routing(
        fs, BiDemand(ag.seed, Fraction(1), ag.eps), 1 / ag.alpha
    )
    if not check:
        raise NotACertificateError(
            "flow does not route the full demand: " + "; ".join(check.violations[:3])
        )
    pd = decompose_paths(fs)
    crossing = 0
    for path, amount in zip(pd.paths, pd.amounts):
        if path[0] in s and path[-1] not in s:
            crossing += amount
    routed = Fraction(crossing, pd.scale)
    bound = Fraction(alpha) * routed
    if bound > boundary_edges(g, s):
        raise InvariantViolation("certified bound exceeds the actual boundary size")
    inter = s.intersection(ag.seed).volume
    outside = s.volume - inter
    if ag.eps is not None and routed < inter - ag.eps * outside:
        raise InvariantViolation("routed demand fell below its guaranteed minimum")
    return bound


def path_length_certificate(
    pd: PathDecomposition, alpha: Fraction, vol_a: int, sigma: Fraction
) -> bool:
    """Do all decomposed paths respect the phase-budget length bound?

    A flow assembled from at most ``I`` blocking-flow phases routes along
    paths of at most ``I + 2`` arcs (the source and sink arcs included).
    """
    bound = iteration_bound(alpha, vol_a, sigma) + 2
    return all(len(path) + 1 <= bound for path in pd.paths)


def quotient_score(g: Graph, a: VertexSet, s: VertexSet) -> Fraction | None:
    """:func:`relative_quotient` at the least sound sink factor ``vol(A)/vol(V-A)``.

    Diagnostic only; ``None`` when the quotient is undefined.
    """
    vol_rest = g.total_volume - a.volume
    if vol_rest == 0:
        return None
    return relative_quotient(g, a, s, Fraction(a.volume, vol_rest))


def conn_proxy(g: Graph, b: VertexSet, tol: float = 1e-9) -> float:
    """Spectral-gap connectivity proxy of the induced subgraph, per unit log-volume.

    Power iteration with deflation of the known top eigenvector of the
    lazy walk; returns 0.0 for a disconnected induced subgraph. Diagnostic
    precision only; nothing downstream depends on it.
    """
    if len(b) == 0:
        raise ParameterError("connectivity proxy needs a nonempty set")
    sub = induced_subgraph(g, b)
    k = sub.n
    if k == 1:
        return 0.0
    # connectivity check
    seen = {0}
    dq = deque([0])
    while dq:
        u = dq.popleft()
        for v in sub.adjacent(u):
            if v not in seen:
                seen.add(v)
                dq.append(v)
    if len(seen) < k:
        return 0.0
    deg = np.array([sub.degree(u) for u in range(k)], dtype=float)
    heads = np.fromiter((v for u in range(k) for v in sub.adjacent(u)), dtype=np.int64)
    tails = np.repeat(np.arange(k), [sub.degree(u) for u in range(k)])
    inv_sqrt = 1.0 / np.sqrt(deg)
    top = np.sqrt(deg)
    top /= np.linalg.norm(top)

    def lazy_matvec(x: np.ndarray) -> np.ndarray:
        y = np.zeros(k)
        np.add.at(y, tails, inv_sqrt[tails] * inv_sqrt[heads] * x[heads])
        return 0.5 * (x + y)

    rng = np.random.default_rng(12)
    x = rng.standard_normal(k)
    x -= top * (top @ x)
    norm = np.linalg.norm(x)
    if norm == 0:
        x = np.ones(k)
        x -= top * (top @ x)
        norm = np.linalg.norm(x)
    x /= norm
    mu = 0.0
    for _ in range(200000):
        y = lazy_matvec(x)
        y -= top * (top @ y)
        mu = x @ y
        res = np.linalg.norm(y - mu * x)
        norm = np.linalg.norm(y)
        if norm == 0:
            mu = 0.0
            break
        x = y / norm
        if res <= tol:
            break
    gap = 1.0 - mu
    vol_b = sub.total_volume
    return gap / float(np.log(vol_b))


# certificate text format: four header lines, then one path per line


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

    Checks header consistency, that every path walks real edges from a
    seed vertex to a non-seed vertex, that amounts add to the declared
    full flow value, and the demand/congestion constraints. Returns a
    report; raises :class:`ParameterError`, naming the line, on unparseable
    input or a vertex outside the graph. Vertex ids and ``vol-a`` follow the
    unsigned-decimal grammar of graph and seed files (:func:`parse_unsigned`).
    """
    header: dict[str, tuple[int, str]] = {}
    paths: list[tuple[tuple[int, ...], Fraction]] = []
    for lineno, raw in enumerate(fh, start=1):
        ln = raw.strip()
        if not ln:
            continue
        key, _, rest = ln.partition(" ")
        if key != "path":
            header[key] = (lineno, rest)
            continue
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
        paths.append((path, amount))

    def field(name: str, parse):
        if name not in header:
            raise ParameterError(f"certificate header misses {name!r}")
        lineno, text = header[name]
        try:
            return parse(text.strip())
        except ValueError:
            raise ParameterError(f"certificate line {lineno}: malformed {name} {text!r}") from None

    def alpha_in_range(text: str) -> Fraction:
        alpha = parse_rational(text)
        if not 0 < alpha <= 1:
            raise ValueError
        return alpha

    alpha = field("alpha", alpha_in_range)
    eps = field("eps-sigma", lambda text: None if text == "inf" else parse_rational(text))
    vol_a = field("vol-a", parse_unsigned)
    flow_value = field("flow-value", parse_rational)
    violations: list[str] = []
    if vol_a != a.volume:
        violations.append(f"header vol-a {vol_a} != vol(A) {a.volume}")
    if flow_value != a.volume:
        violations.append(f"flow value {flow_value} is not vol(A) = {a.volume}")
    out_of: dict[int, Fraction] = {}
    into: dict[int, Fraction] = {}
    edge_load: dict[tuple[int, int], Fraction] = {}
    mult_cache: dict[int, dict[int, int]] = {}

    def multiplicities(u: int) -> dict[int, int]:
        if u not in mult_cache:
            mult_cache[u] = dict(g.neighbor_multiplicities(u))
        return mult_cache[u]

    for path, amount in paths:
        if path[0] not in a:
            violations.append(f"path starts outside the seed set: {path[0]}")
        if path[-1] in a:
            violations.append(f"path ends inside the seed set: {path[-1]}")
        out_of[path[0]] = out_of.get(path[0], Fraction(0)) + amount
        into[path[-1]] = into.get(path[-1], Fraction(0)) + amount
        for u, v in zip(path, path[1:]):
            if v not in multiplicities(u):
                violations.append(f"path step ({u}, {v}) is not an edge")
                continue
            key = (min(u, v), max(u, v))
            edge_load[key] = edge_load.get(key, Fraction(0)) + amount
    total = sum((amt for _, amt in paths), Fraction(0))
    if total != flow_value:
        violations.append(f"path amounts add to {total}, header says {flow_value}")
    for u in a:
        if out_of.get(u, Fraction(0)) != g.degree(u):
            violations.append(
                f"seed vertex {u} emits {out_of.get(u, Fraction(0))}, demand is {g.degree(u)}"
            )
    if eps is not None:
        for v, got in into.items():
            if got > eps * g.degree(v):
                violations.append(f"sink {v} absorbs {got} > eps*deg = {eps * g.degree(v)}")
    for (u, v), load in edge_load.items():
        mult = multiplicities(u).get(v, 0)
        if load > mult / alpha:
            violations.append(
                f"edge ({u}, {v}) carries {load} > multiplicity/alpha = {Fraction(mult) / alpha}"
            )
    return RoutingCheck(not violations, violations)
