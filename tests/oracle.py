"""Reference implementations and executable paper lemmas for the test suite.

Exhaustive enumerations over all vertex subsets, hard-capped at 20
vertices. Subset scans walk a Gray code so each step updates the boundary
count and volumes in O(1) big-int operations.

:func:`reference_bfs_distances` and :func:`reference_blocking_flow` are
one Dinic phase written plainly: every arc of a vertex is scanned and its
label tested, with no admissible lists. The engine in
:mod:`localcut.flow` must match them phase by phase, and
:func:`reference_max_flow` runs them to a max flow, the reference for the
localized solvers. It still runs on a ``FlowState``; the one oracle that
shares no code with the engine is :func:`networkx_max_flow_value`.

The lemmas state, on one set at a time, what the augmented graph's cuts
and flows certify: :func:`cut_value` of a set's augmented cut,
:func:`cut_certificate_check` (a cut below ``vol(A)`` has conductance
below ``alpha``), :func:`flow_certificate_bound` and
:func:`expansion_lower_bound` (a full-value flow lower-bounds every set's
boundary; :func:`routing_check` verifies the flow first, through its
certificate, and :func:`net_outflow` reads what crosses the set), and
:func:`path_length_certificate` (a phase-capped flow routes along short
paths, as :func:`peel_paths` splits it). No search needs them; the tests
check the engine's outputs against them.

:func:`capped_flow` runs the approximate solver under a phase cap other
than its own budget, which the library does not offer; tests use it to
force layer cuts.
"""

from __future__ import annotations

import io
from collections import Counter, deque
from fractions import Fraction
from typing import Iterable, Iterator

import networkx as nx
import numpy as np

from localcut import (
    AugmentedGraph,
    FlowState,
    Graph,
    InvariantViolation,
    NotACertificateError,
    ParameterError,
    VertexSet,
    boundary_edges,
    build,
    conductance,
)
from localcut.certify import RoutingCheck, validate_certificate, write_certificate
from localcut.local_flow import LocalFlowResult, _localized_dinic, phase_budget

__all__ = [
    "brute_min_conductance",
    "brute_min_cut_value",
    "brute_min_quotient",
    "capped_flow",
    "cut_certificate_check",
    "cut_value",
    "edges",
    "eval_condition_41",
    "expansion_lower_bound",
    "flow_certificate_bound",
    "intersection",
    "net_outflow",
    "networkx_max_flow_value",
    "path_length_certificate",
    "peel_paths",
    "push",
    "reference_bfs_distances",
    "reference_blocking_flow",
    "reference_csr",
    "reference_max_flow",
    "routing_check",
]

_MAX_N = 20


def intersection(s: VertexSet, other: Iterable[int]) -> VertexSet:
    """The members of ``s`` that ``other`` also lists, on ``s``'s graph."""
    return VertexSet(s.graph, set(s).intersection(other))


def edges(g: Graph) -> Iterator[tuple[int, int]]:
    """All edges of ``g`` as ``(u, v)`` with ``u < v``, parallel edges repeated."""
    for u in range(g.n):
        for v in g.adjacent(u):
            if v > u:
                yield (u, v)


def reference_csr(n: int, edges: np.ndarray) -> tuple[list[int], list[int]]:
    """Offsets and heads of the ``(m, 2)`` edge array's CSR, by one lexsort.

    Every edge gives an arc from each end; arcs are ordered by tail, then
    head, so each adjacency run comes out sorted.
    """
    tails = np.concatenate([edges[:, 0], edges[:, 1]]).astype(np.int64)
    heads = np.concatenate([edges[:, 1], edges[:, 0]]).astype(np.int64)
    order = np.lexsort((heads, tails))
    off = np.concatenate([[0], np.cumsum(np.bincount(tails, minlength=n))])
    return off.tolist(), heads[order].tolist()


def _check_size(n: int) -> None:
    if n > _MAX_N:
        raise ParameterError(f"brute force is capped at {_MAX_N} vertices, got {n}")


def _gray_flip(i: int) -> int:
    """Index of the bit that flips between Gray codes i-1 and i."""
    return ((i ^ (i >> 1)) ^ ((i - 1) ^ ((i - 1) >> 1))).bit_length() - 1


def brute_min_conductance(
    g: Graph, max_vol: int | None = None
) -> tuple[VertexSet, Fraction]:
    """Exhaustive conductance minimum over all proper nonempty subsets.

    ``max_vol`` restricts candidates to sets of at most that volume.
    Returns the first minimizer in Gray-code order.
    """
    n = g.n
    _check_size(n)
    if n < 2:
        raise ParameterError("need at least two vertices")
    deg = [g.degree(u) for u in range(n)]
    mult = [Counter(g.adjacent(u)) for u in range(n)]
    total = g.total_volume
    best: Fraction | None = None
    best_mask = 0
    mask = 0
    vol = 0
    cross = 0
    # inside[w] = edges from w into the current member set, with multiplicity,
    # maintained for every vertex so flips cost O(deg)
    inside = [0] * n
    for i in range(1, 1 << n):
        b = _gray_flip(i)
        if (mask >> b) & 1:
            mask &= ~(1 << b)
            vol -= deg[b]
            cross -= deg[b] - 2 * inside[b]
            for w, k in mult[b].items():
                inside[w] -= k
        else:
            mask |= 1 << b
            vol += deg[b]
            cross += deg[b] - 2 * inside[b]
            for w, k in mult[b].items():
                inside[w] += k
        if mask == 0 or mask == (1 << n) - 1:
            continue
        if vol == 0 or vol == total:
            continue
        if max_vol is not None and vol > max_vol:
            continue
        phi = Fraction(cross, min(vol, total - vol))
        if best is None or phi < best:
            best = phi
            best_mask = mask
    if best is None:
        raise ParameterError("no eligible subset (volume cap too small?)")
    members = [u for u in range(n) if (best_mask >> u) & 1]
    return VertexSet(g, members), best


def brute_min_cut_value(ag: AugmentedGraph) -> tuple[VertexSet, Fraction]:
    """Exhaustive minimum of the augmented cut value over all subsets.

    The empty set (value ``vol(A)``) participates, so the result never
    exceeds ``vol(A)``. Returns the first minimizer in Gray-code order.
    """
    g = ag.graph
    n = g.n
    _check_size(n)
    deg = [g.degree(u) for u in range(n)]
    mult = [Counter(g.adjacent(u)) for u in range(n)]
    in_seed = [u in ag.seed for u in range(n)]
    sink = [0 if in_seed[u] else ag.sink_cap(u) for u in range(n)]
    ce = ag.edge_cap_unit
    scale = ag.scale
    source_scaled = [ag.source_cap(u) if in_seed[u] else 0 for u in range(n)]
    mask = 0
    cross = 0
    vol_a_out = sum(source_scaled)  # scaled volume of A - S
    sink_in = 0  # scaled sink capacity of S - A
    inside = [0] * n
    best_val = vol_a_out  # S = empty
    best_mask = 0
    for i in range(1, 1 << n):
        b = _gray_flip(i)
        if (mask >> b) & 1:
            mask &= ~(1 << b)
            cross -= deg[b] - 2 * inside[b]
            for w, k in mult[b].items():
                inside[w] -= k
            if in_seed[b]:
                vol_a_out += source_scaled[b]
            else:
                sink_in -= sink[b]
        else:
            mask |= 1 << b
            cross += deg[b] - 2 * inside[b]
            for w, k in mult[b].items():
                inside[w] += k
            if in_seed[b]:
                vol_a_out -= source_scaled[b]
            else:
                sink_in += sink[b]
        value = cross * ce + vol_a_out + sink_in
        if value < best_val:
            best_val = value
            best_mask = mask
    members = [u for u in range(n) if (best_mask >> u) & 1]
    return VertexSet(g, members), Fraction(best_val, scale)


def brute_min_quotient(
    g: Graph, a: VertexSet, eps: Fraction | None
) -> tuple[VertexSet, Fraction]:
    """Exhaustive minimum of the relative quotient over every subset where it is defined.

    The quotient is ``|E(S, V-S)| / (vol(S & A) - eps * vol(S - A))`` with
    a positive denominator; ``eps=None`` admits only subsets of ``A``. The
    seed set itself always qualifies. Returns the first minimizer in
    Gray-code order.
    """
    n = g.n
    _check_size(n)
    deg = [g.degree(u) for u in range(n)]
    mult = [Counter(g.adjacent(u)) for u in range(n)]
    in_seed = [u in a for u in range(n)]
    e_num, e_den = (1, 1) if eps is None else (eps.numerator, eps.denominator)
    mask = 0
    cross = 0
    inter = 0
    outside = 0
    inside = [0] * n
    best: tuple[int, int] | None = None  # quotient as (cross * e_den, denominator * e_den)
    best_mask = 0
    for i in range(1, 1 << n):
        b = _gray_flip(i)
        sign = -1 if (mask >> b) & 1 else 1
        mask ^= 1 << b
        cross += sign * (deg[b] - 2 * inside[b])
        for w, k in mult[b].items():
            inside[w] += sign * k
        if in_seed[b]:
            inter += sign * deg[b]
        else:
            outside += sign * deg[b]
        if eps is None and outside:
            continue
        denom = inter * e_den - e_num * outside
        if denom <= 0:
            continue
        if best is None or cross * e_den * best[1] < best[0] * denom:
            best = (cross * e_den, denom)
            best_mask = mask
    members = [u for u in range(n) if (best_mask >> u) & 1]
    return VertexSet(g, members), Fraction(*best)


def eval_condition_41(
    g: Graph,
    a: VertexSet,
    s_star: VertexSet,
    alpha: Fraction,
    eps: Fraction | None,
) -> bool:
    """Exact evaluation of the planted-set inequality.

    True iff ``|E(S*, V-S*)| / vol(S*)`` is strictly below
    ``alpha * (vol(A & S*) - eps * vol(S* - A)) / vol(S*)``. With an
    unbounded sink factor the right side is only finite when ``S*`` stays
    inside the seed set by volume.
    """
    if len(s_star) == 0:
        raise ParameterError("target set must be nonempty")
    cross = 0
    for u in s_star:
        for v in g.adjacent(u):
            if v not in s_star:
                cross += 1
    inter = intersection(s_star, a).volume
    outside = s_star.volume - inter
    if eps is None:
        if outside > 0:
            return False
        return Fraction(cross) < Fraction(alpha) * inter
    return Fraction(cross) < Fraction(alpha) * (inter - Fraction(eps) * outside)


def cut_value(ag: AugmentedGraph, s: VertexSet | Iterable[int]) -> Fraction:
    """Unscaled value of the cut ``({s} U S, {t} U (V - S))``.

    Accepts any subset of the base vertices, including the empty set
    (value ``vol(A)``) and the full set. Evaluates the actual stored
    capacities, so sink clamping is reflected.
    """
    g = ag.graph
    members = s if isinstance(s, VertexSet) else set(s)
    scaled = 0
    cross = 0
    for u in members:
        for v in g.adjacent(u):
            if v not in members:
                cross += 1
        if u not in ag.seed:
            scaled += ag.sink_cap(u)
    scaled += cross * ag.edge_cap_unit
    for u in ag.seed:
        if u not in members:
            scaled += ag.source_cap(u)
    return Fraction(scaled, ag.scale)


def cut_certificate_check(ag: AugmentedGraph, s: VertexSet) -> tuple[bool, Fraction]:
    """Accept ``s`` as a conductance certificate if its cut value allows it.

    Returns ``(True, conductance(s))`` after independently re-verifying
    that the conductance is below ``alpha`` on the base graph.

    Raises:
        NotACertificateError: if ``cut_value(ag, s) >= vol(A)``.
        InvariantViolation: if the cut value is small but the
            conductance bound fails; possible only when ``eps`` was
            chosen below ``vol(A)/vol(V-A)``.
    """
    value = cut_value(ag, s)
    vol_a = Fraction(ag.seed.volume)
    if value >= vol_a:
        raise NotACertificateError(f"cut value {value} is not below vol(A) = {vol_a}")
    phi = conductance(ag.graph, s)
    if phi >= ag.alpha:
        raise InvariantViolation(
            f"cut value {value} < vol(A) but conductance {phi} >= alpha "
            f"{ag.alpha}; eps={ag.eps} is below vol(A)/vol(V-A)"
        )
    return True, phi


def flow_certificate_bound(ag: AugmentedGraph, s: VertexSet) -> Fraction | None:
    """Lower bound on ``|E(S, V-S)| / vol(S)`` implied by a full-value flow.

    The caller is responsible for having checked that a flow of value
    ``vol(A)`` exists. Returns
    ``alpha * ((1 + eps) * vol(A & S) / vol(S) - eps)``, which may be
    nonpositive (vacuous) for sets with little seed overlap. With an
    unbounded sink factor the bound is ``alpha`` for sets inside the
    seed volume and ``None`` (vacuous, minus infinity) otherwise.

    Raises:
        ParameterError: if ``s`` has volume 0, as the empty set does.
    """
    vol_s = Fraction(s.volume)
    if vol_s == 0:
        raise ParameterError("bound is undefined for a set of volume 0")
    overlap = Fraction(intersection(s, ag.seed).volume) / vol_s
    if ag.eps is None:
        return ag.alpha if overlap == 1 else None
    return ag.alpha * ((1 + ag.eps) * overlap - ag.eps)


def routing_check(fs: FlowState) -> RoutingCheck:
    """The verdict on the certificate ``fs`` writes, as ``certify --check`` reads it.

    The certificate states the flow's own alpha, sink factor and seed set,
    so the demand is the seed's degrees, each sink absorbs at most
    ``eps * deg`` and each edge carries at most ``1/alpha`` per unit of
    multiplicity.
    """
    text = io.StringIO()
    write_certificate(text, fs)
    text.seek(0)
    return validate_certificate(text, fs.ag.graph, fs.ag.seed)


def net_outflow(fs: FlowState, members: VertexSet | set[int]) -> Fraction:
    """Net flow ``fs`` sends from ``members`` to the rest over base edges, in demand units."""
    n = fs.ag.graph.n
    to = fs.arc_to
    out = 0
    for a, f in enumerate(fs.arc_flow):
        if f > 0 and to[a] < n and to[a ^ 1] < n:
            out += f * ((to[a ^ 1] in members) - (to[a] in members))
    return Fraction(out, fs.ag.scale)


def expansion_lower_bound(g: Graph, fs: FlowState, s: VertexSet, alpha: Fraction) -> Fraction:
    """``alpha`` times the net demand the flow routes out of ``s``.

    Requires a verified full-demand routing (raises otherwise). The bound
    is certified: it never exceeds the actual boundary size, and it is at
    least ``alpha * (vol(A & S) - eps * vol(S - A))``.
    """
    ag = fs.ag
    check = routing_check(fs)
    if not check.ok:
        raise NotACertificateError(
            "flow does not route the full demand: " + "; ".join(check.violations[:3])
        )
    routed = net_outflow(fs, s)
    bound = Fraction(alpha) * routed
    if bound > boundary_edges(g, s):
        raise InvariantViolation("certified bound exceeds the actual boundary size")
    inter = intersection(s, ag.seed).volume
    outside = s.volume - inter
    if ag.eps is not None and routed < inter - ag.eps * outside:
        raise InvariantViolation("routed demand fell below its guaranteed minimum")
    return bound


def peel_paths(fs: FlowState) -> list[tuple[tuple[int, ...], int]]:
    """Split the flow into source-to-sink paths, shortest first, as ``(interior, amount)``.

    The arcs of positive flow form a flow of the same value (the flow is
    antisymmetric), so while value remains a source-to-sink path of them
    exists, and peeling its bottleneck keeps that so. Circulation the
    peeling leaves behind carries no demand and appears in no path.
    Amounts are scaled; they add up to ``fs.value``.
    """
    s = fs.ag.source_id
    t = fs.ag.sink_id
    # one arc pair per vertex pair, so each positive arc is its pair's only entry
    pos: dict[int, dict[int, int]] = {}
    for a, f in enumerate(fs.arc_flow):
        if f > 0:
            pos.setdefault(fs.arc_to[a ^ 1], {})[fs.arc_to[a]] = f
    paths: list[tuple[tuple[int, ...], int]] = []
    remaining = fs.value
    while remaining > 0:
        parent = {s: s}
        dq = deque([s])
        while dq and t not in parent:
            u = dq.popleft()
            for v in sorted(pos.get(u, ())):
                if v not in parent:
                    parent[v] = u
                    dq.append(v)
        if t not in parent:
            raise InvariantViolation("flow value positive but no source-sink path remains")
        path = [t]
        while path[-1] != s:
            path.append(parent[path[-1]])
        path.reverse()
        steps = list(zip(path, path[1:]))
        amount = min(remaining, *(pos[u][v] for u, v in steps))
        for u, v in steps:
            pos[u][v] -= amount
            if pos[u][v] == 0:
                del pos[u][v]
        paths.append((tuple(path[1:-1]), amount))
        remaining -= amount
    return paths


def path_length_certificate(
    paths: Iterable[tuple[int, ...]], alpha: Fraction, vol_a: int, sigma: Fraction
) -> bool:
    """Do all paths (interior vertices only) respect the phase-budget length bound?

    A flow assembled from at most ``I`` blocking-flow phases routes along
    paths of at most ``I + 2`` arcs (the source and sink arcs included).
    """
    bound = phase_budget(vol_a, sigma, alpha) + 2
    return all(len(path) + 1 <= bound for path in paths)


def capped_flow(
    g: Graph, a: VertexSet, alpha: Fraction, eps: Fraction | None, phases: int
) -> LocalFlowResult:
    """``local_flow`` stopped after at most ``phases`` phases instead of its phase budget.

    Below the budget the layer cut keeps no conductance guarantee.
    """
    return _localized_dinic(build(g, a, alpha, eps), phases, None)


def push(fs: FlowState, a: int, amount: int) -> None:
    """Push ``amount`` along arc ``a``, checking its capacity; a sink arc adds to the flow value."""
    flow = fs.arc_flow
    flow[a] += amount
    flow[a ^ 1] -= amount
    if flow[a] > fs.arc_cap[a]:
        raise InvariantViolation("push exceeded arc capacity")
    if fs.arc_to[a] == fs.ag.sink_id:
        fs.value += amount


def _sorted_arcs(fs: FlowState, v: int) -> list[int]:
    """Arcs out of ``v`` in target-id order, sorted afresh on every call."""
    return sorted(fs.arcs_of.get(v, ()), key=fs.arc_to.__getitem__)


def reference_bfs_distances(fs: FlowState) -> dict[int, int]:
    """Unit labels from the source over positive-residual arcs, in BFS discovery order.

    Each vertex's arcs are scanned in target-id order; the sink is labeled
    but never expanded.
    """
    s = fs.ag.source_id
    t = fs.ag.sink_id
    dist: dict[int, int] = {s: 0}
    dq: deque[int] = deque([s])
    while dq:
        u = dq.popleft()
        if u == t:
            continue
        dv = dist[u] + 1
        for a in _sorted_arcs(fs, u):
            if fs.arc_cap[a] > fs.arc_flow[a]:
                v = fs.arc_to[a]
                if v not in dist:
                    dist[v] = dv
                    dq.append(v)
    return dist


def reference_blocking_flow(fs: FlowState, dist: dict[int, int]) -> int:
    """Saturate the admissible graph of ``dist`` with a current-arc DFS; return the amount pushed.

    An arc is admissible when it has residual capacity, leads to a vertex
    that is not a dead end, raises the label by exactly one, and ends at
    the sink or below its label. Every push goes through :func:`push`.
    """
    s = fs.ag.source_id
    t = fs.ag.sink_id
    if t not in dist:
        return 0
    dt = dist[t]
    to, cap, flow = fs.arc_to, fs.arc_cap, fs.arc_flow
    ptr: dict[int, int] = {}
    dead: set[int] = set()
    path: list[int] = []
    total = 0
    v = s
    while True:
        if v == t:
            bottleneck = min(cap[a] - flow[a] for a in path)
            for a in path:
                push(fs, a, bottleneck)
            total += bottleneck
            for i, a in enumerate(path):
                if cap[a] == flow[a]:
                    del path[i:]
                    break
            v = to[path[-1]] if path else s
            continue
        arcs = _sorted_arcs(fs, v)
        i = ptr.get(v, 0)
        dv = dist.get(v)
        while i < len(arcs):
            a = arcs[i]
            w = to[a]
            if (
                cap[a] > flow[a]
                and w not in dead
                and dist.get(w) == dv + 1
                and (w == t or dist[w] < dt)
            ):
                break
            i += 1
        ptr[v] = i
        if i < len(arcs):
            path.append(arcs[i])
            v = to[arcs[i]]
            continue
        if v == s:
            return total
        dead.add(v)
        v = to[path.pop() ^ 1]


def networkx_max_flow_value(ag: AugmentedGraph) -> int:
    """The scaled max-flow value of ``ag``, by networkx on the augmented graph built in full.

    The network is built here from ``ag``'s capacities alone: ``s -> u``
    of ``source_cap(u)`` for each seed ``u``, ``v -> t`` of ``sink_cap(v)``
    for each other vertex, and multiplicity times ``edge_cap_unit`` each
    way on each edge. The capacities are Python ints, so the value is
    exact; scipy's ``maximum_flow`` would wrap them to int32.
    """
    g = ag.graph
    net = nx.DiGraph()
    net.add_nodes_from(("s", "t"))
    for u in ag.seed:
        net.add_edge("s", u, capacity=ag.source_cap(u))
    for v in range(g.n):
        if v not in ag.seed:
            net.add_edge(v, "t", capacity=ag.sink_cap(v))
    for (u, v), mult in Counter(edges(g)).items():
        net.add_edge(u, v, capacity=mult * ag.edge_cap_unit)
        net.add_edge(v, u, capacity=mult * ag.edge_cap_unit)
    return nx.maximum_flow_value(net, "s", "t")


def reference_max_flow(ag: AugmentedGraph) -> tuple[FlowState, VertexSet]:
    """Max flow and minimal min cut of ``ag``, by reference phases on every vertex.

    The cut is the base vertices that the final residual graph reaches
    from the source. Only the arc lists of :meth:`FlowState.open_all` are
    shared with the localized solvers.
    """
    fs = FlowState(ag)
    fs.open_all()
    while ag.sink_id in (dist := reference_bfs_distances(fs)):
        if not reference_blocking_flow(fs, dist):
            raise InvariantViolation("reachable sink but nothing pushed")
    return fs, VertexSet(ag.graph, (v for v in dist if v < ag.graph.n))
