"""Residual-arc machinery, distance labels, blocking flow, and a Dinic solver.

Arcs are paired directed half-arcs (arc ``i`` and ``i ^ 1`` are reverses),
so a push updates both residuals in O(1) and antisymmetry is structural.
All vertex-indexed state lives in dicts keyed by vertex id: a flow over a
huge graph pays only for the vertices it actually materializes. A vertex is
*opened* when its full adjacency is turned into arcs; vertices merely
adjacent to opened ones get just their sink arc. Keeping the open set to
the seed set plus the saturated set is exactly what makes the localized
solvers local, while :func:`FlowState.open_all` materializes everything for
the global reference solver.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .augmented import AugmentedGraph
from .errors import InvariantViolation
from .graphs import VertexSet

__all__ = ["FlowState", "DistanceLabels", "bfs_distances", "blocking_flow", "global_max_flow"]


class FlowState:
    """Mutable flow over an :class:`AugmentedGraph` with lazily built arcs."""

    __slots__ = (
        "ag",
        "arc_to",
        "arc_cap",
        "arc_flow",
        "arcs_of",
        "_dirty",
        "opened",
        "_has_sink_arc",
        "value",
        "touched_volume",
        "newly_saturated",
    )

    def __init__(self, ag: AugmentedGraph):
        self.ag = ag
        self.arc_to: list[int] = []
        self.arc_cap: list[int] = []
        self.arc_flow: list[int] = []
        self.arcs_of: dict[int, list[int]] = {ag.source_id: [], ag.sink_id: []}
        self._dirty: set[int] = set()
        self.opened: set[int] = set()
        self._has_sink_arc: set[int] = set()
        self.value = 0
        self.touched_volume = 0
        self.newly_saturated: list[int] = []
        s = ag.source_id
        for u in ag.seed:
            self._add_pair(s, u, ag.source_cap(u), 0)
        for u in ag.seed:
            self.open_vertex(u)

    def resumed(self, ag: AugmentedGraph) -> FlowState:
        """A copy of this flow as the starting flow of the same instance at a lower alpha.

        ``ag`` must share this flow's graph, seed set and sink factor, have
        an alpha no higher than this flow's, and a scale that is a multiple
        of this flow's. Flows and source and sink capacities scale by the
        ratio of the scales; each edge arc becomes its multiplicity times
        ``ag.edge_cap_unit``, which is at least the scaled old capacity
        because ``1/alpha`` only grew. So the copy is a feasible flow on
        ``ag`` with the same saturated arcs and opened set. This flow is
        left untouched.

        Raises:
            InvariantViolation: on a different instance, a higher alpha, or
                a scale that is not a multiple of this flow's.
        """
        old = self.ag
        if ag.graph is not old.graph or ag.seed != old.seed or ag.eps != old.eps:
            raise InvariantViolation("a flow can only resume on its own graph, seed set and eps")
        if ag.alpha > old.alpha:
            raise InvariantViolation(f"alpha rose from {old.alpha} to {ag.alpha}")
        factor, rest = divmod(ag.scale, old.scale)
        if rest:
            raise InvariantViolation(f"scale {ag.scale} is not a multiple of {old.scale}")
        # pairs are (forward, reverse); only an edge pair has a reverse capacity
        unit_old = old.edge_cap_unit
        unit = ag.edge_cap_unit
        rev = [c // unit_old * unit for c in self.arc_cap[1::2]]
        cap = [0] * len(self.arc_cap)
        cap[1::2] = rev
        cap[0::2] = [r or c * factor for c, r in zip(self.arc_cap[0::2], rev)]
        fs = FlowState.__new__(FlowState)
        fs.ag = ag
        fs.arc_to = self.arc_to[:]
        fs.arc_cap = cap
        fs.arc_flow = [f * factor for f in self.arc_flow] if factor > 1 else self.arc_flow[:]
        fs.arcs_of = {v: arcs[:] for v, arcs in self.arcs_of.items()}
        fs._dirty = set(self._dirty)
        fs.opened = set(self.opened)
        fs._has_sink_arc = set(self._has_sink_arc)
        fs.value = self.value * factor
        fs.touched_volume = self.touched_volume
        fs.newly_saturated = self.newly_saturated[:]
        return fs

    def _add_pair(self, u: int, v: int, cap_uv: int, cap_vu: int) -> int:
        a = len(self.arc_to)
        self.arc_to.append(v)
        self.arc_to.append(u)
        self.arc_cap.append(cap_uv)
        self.arc_cap.append(cap_vu)
        self.arc_flow.append(0)
        self.arc_flow.append(0)
        lu = self.arcs_of.get(u)
        if lu is None:
            lu = self.arcs_of[u] = []
        lu.append(a)
        lv = self.arcs_of.get(v)
        if lv is None:
            lv = self.arcs_of[v] = []
        lv.append(a + 1)
        self._dirty.add(u)
        self._dirty.add(v)
        return a

    def _ensure_sink_arc(self, v: int) -> None:
        if v in self._has_sink_arc or v in self.ag.seed:
            return
        self._has_sink_arc.add(v)
        self._add_pair(v, self.ag.sink_id, self.ag.sink_cap(v), 0)

    def open_vertex(self, v: int) -> None:
        """Materialize all of ``v``'s edges; count its volume as touched."""
        if v in self.opened:
            return
        ag = self.ag
        ce = ag.edge_cap_unit
        opened = self.opened
        for w, mult in ag.graph.neighbor_multiplicities(v):
            if w not in opened:
                self._add_pair(v, w, mult * ce, mult * ce)
                self._ensure_sink_arc(w)
        self._ensure_sink_arc(v)
        opened.add(v)
        self.touched_volume += ag.graph.degree(v)

    def open_all(self) -> None:
        """Materialize every vertex; used by the global reference solver."""
        for v in range(self.ag.graph.n):
            self.open_vertex(v)

    def sorted_arcs(self, v: int) -> list[int]:
        """Arc ids out of ``v`` in target-id order (deterministic traversal)."""
        arcs = self.arcs_of.get(v)
        if arcs is None:
            return []
        if v in self._dirty:
            to = self.arc_to
            arcs.sort(key=lambda a: to[a])
            self._dirty.discard(v)
        return arcs

    def residual(self, a: int) -> int:
        return self.arc_cap[a] - self.arc_flow[a]

    def residual_capacity(self, u: int, v: int) -> int:
        """Residual capacity from ``u`` to ``v``; 0 if no arc pair exists."""
        for a in self.arcs_of.get(u, ()):
            if self.arc_to[a] == v:
                return self.arc_cap[a] - self.arc_flow[a]
        return 0

    def flow_between(self, u: int, v: int) -> int:
        """Net flow from ``u`` to ``v`` (negative if it runs the other way)."""
        for a in self.arcs_of.get(u, ()):
            if self.arc_to[a] == v:
                return self.arc_flow[a]
        return 0

    def push(self, a: int, amount: int) -> None:
        flow = self.arc_flow
        flow[a] += amount
        flow[a ^ 1] -= amount
        if flow[a] > self.arc_cap[a]:
            raise InvariantViolation("push exceeded arc capacity")
        to = self.arc_to[a]
        if to == self.ag.sink_id:
            self.value += amount
            if flow[a] == self.arc_cap[a]:
                self.newly_saturated.append(self.arc_to[a ^ 1])

    @property
    def flow_value(self) -> Fraction:
        """Current s-t flow value in unscaled units."""
        return Fraction(self.value, self.ag.scale)

    def check_conservation(self) -> None:
        """Assert flow conservation at every materialized vertex."""
        net: dict[int, int] = {}
        for a in range(0, len(self.arc_to), 2):
            f = self.arc_flow[a]
            if f:
                u = self.arc_to[a ^ 1]
                v = self.arc_to[a]
                net[u] = net.get(u, 0) + f
                net[v] = net.get(v, 0) - f
        s, t = self.ag.source_id, self.ag.sink_id
        for v, excess in net.items():
            if v == s or v == t:
                continue
            if excess != 0:
                raise InvariantViolation(f"conservation violated at vertex {v}: {excess}")
        if net.get(s, 0) != self.value or net.get(t, 0) != -self.value:
            raise InvariantViolation("flow value disagrees with source/sink excess")


class DistanceLabels:
    """Unit-length shortest-path labels from the source over residual arcs."""

    __slots__ = ("dist",)

    def __init__(self, dist: dict[int, int]):
        self.dist = dist

    def d(self, v: int) -> int | None:
        return self.dist.get(v)

    def sink_distance(self, fs: FlowState) -> int | None:
        return self.dist.get(fs.ag.sink_id)

    def layers(self, fs: FlowState) -> dict[int, list[int]]:
        """Base-graph vertices grouped by label, each group sorted."""
        n = fs.ag.graph.n
        out: dict[int, list[int]] = {}
        for v, d in self.dist.items():
            if v < n:
                out.setdefault(d, []).append(v)
        for group in out.values():
            group.sort()
        return out


def bfs_distances(fs: FlowState) -> DistanceLabels:
    """Shortest-path labels from ``s`` over positive-residual arcs.

    The lazily built arc structure confines the search to the materialized
    subgraph; the sink is labeled but never expanded.
    """
    s = fs.ag.source_id
    t = fs.ag.sink_id
    dist: dict[int, int] = {s: 0}
    dq: deque[int] = deque([s])
    to = fs.arc_to
    cap = fs.arc_cap
    flow = fs.arc_flow
    while dq:
        u = dq.popleft()
        if u == t:
            continue
        dv = dist[u] + 1
        for a in fs.sorted_arcs(u):
            if cap[a] > flow[a]:
                v = to[a]
                if v not in dist:
                    dist[v] = dv
                    dq.append(v)
    return DistanceLabels(dist)


def blocking_flow(fs: FlowState, labels: DistanceLabels) -> tuple[int, bool]:
    """Saturate the admissible graph of ``labels`` with a current-arc DFS.

    Admissible arcs advance the label by exactly one; the DFS retires each
    arc at most once per call. Returns ``(pushed, blocked)`` where
    ``blocked`` means the sink was unreachable on entry and nothing could
    be pushed.
    """
    s = fs.ag.source_id
    t = fs.ag.sink_id
    dist = labels.dist
    if t not in dist:
        return 0, True
    dt = dist[t]
    to = fs.arc_to
    cap = fs.arc_cap
    flow = fs.arc_flow
    ptr: dict[int, int] = {}
    dead: set[int] = set()
    path: list[int] = []
    total = 0
    v = s
    while True:
        if v == t:
            bottleneck = min(cap[a] - flow[a] for a in path)
            for a in path:
                fs.push(a, bottleneck)
            total += bottleneck
            for i, a in enumerate(path):
                if cap[a] == flow[a]:
                    del path[i:]
                    break
            v = to[path[-1]] if path else s
            continue
        arcs = fs.sorted_arcs(v)
        i = ptr.get(v, 0)
        dv = dist.get(v)
        advanced = False
        while i < len(arcs):
            a = arcs[i]
            w = to[a]
            if (
                cap[a] > flow[a]
                and w not in dead
                and dist.get(w) == dv + 1
                and (w == t or dist[w] < dt)
            ):
                ptr[v] = i
                path.append(a)
                v = w
                advanced = True
                break
            i += 1
        if not advanced:
            ptr[v] = i
            if v == s:
                break
            dead.add(v)
            a = path.pop()
            v = to[a ^ 1]
    return total, False


def check_label_monotone(
    prev: DistanceLabels, cur: DistanceLabels, t: int, exact_zone_only: bool = False
) -> None:
    """Assert labels never decreased between phases.

    With ``exact_zone_only`` the check covers the region where lazily
    materialized labels agree with the full graph's: vertices strictly
    below the previous sink distance, plus the sink. A vertex beyond that
    horizon may legitimately gain a shorter label once more of the graph is
    materialized. Fully materialized solvers check every vertex.
    """
    pd = prev.dist
    cd = cur.dist
    horizon = pd.get(t)
    for v, d_old in pd.items():
        if exact_zone_only and horizon is not None and v != t and d_old >= horizon:
            continue
        d_new = cd.get(v)
        if d_new is not None and d_new < d_old:
            raise InvariantViolation(
                f"distance label decreased at vertex {v}: {d_old} -> {d_new}"
            )


def global_max_flow(ag: AugmentedGraph, validate: bool = True) -> tuple[FlowState, VertexSet]:
    """Exact max flow and min cut by Dinic's algorithm over the full graph.

    The min cut is the source side of the final residual reachability,
    intersected with the base vertices. Used as the global reference
    oracle; materializes every vertex, so keep instances moderate.
    """
    fs = FlowState(ag)
    fs.open_all()
    t = ag.sink_id
    prev: DistanceLabels | None = None
    while True:
        labels = bfs_distances(fs)
        if validate and prev is not None:
            check_label_monotone(prev, labels, t)
            dt_prev, dt_cur = prev.dist.get(t), labels.dist.get(t)
            if dt_cur is not None and dt_prev is not None and dt_cur < dt_prev + 1:
                raise InvariantViolation("sink distance failed to grow across a phase")
        if t not in labels.dist:
            break
        pushed, _ = blocking_flow(fs, labels)
        if pushed == 0:
            raise InvariantViolation("reachable sink but nothing pushed")
        if validate:
            fs.check_conservation()
        prev = labels
    if fs.value > ag.source_total:
        raise InvariantViolation("flow value exceeds total source capacity")
    n = ag.graph.n
    cut = VertexSet(ag.graph, (v for v in labels.dist if v < n))
    return fs, cut
