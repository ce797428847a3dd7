"""Residual-arc machinery, distance labels, blocking flow, and a Dinic solver.

Arcs are paired directed half-arcs (arc ``i`` and ``i ^ 1`` are reverses),
so a push updates both residuals in O(1). All vertex-indexed state lives in
dicts keyed by vertex id: a flow over a huge graph pays only for the
vertices it actually materializes. A vertex is *opened* when its full
adjacency is turned into arcs; vertices merely adjacent to opened ones get
just their sink arc. The localized solvers open the seed set and then
each vertex whose sink arc fills, so ``FlowState.opened`` is the seed set
plus the saturated set; keeping it so is exactly what makes them local,
while :func:`FlowState.open_all` materializes everything for the global
reference solver.

One Dinic phase is :func:`bfs_distances` then :func:`blocking_flow`. The
BFS labels every reachable vertex and, while it expands a vertex, keeps
that vertex's residual arcs into the next layer in target-id order: its
admissible arcs. The blocking flow walks only those lists, so it never
re-tests a label. The lists hold the arcs as they were when the labels
were computed; the solvers drop them once the phase's blocking flow is
done (:meth:`DistanceLabels.release`), so at most one phase's lists are
alive at a time.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from operator import add

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
        "_sink_done",
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
        # vertices that have their sink arc, or never get one (the seed)
        self._sink_done: set[int] = set(ag.seed)
        self.value = 0
        self.touched_volume = 0
        self.newly_saturated: list[int] = []
        s = ag.source_id
        out_of_s = self.arcs_of[s]
        for u in ag.seed:  # ascending, so every list starts sorted
            a = len(self.arc_to)
            self.arc_to += (u, s)
            self.arc_cap += (ag.source_cap(u), 0)
            self.arc_flow += (0, 0)
            out_of_s.append(a)
            self.arcs_of[u] = [a + 1]
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
        fs._sink_done = set(self._sink_done)
        fs.value = self.value * factor
        fs.touched_volume = self.touched_volume
        fs.newly_saturated = self.newly_saturated[:]
        return fs

    def open_vertex(self, v: int) -> None:
        """Materialize all of ``v``'s edges; count its volume as touched.

        Each distinct neighbor not yet opened gets one edge pair of capacity
        multiplicity times ``edge_cap_unit`` each way, appended in neighbor
        order and followed by the neighbor's sink pair when it has none yet;
        ``v``'s own sink pair comes last.
        """
        opened = self.opened
        if v in opened:
            return
        ag = self.ag
        ce = ag.edge_cap_unit
        t = ag.sink_id
        to = self.arc_to
        cap = self.arc_cap
        arcs_of = self.arcs_of
        dirty = self._dirty
        sink_done = self._sink_done
        into_t = arcs_of[t]
        out_of_v = arcs_of.get(v)
        if out_of_v is None:
            out_of_v = arcs_of[v] = []
        first = a = len(to)
        prev = edge = -1
        # the adjacency is sorted, so parallel edges are consecutive: each
        # repeat widens the pair of its first copy, which ends at mult * ce
        for w in ag.graph.adjacent(v):
            if w == prev:
                if edge >= 0:
                    cap[edge] += ce
                    cap[edge + 1] += ce
                continue
            prev = w
            if w in opened:
                edge = -1
                continue
            edge = a
            to += (w, v)
            cap += (ce, ce)
            out_of_v.append(a)
            out_of_w = arcs_of.get(w)
            if out_of_w is None:
                out_of_w = arcs_of[w] = []
            out_of_w.append(a + 1)
            dirty.add(w)
            a += 2
            if w not in sink_done:
                sink_done.add(w)
                to += (t, w)
                cap += (ag.sink_cap(w), 0)
                out_of_w.append(a)
                into_t.append(a + 1)
                a += 2
        if v not in sink_done:
            sink_done.add(v)
            to += (t, v)
            cap += (ag.sink_cap(v), 0)
            out_of_v.append(a)
            into_t.append(a + 1)
            a += 2
        if a > first:
            self.arc_flow += [0] * (a - first)
            dirty.add(v)
            dirty.add(t)
        opened.add(v)
        self.touched_volume += ag.graph.degree(v)

    def open_all(self) -> None:
        """Materialize every vertex; used by the global reference solver."""
        for v in range(self.ag.graph.n):
            self.open_vertex(v)

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
        """Push ``amount`` along arc ``a``; :func:`blocking_flow` inlines this."""
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
        """Assert antisymmetry of every arc pair and conservation at every materialized vertex.

        With antisymmetry, the flow summed over the arcs out of a vertex is
        its net outflow: zero inside, the flow value at the source and its
        negation at the sink.
        """
        flow = self.arc_flow
        if any(map(add, islice(flow, 0, None, 2), islice(flow, 1, None, 2))):
            a = next(a for a in range(0, len(flow), 2) if flow[a] + flow[a + 1])
            raise InvariantViolation(
                f"arc pair {a} is not antisymmetric: {flow[a]} and {flow[a + 1]}"
            )
        s, t = self.ag.source_id, self.ag.sink_id
        flow_of = flow.__getitem__
        for v, arcs in self.arcs_of.items():
            excess = sum(map(flow_of, arcs))
            if excess and v != s and v != t:
                raise InvariantViolation(f"conservation violated at vertex {v}: {excess}")
        if (
            sum(map(flow_of, self.arcs_of[s])) != self.value
            or sum(map(flow_of, self.arcs_of[t])) != -self.value
        ):
            raise InvariantViolation("flow value disagrees with source/sink excess")


class DistanceLabels:
    """Unit-length shortest-path labels from the source over residual arcs.

    ``admissible`` maps each vertex the BFS expanded before it dequeued the
    sink (all vertices below the sink's layer among them) to its residual
    arcs into the next layer, in target-id order; vertices with none are
    absent. It is ``None`` once released.
    """

    __slots__ = ("dist", "admissible")

    def __init__(self, dist: dict[int, int], admissible: dict[int, list[int]]):
        self.dist = dist
        self.admissible: dict[int, list[int]] | None = admissible

    def release(self) -> None:
        """Drop the admissible lists; only ``dist`` is needed after the phase."""
        self.admissible = None

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
    """Shortest-path labels from ``s`` over positive-residual arcs, with admissible arcs.

    The lazily built arc structure confines the search to the materialized
    subgraph; the sink is labeled but never expanded. Each vertex's arcs
    are scanned in target-id order, and those into the next layer are kept
    as its admissible list. Vertices dequeued after the sink sit at or
    beyond its layer and keep no list: no blocking-flow path enters them.
    """
    s = fs.ag.source_id
    t = fs.ag.sink_id
    dist: dict[int, int] = {s: 0}
    admissible: dict[int, list[int]] = {}
    to = fs.arc_to
    cap = fs.arc_cap
    flow = fs.arc_flow
    arcs_of = fs.arcs_of
    dirty = fs._dirty
    by_target = to.__getitem__
    order = [s]  # the BFS queue: the loops read it while it grows
    queue = iter(order)
    for u in queue:
        if u == t:
            break
        du = dist[u] + 1
        arcs = arcs_of[u]
        if u in dirty:
            arcs.sort(key=by_target)
            dirty.discard(u)
        out = []
        for a in arcs:
            if cap[a] > flow[a]:
                v = to[a]
                if v not in dist:
                    dist[v] = du
                    order.append(v)
                    out.append(a)
                elif dist[v] == du:
                    out.append(a)
        if out:
            admissible[u] = out
    # everything queued after the sink sits at or beyond its layer: label only
    for u in queue:
        du = dist[u] + 1
        arcs = arcs_of[u]
        if u in dirty:
            arcs.sort(key=by_target)
            dirty.discard(u)
        for a in arcs:
            if cap[a] > flow[a]:
                v = to[a]
                if v not in dist:
                    dist[v] = du
                    order.append(v)
    return DistanceLabels(dist, admissible)


def blocking_flow(fs: FlowState, labels: DistanceLabels) -> tuple[int, bool]:
    """Saturate the admissible graph of ``labels`` with a current-arc DFS.

    The DFS walks the admissible lists that :func:`bfs_distances` left in
    ``labels``, re-checking only residual capacity and dead ends; at the
    sink's last layer only the sink arc advances. It takes the same arcs in
    the same order as a DFS that scans every arc and tests labels, so it
    pushes the same flow. Each push is applied in place, with the capacity
    check of :meth:`FlowState.push`. The lists are left intact: a second
    call on the same labels finds no admissible path and pushes nothing.
    Returns ``(pushed, blocked)`` where ``blocked`` means the sink was
    unreachable on entry and nothing could be pushed.

    Raises:
        InvariantViolation: if the labels were released, or a push would
            exceed an arc's capacity.
    """
    s = fs.ag.source_id
    t = fs.ag.sink_id
    dt = labels.dist.get(t)
    if dt is None:
        return 0, True
    admissible = labels.admissible
    if admissible is None:
        raise InvariantViolation("blocking flow on released labels")
    to = fs.arc_to
    cap = fs.arc_cap
    flow = fs.arc_flow
    last = dt - 1  # the depth, and so the label, of the layer below the sink
    ptr: dict[int, int] = {}
    dead: set[int] = set()
    path: list[int] = []
    total = 0
    v = s
    while True:
        if v == t:
            bottleneck = min([cap[a] - flow[a] for a in path])
            cut = None
            for i, a in enumerate(path):
                f = flow[a] + bottleneck
                c = cap[a]
                if f > c:
                    raise InvariantViolation("push exceeded arc capacity")
                flow[a] = f
                flow[a ^ 1] -= bottleneck
                if f == c and cut is None:
                    cut = i
            total += bottleneck
            a = path[-1]  # the sink arc
            if flow[a] == cap[a]:
                fs.newly_saturated.append(to[a ^ 1])
            del path[cut:]
            v = to[path[-1]] if path else s
            continue
        arcs = admissible.get(v, ())
        if len(path) < last:
            i = ptr.get(v, 0)
            end = len(arcs)
            while i < end:
                a = arcs[i]
                if cap[a] > flow[a] and to[a] not in dead:
                    break
                i += 1
            if i < end:
                ptr[v] = i
                path.append(a)
                v = to[a]
                continue
        elif arcs:
            # only the sink arc advances here; it sorts last, as t has the largest id
            a = arcs[-1]
            if to[a] == t and cap[a] > flow[a]:
                path.append(a)
                v = t
                continue
        if v == s:
            break
        dead.add(v)
        v = to[path.pop() ^ 1]
    fs.value += total
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
        labels.release()
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
