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

Arc lists are ordered in one place, :meth:`FlowState.open_vertex`. An
opened vertex's list is sorted by target id as it opens and never changes
again, since a neighbor opened later skips it. An unopened vertex's list
holds its edge arcs in the order their other ends opened, then its sink
arc, which stays last. The source's list is built in ascending seed order,
and the sink's is never scanned.

One Dinic phase is :func:`bfs_distances` then :func:`blocking_flow`. The
BFS labels the layers up to the sink's and no further (every reachable
vertex when the sink is unreachable) and, while it expands a vertex, keeps
that vertex's residual arcs into the next layer, in list order: its
admissible arcs. The blocking flow walks only those lists, so it never
re-tests a label. The lists hold the arcs as they were when the labels
were computed; the blocking flow is their last reader and drops them
before it returns, so at most one phase's lists are alive at a time.

Flow conservation is checked in proportion to the work done. The blocking
flow returns the arcs of every path it pushed on, its push record, and
each phase checks antisymmetry and conservation only along that record;
the same record names the sink arcs the phase filled. A solver checks
every arc pair and every materialized vertex, with the source and sink
totals, once per run, just before it returns; the localized solvers
leave their last phase to that check.
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
        "opened",
        "value",
        "touched_volume",
    )

    def __init__(self, ag: AugmentedGraph):
        self.ag = ag
        self.arc_to: list[int] = []
        self.arc_cap: list[int] = []
        self.arc_flow: list[int] = []
        self.arcs_of: dict[int, list[int]] = {ag.source_id: [], ag.sink_id: []}
        self.opened: set[int] = set()
        self.value = 0
        self.touched_volume = 0
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
        left untouched. The copy is not checked here: the run that resumes
        it checks every inherited arc before returning, and scaling by one
        integer factor neither creates nor hides an imbalance.

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
        fs.opened = set(self.opened)
        fs.value = self.value * factor
        fs.touched_volume = self.touched_volume
        return fs

    def open_vertex(self, v: int) -> None:
        """Materialize all of ``v``'s edges; count its volume as touched.

        Each distinct neighbor not yet opened gets one edge pair of capacity
        multiplicity times ``edge_cap_unit`` each way, appended in neighbor
        order and followed by the neighbor's sink pair when it has none yet;
        ``v``'s own sink pair comes last. A base vertex has its sink pair
        exactly when it has an arc list and is not a seed: seeds get their
        lists in ``__init__``, every other vertex together with its sink pair.

        This is the only code that orders arc lists. The new arc into a
        neighbor that already has a list goes just before that list's last
        arc, so a non-seed's sink arc stays last. ``v``'s own list is then
        sorted by target id, on every open, including one that adds no arcs,
        and it never changes again.
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
        into_t = arcs_of[t]
        out_of_v = arcs_of.get(v)
        fresh = out_of_v is None
        if fresh:
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
            out_of_v.append(a)
            out_of_w = arcs_of.get(w)
            if out_of_w is None:
                to += (w, v, t, w)
                cap += (ce, ce, ag.sink_cap(w), 0)
                arcs_of[w] = [a + 1, a + 2]
                into_t.append(a + 3)
                a += 4
            else:
                to += (w, v)
                cap += (ce, ce)
                out_of_w.insert(-1, a + 1)  # the sink arc stays last
                a += 2
        if fresh:
            to += (t, v)
            cap += (ag.sink_cap(v), 0)
            out_of_v.append(a)
            into_t.append(a + 1)
            a += 2
        if a > first:
            self.arc_flow += [0] * (a - first)
        out_of_v.sort(key=to.__getitem__)
        opened.add(v)
        self.touched_volume += ag.graph.degree(v)

    def open_all(self) -> None:
        """Materialize every vertex; used by the global reference solver."""
        for v in range(self.ag.graph.n):
            self.open_vertex(v)

    @property
    def flow_value(self) -> Fraction:
        """Current s-t flow value in unscaled units."""
        return Fraction(self.value, self.ag.scale)

    def check_conservation(self, pushed: list[int] | None = None) -> None:
        """Assert antisymmetry of every arc pair and conservation at every materialized vertex.

        With antisymmetry, the flow summed over the arcs out of a vertex is
        its net outflow: zero inside, the flow value at the source and its
        negation at the sink.

        Given ``pushed``, the push record one :func:`blocking_flow` returned,
        only what those pushes changed is checked: antisymmetry of the
        recorded arcs' pairs and conservation at their heads other than the
        source and the sink, which are every vertex inside a pushed path.
        The solvers check phases so and make one full check before they
        return.
        """
        flow = self.arc_flow
        arcs_of = self.arcs_of
        ends = (self.ag.source_id, self.ag.sink_id)
        if pushed is None:
            broken = any(map(add, islice(flow, 0, None, 2), islice(flow, 1, None, 2)))
            inside = arcs_of.keys() - ends
        else:
            arcs = set(pushed)
            broken = any(flow[a] + flow[a ^ 1] for a in arcs)
            inside = set(map(self.arc_to.__getitem__, arcs)).difference(ends)
        if broken:
            a = next(a for a in range(0, len(flow), 2) if flow[a] + flow[a + 1])
            raise InvariantViolation(
                f"arc pair {a} is not antisymmetric: {flow[a]} and {flow[a + 1]}"
            )
        for v in inside:
            excess = 0
            for a in arcs_of[v]:  # a plain loop: faster here than sum(map(...))
                excess += flow[a]
            if excess:
                raise InvariantViolation(f"conservation violated at vertex {v}: {excess}")
        if pushed is None:
            s, t = ends
            flow_of = flow.__getitem__
            if (
                sum(map(flow_of, arcs_of[s])) != self.value
                or sum(map(flow_of, arcs_of[t])) != -self.value
            ):
                raise InvariantViolation("flow value disagrees with source/sink excess")


class DistanceLabels:
    """Unit-length shortest-path labels from the source over residual arcs.

    ``dist`` holds layers ``0..d(t)``, or every reachable vertex when the
    sink is unreachable, in the order the BFS labelled them, so its labels
    never decrease along it and each layer is one run. ``admissible`` maps
    each vertex below the sink's layer to its residual arcs into the next
    layer, in the order of its arc list; vertices with none are absent. It
    is ``None`` once :func:`blocking_flow` has run on these labels, its
    last reader; only ``dist`` is read after the phase.
    """

    __slots__ = ("dist", "admissible")

    def __init__(self, dist: dict[int, int], admissible: dict[int, list[int]]):
        self.dist = dist
        self.admissible: dict[int, list[int]] | None = admissible


def bfs_distances(fs: FlowState) -> DistanceLabels:
    """Shortest-path labels from ``s`` over positive-residual arcs, with admissible arcs.

    The lazily built arc structure confines the search to the materialized
    subgraph. The search stops when it dequeues the first vertex of the
    sink's layer, so that layer is labelled but none of it is expanded,
    and nothing beyond it is labelled: no blocking-flow path, cut or check
    reads past the sink. Each vertex's arcs are scanned in list order,
    which :meth:`FlowState.open_vertex` fixed: target-id order for the
    source and every opened vertex. Those into the next layer are kept as
    the vertex's admissible list.
    """
    s = fs.ag.source_id
    t = fs.ag.sink_id
    dist: dict[int, int] = {s: 0}
    admissible: dict[int, list[int]] = {}
    to = fs.arc_to
    cap = fs.arc_cap
    flow = fs.arc_flow
    arcs_of = fs.arcs_of
    order = [s]  # the BFS queue: the loop reads it while it grows
    dt = -1  # the sink's label, once it has one
    for u in order:
        du = dist[u]
        if du == dt:
            break
        du += 1
        out = []
        for a in arcs_of[u]:
            if cap[a] > flow[a]:
                v = to[a]
                if v not in dist:
                    dist[v] = du
                    order.append(v)
                    out.append(a)
                    if v == t:
                        dt = du
                elif dist[v] == du:
                    out.append(a)
        if out:
            admissible[u] = out
    return DistanceLabels(dist, admissible)


def blocking_flow(fs: FlowState, labels: DistanceLabels) -> list[int]:
    """Saturate the admissible graph of ``labels`` with a current-arc DFS; return the push record.

    The DFS walks the admissible lists that :func:`bfs_distances` left in
    ``labels``, re-checking only residual capacity and dead ends; at the
    sink's last layer only the sink arc advances. Below that layer every
    vertex is opened, so its list is in target-id order: the localized
    solvers check this before each call (``_check_layer_containment``) and
    :func:`global_max_flow` opens everything. So the DFS takes the same arcs
    in the same order as one that scans every arc in target-id order and
    tests labels, and pushes the same flow. Each push is applied in place,
    checked against the arc's capacity and added to ``fs.value``.

    Returns the push record: the arcs of every path pushed on, in push
    order, empty when nothing was pushed. The phase's conservation check
    and saturated-set update read it. The lists are dropped
    (``labels.admissible`` becomes ``None``), so a second call on the same
    labels raises.

    Raises:
        InvariantViolation: if a blocking flow already ran on ``labels``,
            or a push would exceed an arc's capacity.
    """
    admissible = labels.admissible
    if admissible is None:
        raise InvariantViolation("blocking flow on released labels")
    labels.admissible = None
    s = fs.ag.source_id
    t = fs.ag.sink_id
    pushed: list[int] = []
    dt = labels.dist.get(t)
    if dt is None:
        return pushed
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
            pushed += path
            total += bottleneck
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
            # only the sink arc advances here; open_vertex builds every list with it last
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
    return pushed


def check_label_monotone(prev: DistanceLabels, cur: DistanceLabels, t: int) -> None:
    """Assert no label of ``prev`` fell in ``cur``, and the sink distance grew.

    A Dinic phase raises the sink distance by at least one, so a sink
    labelled in both ``prev`` and ``cur`` must be strictly farther in
    ``cur``. Every label of ``prev`` is checked, which holds even while the
    localized solvers materialize more of the graph, because ``prev`` stops
    at the sink's layer ``d(t)``. A phase opens only the vertices whose
    sink arc it filled, which sit at ``d(t) - 1``, and every other
    unopened labelled vertex still has residual capacity to the sink, so it
    sits at ``d(t) - 1`` or beyond. So every arc added between two BFS
    passes joins vertices labelled at least ``d(t) - 1`` and lowers no
    label up to ``d(t)``; the blocking flow's reverse arcs lead down a
    layer and lower none either.
    """
    cd = cur.dist
    for v, d_old in prev.dist.items():
        d_new = cd.get(v)
        if d_new is not None and d_new < d_old:
            raise InvariantViolation(
                f"distance label decreased at vertex {v}: {d_old} -> {d_new}"
            )
    before = prev.dist.get(t)
    after = cd.get(t)
    if before is not None and after is not None and after <= before:
        raise InvariantViolation("sink distance failed to grow across a phase")


def global_max_flow(ag: AugmentedGraph) -> tuple[FlowState, VertexSet]:
    """Exact max flow and min cut by Dinic's algorithm over the full graph.

    The min cut is the source side of the final residual reachability,
    intersected with the base vertices. It materializes every vertex, and
    stays in ``src/`` only for the benchmark's exact-flow check until the
    benchmark next changes (the tests use ``oracle.reference_max_flow``).
    It uses the same :func:`bfs_distances` as the localized solvers, so
    each phase labels, and checks, only the layers up to the sink's. Every
    phase checks label monotonicity, sink-distance growth, and antisymmetry and
    conservation along the paths it pushed on; the whole flow is checked
    once before returning.
    """
    fs = FlowState(ag)
    fs.open_all()
    t = ag.sink_id
    prev: DistanceLabels | None = None
    while True:
        labels = bfs_distances(fs)
        if prev is not None:
            check_label_monotone(prev, labels, t)
        if t not in labels.dist:
            break
        pushed = blocking_flow(fs, labels)
        if not pushed:
            raise InvariantViolation("reachable sink but nothing pushed")
        fs.check_conservation(pushed)
        prev = labels
    fs.check_conservation()
    if fs.value > ag.source_total:
        raise InvariantViolation("flow value exceeds total source capacity")
    n = ag.graph.n
    cut = VertexSet(ag.graph, (v for v in labels.dist if v < n))
    return fs, cut
