"""Immutable undirected multigraph with conductance/volume vocabulary.

Vertices are integers ``0..n-1``. Parallel edges are allowed and counted
with multiplicity everywhere (degrees, volumes, boundary sizes); self-loops
are rejected at construction. Adjacency is stored in CSR form so a graph
with millions of edges stays compact and cheap to share between runs.

All conductance and volume arithmetic is exact (integers and
:class:`fractions.Fraction`); nothing in this module touches floating
point.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .errors import ParameterError

__all__ = [
    "Graph",
    "VertexSet",
    "volume",
    "boundary_edges",
    "conductance",
    "neighbors",
    "induced_subgraph",
]

# the largest vertex count whose arc keys tail*n+head fit in int64
_MAX_N = 3_037_000_499


class Graph:
    """Undirected multigraph on vertices ``0..n-1``.

    Args:
        n: Number of vertices.
        edges: Iterable of ``(u, v)`` endpoint pairs. Repeated pairs are
            kept as parallel edges. Self-loops raise ``ValueError``.
    """

    __slots__ = ("_n", "_m", "_off", "_flat")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if isinstance(edges, np.ndarray):
            pairs = edges.reshape(-1, 2).astype(np.int64, copy=False)
        else:
            seq = edges if isinstance(edges, (list, tuple)) else list(edges)
            pairs = np.array(seq, dtype=np.int64).reshape(-1, 2) if seq else np.empty((0, 2), np.int64)
        m = len(pairs)
        if m:
            if pairs.min() < 0 or pairs.max() >= n:
                bad = pairs[(pairs.min(axis=1) < 0) | (pairs.max(axis=1) >= n)][0]
                raise ValueError(f"edge ({bad[0]}, {bad[1]}) out of range for n={n}")
            loops = pairs[:, 0] == pairs[:, 1]
            if loops.any():
                raise ValueError(f"self-loop at vertex {pairs[loops.argmax(), 0]}")
        if n > _MAX_N:
            raise ValueError(f"vertex count {n} exceeds {_MAX_N}")
        # CSR with each adjacency run sorted: one sort of the arc keys tail*n+head
        u, v = pairs[:, 0], pairs[:, 1]
        key = np.concatenate([u * n + v, v * n + u])
        key.sort()
        off_np = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(u, minlength=n) + np.bincount(v, minlength=n), out=off_np[1:])
        self._set_csr(n, m, key, off_np)

    @classmethod
    def from_sorted_arcs(cls, n: int, keys: np.ndarray) -> Graph:
        """Graph whose sorted int64 arc keys ``tail*n+head`` are ``keys``.

        Every edge appears once from each end. Nothing is validated, so
        the caller vouches for a symmetric key set within ``0..n*n-1``
        with no self-loops; ``keys`` is overwritten.
        """
        off_np = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum(np.bincount(keys // n, minlength=n), out=off_np[1:])
        g = cls.__new__(cls)
        g._set_csr(n, len(keys) // 2, keys, off_np)
        return g

    def _set_csr(self, n: int, m: int, key: np.ndarray, off_np: np.ndarray) -> None:
        """Store the CSR of the sorted arc keys ``key`` (overwritten) and offsets."""
        if n:
            np.remainder(key, n, out=key)
        off = array("q")
        off.frombytes(off_np.data.cast("B"))
        flat = array("q")
        flat.frombytes(key.data.cast("B"))
        self._n = n
        self._m = m
        self._off = off
        self._flat = flat

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        """Number of edges, counting parallel edges with multiplicity."""
        return self._m

    @property
    def total_volume(self) -> int:
        """``vol(V) = 2m``, the sum of all degrees."""
        return 2 * self._m

    def degree(self, u: int) -> int:
        return self._off[u + 1] - self._off[u]

    def adjacent(self, u: int):
        """Neighbors of ``u`` in sorted order, repeated per parallel edge."""
        return self._flat[self._off[u] : self._off[u + 1]]

    def neighbor_multiplicities(self, u: int) -> list[tuple[int, int]]:
        """Distinct neighbors of ``u`` with edge multiplicities, sorted."""
        out: list[tuple[int, int]] = []
        prev = -1
        count = 0
        for v in self.adjacent(u):
            if v == prev:
                count += 1
            else:
                if prev >= 0:
                    out.append((prev, count))
                prev = v
                count = 1
        if prev >= 0:
            out.append((prev, count))
        return out

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as ``(u, v)`` with ``u < v``, parallel edges repeated."""
        for u in range(self._n):
            for v in self.adjacent(u):
                if v > u:
                    yield (u, v)

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m})"


class VertexSet:
    """Sorted, deduplicated set of vertex ids with cached volume.

    Bound to the graph it was built from so that volume, complement and
    membership queries need no further context.
    """

    __slots__ = ("_graph", "_ids", "_members", "_volume")

    def __init__(self, graph: Graph, ids: Iterable[int]):
        members = frozenset(ids)
        for u in members:
            if not (0 <= u < graph.n):
                raise ParameterError(f"vertex id {u} out of range for n={graph.n}")
        self._graph = graph
        self._ids = tuple(sorted(members))
        self._members = members
        self._volume = sum(graph.degree(u) for u in self._ids)

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def ids(self) -> tuple[int, ...]:
        return self._ids

    @property
    def volume(self) -> int:
        return self._volume

    def __contains__(self, u: int) -> bool:
        return u in self._members

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self._graph is other._graph and self._ids == other._ids

    def __hash__(self) -> int:
        return hash((id(self._graph), self._ids))

    def union(self, other: Iterable[int]) -> "VertexSet":
        return VertexSet(self._graph, self._members.union(other))

    def intersection(self, other: Iterable[int]) -> "VertexSet":
        return VertexSet(self._graph, self._members.intersection(other))

    def difference(self, other: Iterable[int]) -> "VertexSet":
        return VertexSet(self._graph, self._members.difference(other))

    def complement(self) -> "VertexSet":
        g = self._graph
        return VertexSet(g, (u for u in range(g.n) if u not in self._members))

    def __repr__(self) -> str:
        ids = list(self._ids)
        shown = ids if len(ids) <= 8 else ids[:8] + ["..."]
        return f"VertexSet({shown}, vol={self._volume})"


def volume(g: Graph, s: VertexSet | Iterable[int]) -> int:
    """Sum of degrees over the members of ``s``."""
    if isinstance(s, VertexSet):
        return s.volume
    return sum(g.degree(u) for u in set(s))


def boundary_edges(g: Graph, s: VertexSet) -> int:
    """Number of edges with exactly one endpoint in ``s``, with multiplicity."""
    inside = s._members.__contains__
    return sum(g.degree(u) - sum(map(inside, g.adjacent(u))) for u in s._ids)


def conductance(g: Graph, s: VertexSet) -> Fraction:
    """Boundary edge count over the smaller side's volume, exactly.

    Raises:
        ParameterError: if ``s`` is empty or the whole vertex set.
    """
    if len(s) == 0 or len(s) == g.n:
        raise ParameterError("conductance is undefined for the empty or full set")
    vol_s = s.volume
    vol_rest = g.total_volume - vol_s
    return Fraction(boundary_edges(g, s), min(vol_s, vol_rest))


def neighbors(g: Graph, s: VertexSet) -> VertexSet:
    """Vertices outside ``s`` adjacent to at least one member of ``s``."""
    found: set[int] = set()
    for u in s:
        for v in g.adjacent(u):
            if v not in s:
                found.add(v)
    return VertexSet(g, found)


def induced_subgraph(g: Graph, s: VertexSet) -> Graph:
    """Subgraph on ``s`` with outgoing edges removed.

    Vertex ``i`` of the result corresponds to ``sorted(s)[i]``. Raises
    ``ParameterError`` on an empty set.
    """
    if len(s) == 0:
        raise ParameterError("cannot induce a subgraph on the empty set")
    relabel = {u: i for i, u in enumerate(s.ids)}
    edges = []
    for u in s:
        for v in g.adjacent(u):
            if v > u and v in s:
                edges.append((relabel[u], relabel[v]))
    return Graph(len(s), edges)
