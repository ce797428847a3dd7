"""Immutable undirected multigraph with conductance/volume vocabulary.

Vertices are integers ``0..n-1``. Parallel edges are allowed and counted
with multiplicity everywhere (degrees, volumes, boundary sizes); self-loops
are rejected at construction. Adjacency is stored in CSR form so a graph
with millions of edges stays compact and cheap to share between runs: an
int64 offsets array and an int64 array of heads, each adjacency run sorted,
served as read-only memoryviews with no copy. The build sorts the arc
keys ``tail*n+head`` once, in place, in the array that then becomes the
heads, so its peak memory is that array, the offsets and one degree count
(about 1.2 times the finished CSR on a ring of cliques).

All conductance and volume arithmetic is exact (integers and
:class:`fractions.Fraction`); nothing in this module touches floating
point.
"""

from __future__ import annotations

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

    ``adjacent(u)`` is a read-only view of ``u``'s sorted neighbours, one
    entry per parallel edge, that yields ``int``; a ``Graph`` pickles and
    deep-copies through its two arrays.

    Args:
        n: Number of vertices, at most ``3_037_000_499`` so that the arc
            keys fit in int64.
        edges: Iterable of ``(u, v)`` endpoint pairs, or an integer array
            of shape ``(m, 2)`` (any strides). Repeated pairs are kept as
            parallel edges. Self-loops raise ``ValueError``.
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
        # CSR with each adjacency run sorted: one in-place sort of the arc keys
        # tail*n+head, written straight into the one array that becomes the heads
        u, v = pairs[:, 0], pairs[:, 1]
        key = np.empty(2 * m, dtype=np.int64)
        np.multiply(u, n, out=key[:m])
        key[:m] += v
        np.multiply(v, n, out=key[m:])
        key[m:] += u
        key.sort()
        self._set_csr(n, m, key, np.bincount(pairs.ravel(), minlength=n))

    @classmethod
    def from_sorted_arcs(cls, n: int, keys: np.ndarray, degrees: np.ndarray) -> Graph:
        """Graph whose sorted int64 arc keys ``tail*n+head`` are ``keys``.

        Every edge appears once from each end, and ``degrees[u]`` counts the
        keys with tail ``u``. Nothing is validated, so the caller vouches for
        a symmetric key set within ``0..n*n-1`` with no self-loops and for
        ``degrees``; ``keys`` is overwritten and kept.
        """
        g = cls.__new__(cls)
        g._set_csr(n, len(keys) // 2, keys, degrees)
        return g

    def _set_csr(self, n: int, m: int, key: np.ndarray, degrees: np.ndarray) -> None:
        """Reduce the sorted arc keys ``key`` to heads in place and store the CSR."""
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=off[1:])
        if n:
            np.remainder(key, n, out=key)
        self.__setstate__((n, m, off, key))

    # a memoryview cannot be pickled or copied, so pickle and deepcopy go
    # through the numpy arrays it views
    def __getstate__(self) -> tuple[int, int, np.ndarray, np.ndarray]:
        return self._n, self._m, np.asarray(self._off), np.asarray(self._flat)

    def __setstate__(self, state: tuple[int, int, np.ndarray, np.ndarray]) -> None:
        n, m, off, flat = state
        self._n = n
        self._m = m
        # read-only views of the int64 arrays: no copy, and ints on indexing
        self._off = memoryview(off).toreadonly()
        self._flat = memoryview(flat).toreadonly()

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
