"""Immutable undirected multigraph with conductance/volume vocabulary.

Vertices are integers ``0..n-1``. Parallel edges are allowed and counted
with multiplicity everywhere (degrees, volumes, boundary sizes); self-loops
are rejected at construction. Adjacency is stored in CSR form so a graph
with millions of edges stays compact and cheap to share between runs: an
int64 offsets array and an int32 array of heads, each adjacency run sorted,
served as read-only memoryviews with no copy. Only this module knows the
arc key ``tail << 32 | head``; both builders (edge pairs, the METIS
loader's arcs) sort the int64 keys once, in place, then mask them block by
block to int32 heads in the front half of the same buffer and shrink it to
that half. An edge-pair build peaks at the larger of the sorted keys (16
bytes per edge) and the heads plus the offsets and one degree count; the
finished CSR takes 8 bytes per edge plus 8 per vertex, 0.55 times an int64
CSR on a ring of cliques.

All conductance and volume arithmetic is exact (integers and
:class:`fractions.Fraction`); nothing in this module touches floating
point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .errors import ParameterError

__all__ = [
    "Graph",
    "VertexSet",
    "boundary_edges",
    "conductance",
    "best_prefix",
]

# the largest vertex count whose heads fit in int32 (its arc keys fit in int64)
_MAX_N = 2**31
# keys masked to heads per step: the one block numpy copies is 64 KiB
_BLOCK = 8192


class Graph:
    """Undirected multigraph on vertices ``0..n-1``.

    ``adjacent(u)`` is a read-only view of ``u``'s sorted neighbours, one
    entry per parallel edge, that yields ``int``; a ``Graph`` pickles and
    deep-copies through its two arrays.

    Args:
        n: Number of vertices, at most ``2**31`` so that the heads fit in
            int32.
        edges: Iterable of ``(u, v)`` endpoint pairs, or an integer array
            of shape ``(m, 2)`` (any strides). Repeated pairs are kept as
            parallel edges. Self-loops and non-integer endpoints (float,
            bool, str) raise ``ValueError``.
    """

    __slots__ = ("_n", "_m", "_off", "_flat")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if n > _MAX_N:  # before anything is sized by n, and before a key overflows
            raise ValueError(f"vertex count {n} exceeds {_MAX_N}")
        if isinstance(edges, np.ndarray):
            pairs = edges.reshape(-1, 2)
        else:
            seq = edges if isinstance(edges, (list, tuple)) else list(edges)
            # np.array turns ints mixed with bools into int64, so look before converting
            if not {bool, np.bool_}.isdisjoint(map(type, chain.from_iterable(seq))):
                raise ValueError("edge endpoints must be integers, got dtype bool")
            pairs = np.array(seq).reshape(-1, 2) if seq else np.empty((0, 2), np.int64)
        if pairs.dtype.kind not in "iu":
            raise ValueError(f"edge endpoints must be integers, got dtype {pairs.dtype}")
        m = len(pairs)
        if m:
            if pairs.min() < 0 or pairs.max() >= n:
                bad = pairs[(pairs.min(axis=1) < 0) | (pairs.max(axis=1) >= n)][0]
                raise ValueError(f"edge ({bad[0]}, {bad[1]}) out of range for n={n}")
            loops = pairs[:, 0] == pairs[:, 1]
            if loops.any():
                raise ValueError(f"self-loop at vertex {pairs[loops.argmax(), 0]}")
        # only after the range check: the cast wraps unsigned endpoints of 2**63 and up
        pairs = pairs.astype(np.int64, copy=False)
        # CSR with each adjacency run sorted: one in-place sort of both
        # directions' keys, written straight into the one buffer that becomes the heads
        u, v = pairs[:, 0], pairs[:, 1]
        key = np.empty(2 * m, dtype=np.int64)
        _arc_keys(u, v, out=key[:m])
        _arc_keys(v, u, out=key[m:])
        key.sort()
        self._set_csr(n, key, np.bincount(pairs.ravel(), minlength=n))

    @classmethod
    def _from_arcs(cls, n: int, tails: np.ndarray, heads: np.ndarray) -> Graph | None:
        """Graph of the int64 arcs ``tails[i] -> heads[i]``, or ``None`` unless each has its reverse.

        The caller has checked the ids against ``n`` and refused self-loops.
        """
        if n > _MAX_N:  # before anything is sized by n, and before a key overflows
            raise ValueError(f"vertex count {n} exceeds {_MAX_N}")
        key = _arc_keys(tails, heads)
        key.sort()
        reverse = _arc_keys(heads, tails)
        reverse.sort()
        if not np.array_equal(key, reverse):
            return None
        del reverse
        g = cls.__new__(cls)
        g._set_csr(n, key, np.bincount(tails, minlength=n))
        return g

    def _set_csr(self, n: int, key: np.ndarray, degrees: np.ndarray) -> None:
        """Store the CSR of the sorted arc keys, whose buffer becomes the heads."""
        heads = _reduce_to_heads(key)
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=off[1:])
        self.__setstate__((n, len(heads) // 2, off, heads))

    # a memoryview cannot be pickled or copied, so pickle and deepcopy go
    # through the numpy arrays it views
    def __getstate__(self) -> tuple[int, int, np.ndarray, np.ndarray]:
        return self._n, self._m, np.asarray(self._off), np.asarray(self._flat)

    def __setstate__(self, state: tuple[int, int, np.ndarray, np.ndarray]) -> None:
        n, m, off, flat = state
        self._n = n
        self._m = m
        # read-only views of the arrays: no copy, and ints on indexing
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

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m})"


def _arc_keys(tails: np.ndarray, heads: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The int64 arc keys ``tail << 32 | head``, which sort by tail, then head."""
    key = np.left_shift(tails, 32, out=out)
    key |= heads
    return key


def _reduce_to_heads(key: np.ndarray) -> np.ndarray:
    """The heads, the low 32 bits of the sorted int64 arc keys, as int32 in ``key``'s buffer.

    Each block's heads go to the int32 slots at its keys' indices; past the
    first block, which numpy copies before writing, these end at or before
    the block's first key. The buffer, which ``key`` must own, then shrinks
    in place to the heads' half (arcs come in pairs); a view of ``key``
    taken before the call would dangle.
    """
    heads = key.view(np.int32)
    for start in range(0, len(key), _BLOCK):
        stop = min(start + _BLOCK, len(key))
        np.bitwise_and(key[start:stop], 0xFFFFFFFF, out=heads[start:stop], casting="unsafe")
    del heads
    key.resize(len(key) // 2, refcheck=False)
    return key.view(np.int32)


class VertexSet:
    """Sorted, deduplicated set of vertex ids with cached volume.

    Bound to the graph it was built from so that volume and membership
    queries need no further context.
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

    def __repr__(self) -> str:
        ids = list(self._ids)
        shown = ids if len(ids) <= 8 else ids[:8] + ["..."]
        return f"VertexSet({shown}, vol={self._volume})"


def boundary_edges(g: Graph, s: VertexSet) -> int:
    """Number of edges with exactly one endpoint in ``s``, with multiplicity."""
    inside = s._members.__contains__
    return sum(g.degree(u) - sum(map(inside, g.adjacent(u))) for u in s._ids)


def conductance(g: Graph, s: VertexSet, boundary: int | None = None) -> Fraction:
    """Boundary edge count over the smaller side's volume, exactly.

    ``boundary`` is ``boundary_edges(g, s)`` when the caller has already
    counted it.

    Raises:
        ParameterError: if ``s`` or its complement has volume 0, as the
            empty and the full set do.
    """
    vol_s = s.volume
    vol_rest = g.total_volume - vol_s
    if vol_s == 0 or vol_rest == 0:
        raise ParameterError("conductance is undefined for a set or complement of volume 0")
    if boundary is None:
        boundary = boundary_edges(g, s)
    return Fraction(boundary, min(vol_s, vol_rest))


def best_prefix(g: Graph, groups: Iterable[Iterable[int]], max_volume: int) -> list[int] | None:
    """The lowest-conductance nonempty prefix union of ``groups``, or ``None``.

    Prefixes grow one whole group at a time, with the boundary and volume
    kept incrementally; the scan stops at the first prefix whose volume
    exceeds ``max_volume``. Ties go to the earliest prefix. The groups must
    be disjoint, and every nonempty prefix within ``max_volume`` must have
    positive volume below ``vol(V)``.
    """
    total = g.total_volume
    members: set[int] = set()
    inside = members.__contains__
    prefix: list[int] = []
    vol = cross = 0
    best: Fraction | None = None
    size = 0
    for group in groups:
        for u in group:
            deg = g.degree(u)
            cross += deg - 2 * sum(map(inside, g.adjacent(u)))
            vol += deg
            members.add(u)
            prefix.append(u)
        if vol > max_volume:
            break
        if not prefix:
            continue
        phi = Fraction(cross, min(vol, total - vol))
        if best is None or phi < best:
            best, size = phi, len(prefix)
    return None if best is None else prefix[:size]

