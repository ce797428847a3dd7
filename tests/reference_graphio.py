"""Reference parsers: the per-line loops that ``localcut.graphio`` replaced.

Kept verbatim (only renamed) so the differential tests in
``test_graphio.py`` can require the vectorized readers to build the same
CSR and raise the same line-numbered errors.
"""

from __future__ import annotations

import os
from typing import IO, Iterable

from localcut.errors import GraphFormatError
from localcut.graphs import Graph, VertexSet


def _open_lines(source: str | os.PathLike | IO[str]) -> Iterable[tuple[int, str]]:
    if hasattr(source, "read"):
        return enumerate(source, start=1)
    with open(source, "r", encoding="utf-8") as fh:
        return list(enumerate(fh, start=1))


def ref_load_edgelist(source: str | os.PathLike | IO[str]) -> Graph:
    """Parse a 0-based "u v" edge list; parallel edges kept, self-loops rejected."""
    edges: list[tuple[int, int]] = []
    max_id = -1
    for lineno, raw in _open_lines(source):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected two vertex ids, got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer vertex id in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"negative vertex id in {line!r}", lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", lineno)
        edges.append((u, v))
        max_id = max(max_id, u, v)
    if not edges:
        raise GraphFormatError("no edges found")
    return Graph(max_id + 1, edges)


def ref_load_metis(source: str | os.PathLike | IO[str]) -> Graph:
    """Parse METIS adjacency format (1-based, each edge listed from both sides)."""
    rows: list[tuple[int, str]] = []
    for lineno, raw in _open_lines(source):
        line = raw.strip()
        if line.startswith("%"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise GraphFormatError("empty METIS file")
    header_line, header = rows[0]
    parts = header.split()
    if len(parts) not in (2, 3):
        raise GraphFormatError(f"malformed METIS header {header!r}", header_line)
    try:
        n, m = int(parts[0]), int(parts[1])
        fmt = parts[2] if len(parts) == 3 else "0"
    except ValueError:
        raise GraphFormatError(f"malformed METIS header {header!r}", header_line) from None
    if fmt.strip("0"):
        raise GraphFormatError(
            f"weighted METIS format {fmt!r} is not supported", header_line
        )
    body = rows[1:]
    if len(body) != n:
        raise GraphFormatError(
            f"header declares {n} vertices but file has {len(body)} adjacency lines"
        )
    mentions: dict[tuple[int, int], int] = {}
    for u, (lineno, line) in enumerate(body):
        for token in line.split():
            try:
                v = int(token) - 1
            except ValueError:
                raise GraphFormatError(f"non-integer neighbor {token!r}", lineno) from None
            if not 0 <= v < n:
                raise GraphFormatError(f"neighbor {token} out of range", lineno)
            if v == u:
                raise GraphFormatError(f"self-loop at vertex {u + 1}", lineno)
            mentions[(u, v)] = mentions.get((u, v), 0) + 1
    edges: list[tuple[int, int]] = []
    for (u, v), count in mentions.items():
        if u > v:
            continue
        back = mentions.get((v, u), 0)
        if back != count:
            raise GraphFormatError(
                f"asymmetric adjacency between {u + 1} and {v + 1}: "
                f"{count} vs {back} mentions"
            )
        edges.extend([(u, v)] * count)
    if len(edges) != m:
        raise GraphFormatError(f"header declares {m} edges but file encodes {len(edges)}")
    return Graph(n, edges)


def ref_load_vertex_set(source: str | os.PathLike | IO[str], g: Graph) -> VertexSet:
    """Parse whitespace/newline-separated vertex ids; '#' starts a comment."""
    ids: list[int] = []
    for lineno, raw in _open_lines(source):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for token in line.split():
            try:
                u = int(token)
            except ValueError:
                raise GraphFormatError(f"non-integer vertex id {token!r}", lineno) from None
            if not 0 <= u < g.n:
                raise GraphFormatError(f"vertex id {u} out of range (n={g.n})", lineno)
            ids.append(u)
    if not ids:
        raise GraphFormatError("no vertex ids found")
    return VertexSet(g, ids)
