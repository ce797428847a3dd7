"""Graph and seed-set file ingestion.

Two graph formats: a whitespace edge list ("u v" per line, 0-based, '#'
comments, duplicate lines are parallel edges) and the standard METIS
adjacency format (header "n m [fmt]", 1-based neighbor lines, '%'
comment lines). Self-loops are rejected with their line number.

Grammar shared by all three readers (graph, METIS, seed set):

- A line ends at LF; CR, space, tab, VT and FF separate tokens, so CRLF
  files read like LF files.
- A vertex id is a run of ASCII decimal digits. Signs, underscores and
  non-ASCII digits are rejected (``int()`` would accept ``+5`` and
  ``1_000``); a leading ``-`` is reported as a negative id, even on
  ``-0``, and an edge-list id of 19 or more significant digits as too
  large. Non-ASCII bytes may appear only inside comments.
- In an edge list and a seed file, '#' starts a comment that runs to the
  end of its line. In a METIS file, a line whose first non-blank byte is
  '%' is a comment line; blank lines are adjacency lines.
- An edge list's largest id may be at most ``MAX_IDS_PER_EDGE`` times
  its edge count, so the vertex count, and every array sized by it, stays
  proportional to the file. A METIS header's vertex count must equal its
  number of adjacency lines, which is checked before anything is sized
  by it. Both formats refuse, with the line, a vertex count beyond the
  ``2**31`` that :class:`~localcut.graphs.Graph` holds.

The readers scan line-aligned blocks of about ``CHUNK_BYTES`` with numpy:
blank and comment masks, token bounds, token counts per line and one
int64 value per token, and vectorized checks. Working memory is a few arrays of block
size plus the parsed tokens. When a check finds a bad line, the first one
in file order is re-read by a per-line check that words the error.

A file of two or more blocks is tokenized on two cores: one helper thread,
started the first time such a file is read, tokenizes every other block
while the calling thread tokenizes the one before it; numpy releases the
GIL inside the calls that do the work. The readers still take the blocks
in file order, so every check, message and line number is the same as on
one core. The helper runs nothing but :func:`_tokenize`, which calls only
numpy: the benchmark's tracer (``perfbench/spans.py``) keeps one span
stack per process, so a traced function called on the helper thread would
corrupt it.

Both formats build through :mod:`localcut.graphs`, which alone forms the
CSR arc keys; a METIS file hands over its arcs.

Rational parameters, on the command line and in certificates, go through
:func:`parse_rational`, whose digit and exponent bounds keep a short
string from expanding into a huge integer.
"""

from __future__ import annotations

import io
import os
import re
from fractions import Fraction
from functools import cache, partial
from typing import IO, TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from .errors import GraphFormatError, InvariantViolation
from .graphs import _MAX_N, Graph, VertexSet

if TYPE_CHECKING:
    from concurrent.futures import Executor

__all__ = [
    "load_graph",
    "load_edgelist",
    "load_metis",
    "load_vertex_set",
    "parse_rational",
    "parse_unsigned",
    "MAX_IDS_PER_EDGE",
    "MAX_RATIONAL_DIGITS",
]

CHUNK_BYTES = 1 << 18
MAX_IDS_PER_EDGE = 16
# Ids of 19 or more significant digits all read as this value: it is out of
# range for every graph and fits int64 without overflow.
_TOO_LARGE = 10**18
_DIGITS = 18  # longest token the vectorized accumulation reads exactly

_LF, _HASH, _PERCENT = ord("\n"), ord("#"), ord("%")

MAX_RATIONAL_DIGITS = 64
_RATIONAL = re.compile(
    r"([+-]?)(?:([0-9]+)/([0-9]+)|(?=\.?[0-9])([0-9]*)(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?)"
)


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or a plain decimal with an optional exponent, exactly.

    Surrounding whitespace is ignored. Each digit run (numerator,
    denominator, the decimal's digits, the exponent) and the exponent's
    value are bounded by ``MAX_RATIONAL_DIGITS``, so the result's numerator
    and denominator have at most a few hundred digits; ``Fraction`` alone
    would expand ``1e999999999`` into a billion-digit integer.

    Raises:
        ValueError: on anything else, a zero denominator or a bound
            exceeded; the message says which.
    """
    m = _RATIONAL.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a rational number: {text!r}")
    sign, num, den, whole, frac, exp = m.groups()
    shift = 0
    if num is None:
        frac = frac or ""
        num, den, shift = whole + frac, "1", len(frac)
    exp = exp or "0"
    digits = max(len(num), len(den), len(exp.lstrip("+-")))
    if digits > MAX_RATIONAL_DIGITS or abs(int(exp)) > MAX_RATIONAL_DIGITS:
        raise ValueError(
            f"rational {text.strip()[:40]!r} has a part of more than "
            f"{MAX_RATIONAL_DIGITS} digits or an exponent beyond +-{MAX_RATIONAL_DIGITS}"
        )
    if int(den) == 0:
        raise ValueError(f"zero denominator in {text.strip()!r}")
    value = Fraction(int(num), int(den)) * Fraction(10) ** (int(exp) - shift)
    return -value if sign == "-" else value


def parse_unsigned(text: str) -> int:
    """Parse an unsigned decimal integer in the graph and seed file grammar.

    Only ASCII digits: no sign, underscore, surrounding space or other
    script's digits, all of which ``int`` accepts. At most
    ``MAX_RATIONAL_DIGITS`` significant digits.

    Raises:
        ValueError: on anything else; the message says which.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not an unsigned decimal integer: {text!r}")
    if len(text.lstrip("0")) > MAX_RATIONAL_DIGITS:
        raise ValueError(f"integer {text[:40]!r} has more than {MAX_RATIONAL_DIGITS} digits")
    return int(text)


def _blocks(source: str | os.PathLike | bytes) -> Iterator[bytes]:
    """The input as line-aligned byte blocks of about ``CHUNK_BYTES``.

    A path is read block by block, so only one block (plus its unfinished
    last line) is held.
    """
    with io.BytesIO(source) if isinstance(source, bytes) else open(source, "rb") as fh:
        pending: list[bytes] = []
        for block in iter(partial(fh.read, CHUNK_BYTES), b""):
            cut = block.rfind(b"\n") + 1
            if not cut:
                pending.append(block)
                continue
            pending.append(block[:cut])
            yield b"".join(pending)
            pending = [block[cut:]]
        tail = b"".join(pending)
        if tail:
            yield tail


def _rereadable(source: str | os.PathLike | IO[str]) -> str | os.PathLike | bytes:
    """A path as is; a text stream read whole and encoded, so that
    :func:`_blocks` can split it as often as needed."""
    return source.read().encode("utf-8") if hasattr(source, "read") else source


def _value(token: bytes) -> int:
    """Value of an all-digit token, with ``_TOO_LARGE`` for 19+ significant digits."""
    digits = token.lstrip(b"0")
    if len(digits) > _DIGITS:
        return _TOO_LARGE
    return int(digits) if digits else 0


class _Tokens(NamedTuple):
    """One block, tokenized.

    ``ends[i]`` is the offset of line ``i``'s LF (or of the block's end);
    ``before[i]`` counts the tokens up to the end of line ``i``; ``value``
    holds each token's value (meaningless for a token with a non-digit
    byte); ``other`` is the first line holding a non-digit token byte
    (``len(ends)`` if none); ``comment`` flags METIS comment lines.
    """

    data: bytes
    ends: np.ndarray
    before: np.ndarray
    value: np.ndarray
    other: int
    comment: np.ndarray | None

    def text(self, i: int) -> bytes:
        start = int(self.ends[i - 1]) + 1 if i else 0
        return self.data[start : int(self.ends[i])]

    def count(self) -> np.ndarray:
        """Tokens on each line."""
        return np.diff(self.before, prepend=0)

    def line_of(self, token: int) -> int:
        return int(np.searchsorted(self.before, token, side="right"))

    def first_line(self, tokens: np.ndarray) -> int:
        """Line of the first of the ascending ``tokens``; ``len(ends)`` if none."""
        return self.line_of(int(tokens[0])) if len(tokens) else len(self.ends)

    def tokens_before(self, line: int) -> int:
        return int(self.before[line - 1]) if line else 0


def _line_spans(lo: np.ndarray, hi: np.ndarray, size: int) -> np.ndarray:
    """Mask of the disjoint half-open spans ``[lo, hi)`` over ``size`` bytes."""
    mark = np.zeros(size + 1, dtype=np.int8)
    mark[lo] = 1
    mark[hi] -= 1
    return np.cumsum(mark[:-1], dtype=np.int8).view(bool)


def _tokenize(data: bytes, comment: int) -> _Tokens:
    """Split one block into tokens; ``comment`` is '#' (to end of line) or '%' (whole line)."""
    a = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(a == _LF)
    if not len(ends) or ends[-1] != len(a) - 1:
        ends = np.append(ends, len(a))
    # space, tab, LF, VT, FF, CR; uint8 wrap-around keeps bytes below TAB out.
    # One blank byte pads each side, so every token starts and ends at a flip.
    padded = np.ones(len(a) + 2, dtype=bool)
    space = padded[1:-1]
    np.equal(a, 32, out=space)
    space |= a - np.uint8(9) < 5
    comment_lines = np.zeros(len(ends), dtype=bool) if comment == _PERCENT else None
    marks = np.flatnonzero(a == comment)
    if len(marks):
        mline = np.searchsorted(ends, marks)
        first = np.ones(len(marks), dtype=bool)
        first[1:] = mline[1:] != mline[:-1]
        marks, mline = marks[first], mline[first]
        if comment_lines is not None:
            # a comment line has only blanks before its '%'
            starts = np.zeros(len(ends), dtype=np.int64)
            starts[1:] = ends[:-1] + 1
            filled = np.zeros(len(a) + 1, dtype=np.int64)
            np.cumsum(~space, out=filled[1:])
            lead = starts[mline]
            keep = filled[marks] == filled[lead]
            marks, mline = lead[keep], mline[keep]
            comment_lines[mline] = True
        space |= _line_spans(marks, ends[mline], len(a))
    bad = np.flatnonzero(~space & (a - np.uint8(48) >= 10))
    other = int(np.searchsorted(ends, bad[0])) if len(bad) else len(ends)
    # token bounds: where the padded blank mask flips
    edge = np.flatnonzero(padded[1:] != padded[:-1])
    del padded, space, bad
    start, stop = edge[0::2], edge[1::2]
    length = stop - start
    # digit k from the right of every token at once; longer tokens are read below
    value = np.zeros(len(start), dtype=np.int64)
    at = np.empty(len(start), dtype=np.int64)  # the digit's offset, then its weighted value
    digit = np.empty(len(start), dtype=np.uint8)
    for k in range(1, min(int(length.max(initial=0)), _DIGITS) + 1):
        np.subtract(stop, k, out=at)
        np.take(a, at, out=digit)
        digit -= 48
        digit[length < k] = 0
        np.multiply(digit, np.int64(10 ** (k - 1)), out=at)
        value += at
    del at, digit
    for t in np.flatnonzero(length > _DIGITS):
        token = data[start[t] : stop[t]]
        if token.isdigit():
            value[t] = _value(token)
    return _Tokens(data, ends, np.searchsorted(start, ends), value, other, comment_lines)


def _tokenized(source: str | os.PathLike | bytes, comment: int) -> Iterator[_Tokens]:
    """:func:`_tokenize` of each block of :func:`_blocks`, in file order.

    When there are two or more blocks, the helper thread tokenizes every
    other one (the second, the fourth, ...) while this thread tokenizes the
    one before it, so at most two blocks are tokenized at once.
    """
    blocks = _blocks(source)
    for data in blocks:
        ahead = next(blocks, None)
        if ahead is None:
            yield _tokenize(data, comment)
            return
        pending = _helper().submit(_tokenize, ahead, comment)
        try:
            yield _tokenize(data, comment)
        finally:
            # also when the reader stops here: no work outlives the read
            ahead = pending.result()
        yield ahead


@cache
def _helper() -> Executor:
    """The one helper thread, started the first time a file has two blocks."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="localcut-tokenize")


# a forked child has the executor but not its thread; it starts its own
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_helper.cache_clear)


def _raise_line(error: str | None, lineno: int) -> None:
    if error is None:
        raise InvariantViolation(f"line {lineno} was flagged but its check passes")
    raise GraphFormatError(error, lineno)


# per-line checks: they word the error for the first line a scan flags


def _edgelist_line_error(raw: bytes) -> str | None:
    line = raw.split(b"#", 1)[0].strip()
    parts = line.split()
    shown = line.decode("utf-8", "replace")
    if not parts:
        return None
    if len(parts) != 2:
        return f"expected two vertex ids, got {shown!r}"
    if not all(p.isdigit() for p in parts):
        if all(p.isdigit() or (p[:1] == b"-" and p[1:].isdigit()) for p in parts):
            return f"negative vertex id in {shown!r}"
        return f"non-integer vertex id in {shown!r}"
    u, v = _value(parts[0]), _value(parts[1])
    if max(u, v) >= _TOO_LARGE:
        return f"vertex id too large in {shown!r}"
    if u == v:
        return f"self-loop at vertex {u}"
    return None


def _metis_line_error(raw: bytes, u: int, n: int) -> str | None:
    for token in raw.split():
        shown = token.decode("utf-8", "replace")
        if not token.isdigit():
            if token[:1] == b"-" and token[1:].isdigit():
                return f"neighbor {shown} out of range"
            return f"non-integer neighbor {shown!r}"
        v = _value(token) - 1
        if not 0 <= v < n:
            return f"neighbor {shown} out of range"
        if v == u:
            return f"self-loop at vertex {u + 1}"
    return None


def _seed_line_error(raw: bytes, n: int) -> str | None:
    for token in raw.split(b"#", 1)[0].split():
        shown = token.decode("utf-8", "replace")
        if token.isdigit():
            u = _value(token)
            if u >= n:
                return f"vertex id {u if u < _TOO_LARGE else shown} out of range (n={n})"
        elif token[:1] == b"-" and token[1:].isdigit():
            return f"vertex id {shown} out of range (n={n})"
        else:
            return f"non-integer vertex id {shown!r}"
    return None


def _metis_header(raw: bytes, lineno: int) -> tuple[int, int]:
    line = raw.strip()
    parts = line.split()
    if len(parts) not in (2, 3) or not (parts[0].isdigit() and parts[1].isdigit()):
        shown = line.decode("utf-8", "replace")
        raise GraphFormatError(f"malformed METIS header {shown!r}", lineno)
    fmt = parts[2] if len(parts) == 3 else b"0"
    if fmt.strip(b"0"):
        raise GraphFormatError(
            f"weighted METIS format {fmt.decode('utf-8', 'replace')!r} is not supported", lineno
        )
    return int(parts[0]), int(parts[1])


def _edge_blocks(source: str | os.PathLike | bytes) -> Iterator[tuple[np.ndarray, _Tokens, int]]:
    """Per block: its ``(k, 2)`` edges, its tokens and its first line number.

    Raises at the first bad line, in file order.
    """
    lineno = 1
    for t in _tokenized(source, _HASH):
        count = t.count()
        bad = int(min([t.other, *np.flatnonzero((count != 0) & (count != 2))[:1]]))
        uv = t.value[: t.tokens_before(bad)].reshape(-1, 2)
        u, v = uv[:, 0], uv[:, 1]
        wrong = np.flatnonzero((np.maximum(u, v) >= _TOO_LARGE) | (u == v))
        bad = min(bad, t.first_line(2 * wrong))
        if bad < len(t.ends):
            _raise_line(_edgelist_line_error(t.text(bad)), lineno + bad)
        yield uv, t, lineno
        lineno += len(t.ends)


def load_edgelist(source: str | os.PathLike | IO[str]) -> Graph:
    """Parse a 0-based "u v" edge list; parallel edges kept, self-loops rejected."""
    source = _rereadable(source)
    pairs = [uv for uv, _, _ in _edge_blocks(source)]
    m = sum(len(uv) for uv in pairs)
    if not m:
        raise GraphFormatError("no edges found")
    edges = np.concatenate(pairs)
    del pairs
    top = np.maximum(edges[:, 0], edges[:, 1])
    n = int(top.max()) + 1
    limit = min(MAX_IDS_PER_EDGE * m, _MAX_N - 1)
    if n > limit + 1:
        i = int(np.argmax(top > limit))
        bound = f"{MAX_IDS_PER_EDGE} x {m} edges =" if limit < _MAX_N - 1 else "the largest id"
        message = f"vertex id {int(top[i])} exceeds {bound} {limit}"
        for uv, t, lineno in _edge_blocks(source):
            if i < len(uv):
                raise GraphFormatError(message, lineno + t.line_of(2 * i))
            i -= len(uv)
    return Graph(n, edges)


def load_metis(source: str | os.PathLike | IO[str]) -> Graph:
    """Parse METIS adjacency format (1-based, each edge listed from both sides).

    The arcs build through ``graphs``, which forms their keys and checks
    that each has its reverse; this reader words it if not.
    """
    header: tuple[int, int] | None = None
    rows = 0  # adjacency lines seen, the header excluded
    tails: list[np.ndarray] = []
    heads: list[np.ndarray] = []
    first_bad: tuple[int, bytes, int] | None = None  # line number, text, vertex
    lineno = 1
    for t in _tokenized(_rereadable(source), _PERCENT):
        body = np.flatnonzero(~t.comment)
        skip = 0  # the header's tokens
        if header is None and len(body):
            h, body = int(body[0]), body[1:]
            header_line = lineno + h
            header = _metis_header(t.text(h), header_line)
            n_cap = min(header[0], _TOO_LARGE)
            skip = t.tokens_before(h + 1)
        vertex = np.full(len(t.ends), -1, dtype=np.int64)
        vertex[body] = np.arange(rows, rows + len(body))
        rows += len(body)
        if first_bad is None and len(body):
            u = np.repeat(vertex, t.count())[skip:]
            v = t.value[skip:] - 1
            wrong = np.flatnonzero((v < 0) | (v >= n_cap) | (v == u))
            bad = min(t.other, t.first_line(skip + wrong))
            if bad < len(t.ends):
                first_bad = (lineno + bad, t.text(bad), int(vertex[bad]))
                tails.clear()
                heads.clear()
            else:
                tails.append(u)
                heads.append(v)
        lineno += len(t.ends)
    if header is None:
        raise GraphFormatError("empty METIS file")
    n, m = header
    if rows != n:
        raise GraphFormatError(f"header declares {n} vertices but file has {rows} adjacency lines")
    if n > _MAX_N:
        raise GraphFormatError(f"header declares {n} vertices, more than {_MAX_N}", header_line)
    if first_bad is not None:
        at, text, u = first_bad
        _raise_line(_metis_line_error(text, u, n), at)
    u = np.concatenate(tails) if tails else np.empty(0, dtype=np.int64)
    v = np.concatenate(heads) if heads else np.empty(0, dtype=np.int64)
    del tails, heads
    g = Graph._from_arcs(n, u, v)
    if g is None:
        raise GraphFormatError(_asymmetry(u, v, n))
    if g.m != m:
        raise GraphFormatError(f"header declares {m} edges but file encodes {g.m}")
    return g


def _asymmetry(u: np.ndarray, v: np.ndarray, n: int) -> str:
    """Word the first asymmetric pair.

    Pairs that the smaller end lists come first, in the order of that
    end's first mention; then pairs only the larger end lists.
    """
    pair = np.minimum(u, v) * n + np.maximum(u, v)
    keys, first, inverse = np.unique(pair, return_index=True, return_inverse=True)
    lower = u < v
    below = np.bincount(inverse[lower], minlength=len(keys))
    above = np.bincount(inverse[~lower], minlength=len(keys))
    order = np.full(len(keys), len(pair), dtype=np.int64)
    at = np.flatnonzero(lower)
    np.minimum.at(order, inverse[at], at)
    rank = np.where(below > 0, order, len(pair) + first)
    i = int(np.argmin(np.where(below != above, rank, 2 * len(pair) + 1)))
    a, b = divmod(int(keys[i]), n)
    return f"asymmetric adjacency between {a + 1} and {b + 1}: {below[i]} vs {above[i]} mentions"


def load_graph(source: str | os.PathLike | IO[str], fmt: str = "edgelist") -> Graph:
    """Load a graph in the given format ("edgelist" or "metis")."""
    if fmt == "edgelist":
        return load_edgelist(source)
    if fmt == "metis":
        return load_metis(source)
    raise GraphFormatError(f"unknown graph format {fmt!r}")


def load_vertex_set(source: str | os.PathLike | IO[str], g: Graph) -> VertexSet:
    """Parse whitespace/newline-separated vertex ids; '#' starts a comment."""
    ids: list[np.ndarray] = []
    lineno = 1
    for t in _tokenized(_rereadable(source), _HASH):
        bad = min(t.other, t.first_line(np.flatnonzero(t.value >= g.n)))
        if bad < len(t.ends):
            _raise_line(_seed_line_error(t.text(bad), g.n), lineno + bad)
        ids.append(t.value)
        lineno += len(t.ends)
    if not any(len(x) for x in ids):
        raise GraphFormatError("no vertex ids found")
    return VertexSet(g, np.unique(np.concatenate(ids)).tolist())
