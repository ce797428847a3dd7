import io
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gen import random_edge_array, ring_of_cliques
from localcut import GraphFormatError, load_graph, load_vertex_set
from localcut import graphio
from localcut.cli import EXIT_INPUT_ERROR, run_cli
from localcut.graphio import MAX_IDS_PER_EDGE, load_edgelist, load_metis
from oracle import edges, reference_csr
from reference_graphio import ref_load_edgelist, ref_load_metis, ref_load_vertex_set


def test_edgelist_basic():
    g = load_edgelist(io.StringIO("0 1\n1 2\n"))
    assert (g.n, g.m) == (3, 2)
    assert g.degree(1) == 2


def test_edgelist_comments_and_parallel():
    text = "# a comment\n0 1\n0 1  # inline\n\n1 2\n"
    g = load_edgelist(io.StringIO(text))
    assert g.m == 3
    assert list(g.adjacent(0)) == [1, 1]


def test_edgelist_self_loop_line_number():
    with pytest.raises(GraphFormatError, match="line 1: self-loop"):
        load_edgelist(io.StringIO("0 0\n"))


def test_edgelist_malformed():
    with pytest.raises(GraphFormatError, match="line 2"):
        load_edgelist(io.StringIO("0 1\n0 1 2\n"))
    with pytest.raises(GraphFormatError, match="non-integer"):
        load_edgelist(io.StringIO("0 x\n"))
    with pytest.raises(GraphFormatError, match="no edges"):
        load_edgelist(io.StringIO("# nothing\n"))


def test_metis_basic():
    g = load_metis(io.StringIO("3 2\n2\n1 3\n2\n"))
    assert (g.n, g.m) == (3, 2)
    assert g.degree(1) == 2


def test_metis_matches_edgelist(fixtures_dir):
    a = load_graph(fixtures_dir / "barbell.edgelist", "edgelist")
    b = load_graph(fixtures_dir / "barbell.metis", "metis")
    assert (a.n, a.m) == (b.n, b.m)
    assert all(list(a.adjacent(u)) == list(b.adjacent(u)) for u in range(a.n))


def test_metis_errors():
    with pytest.raises(GraphFormatError, match="header"):
        load_metis(io.StringIO("3\n"))
    with pytest.raises(GraphFormatError, match="weighted"):
        load_metis(io.StringIO("2 1 1\n2 5\n1 5\n"))
    with pytest.raises(GraphFormatError, match="adjacency lines"):
        load_metis(io.StringIO("3 2\n2\n1\n"))
    with pytest.raises(GraphFormatError, match="asymmetric"):
        load_metis(io.StringIO("3 2\n2\n1 3\n1\n"))
    with pytest.raises(GraphFormatError, match="self-loop"):
        load_metis(io.StringIO("2 1\n1\n1\n"))
    with pytest.raises(GraphFormatError, match="declares 3"):
        load_metis(io.StringIO("3 3\n2\n1 3\n2\n"))


def test_metis_comments():
    g = load_metis(io.StringIO("% header comment\n3 2\n2\n1 3\n2\n"))
    assert (g.n, g.m) == (3, 2)


def test_unknown_format():
    with pytest.raises(GraphFormatError, match="unknown"):
        load_graph(io.StringIO(""), "dot")


def test_vertex_set(fixtures_dir):
    g = load_graph(fixtures_dir / "barbell.edgelist")
    a = load_vertex_set(fixtures_dir / "barbell_seed.txt", g)
    assert a.ids == (0, 1, 2)
    with pytest.raises(GraphFormatError, match="out of range"):
        load_vertex_set(io.StringIO("99"), g)
    with pytest.raises(GraphFormatError, match="no vertex ids"):
        load_vertex_set(io.StringIO("# empty"), g)


# differential tests against the per-line reference parsers ------------------


def csr(g):
    return g.n, g.m, list(g._off), list(g._flat)


def outcome(load, text, *args):
    """``("ok", result)`` or ``(line, message)`` of one load of ``text``."""
    try:
        out = load(io.StringIO(text), *args)
    except GraphFormatError as exc:
        return exc.line, str(exc)
    return "ok", (out.ids if args else csr(out))


@contextmanager
def chunk_bytes(size):
    """Scan in blocks of ``size`` bytes, so short inputs span many blocks."""
    saved = graphio.CHUNK_BYTES
    graphio.CHUNK_BYTES = size
    try:
        yield
    finally:
        graphio.CHUNK_BYTES = saved


SEPARATORS = (" ", "\t", "  ", " \t ")
EDGE_COMMENTS = ("", "  # note", "\t# é ü ∞", "#", " #x y z")
BLANKS = ("", "   ", "\t", "# only a comment ≠")
METIS_COMMENTS = ("% header", "  % ∆ comment", "%")

# multigraphs with parallel edges and id gaps (isolated vertices up to id 47,
# within the 16-ids-per-edge bound since m >= 3)
edge_lists = st.lists(
    st.tuples(st.integers(0, 47), st.integers(0, 47)).filter(lambda e: e[0] != e[1]),
    min_size=3,
    max_size=14,
)


def layout(draw, rows, *, comments=(), tails=("",), blanks=()):
    """Render token rows with random separators, CRLF, comments and blank lines."""
    lines = []
    for tokens in rows:
        if blanks and draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(blanks)))
        if comments and draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(comments)))
        lead = draw(st.sampled_from(("", " ", "\t")))
        sep = draw(st.sampled_from(SEPARATORS))
        lines.append(lead + sep.join(tokens) + draw(st.sampled_from(tails)))
    eol = draw(st.sampled_from(("\n", "\r\n")))
    text = eol.join(lines)
    return text + eol if draw(st.booleans()) else text


def edgelist_rows(edges):
    return [[str(u), str(v)] for u, v in edges]


def metis_rows(draw, edges, n):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(str(v + 1))
        adj[v].append(str(u + 1))
    for row in adj:
        draw(st.randoms(use_true_random=False)).shuffle(row)
    header = [str(n), str(len(edges))] + draw(st.sampled_from(([], ["0"], ["000"])))
    return [header] + adj


def render_edgelist(draw, rows):
    return layout(draw, rows, tails=EDGE_COMMENTS, blanks=BLANKS)


def render_metis(draw, rows):
    return layout(draw, rows, comments=METIS_COMMENTS, tails=("", " ", "\t"))


@given(st.data(), edge_lists, st.sampled_from((5, 64, 1 << 18)))
@settings(max_examples=100, deadline=None)
def test_loaders_match_reference(data, edges, chunk):
    draw = data.draw
    n = max(max(e) for e in edges) + 1
    el = render_edgelist(draw, edgelist_rows(edges))
    me = render_metis(draw, metis_rows(draw, edges, n))
    seeds = layout(draw, [[str(u)] for u, _ in edges], tails=EDGE_COMMENTS, blanks=BLANKS)
    g = ref_load_edgelist(io.StringIO(el))
    with chunk_bytes(chunk):
        assert outcome(load_edgelist, el) == ("ok", csr(g))
        assert outcome(load_metis, me) == ("ok", csr(g))
        assert outcome(load_metis, me) == outcome(ref_load_metis, me)
        assert outcome(load_vertex_set, seeds, g) == outcome(ref_load_vertex_set, seeds, g)


def test_fixtures_match_reference(fixtures_dir):
    g = load_edgelist(fixtures_dir / "barbell.edgelist")
    assert csr(g) == csr(ref_load_edgelist(fixtures_dir / "barbell.edgelist"))
    assert csr(load_metis(fixtures_dir / "barbell.metis")) == csr(
        ref_load_metis(fixtures_dir / "barbell.metis")
    )
    seed = fixtures_dir / "barbell_seed.txt"
    assert load_vertex_set(seed, g).ids == ref_load_vertex_set(seed, g).ids


def test_loaders_read_paths(tmp_path):
    text = "# é\r\n0 1\r\n1 2  # ∞\r\n\r\n2 0"
    path = tmp_path / "g.edgelist"
    path.write_bytes(text.encode("utf-8"))
    want = csr(ref_load_edgelist(io.StringIO(text)))
    assert csr(load_edgelist(path)) == want
    assert csr(load_edgelist(str(path))) == want


@given(
    st.sampled_from((1, 4095, 4096, 4097, 8191, 8192, 8193, 12289)),
    st.integers(2, 40) | st.integers(2, 20_000),
    st.integers(0, 2**32 - 1),
)
# the largest n of uint32 keys, the smallest of int64 keys, and a larger one
@example(4097, 2**16, 1)
@example(8193, 2**16 + 1, 2)
@example(4097, 200_000, 3)
@settings(max_examples=25, deadline=None)
def test_metis_csr_matches_lexsort_reference(m, n, seed):
    # the loaded graph's int32 heads, taken from its sorted keys (uint32 up
    # to 2**16 vertices, int64 reduced in blocks of 8192 above), against
    # one lexsort of both arc directions
    edges = random_edge_array(seed, n, m)
    edges[-1] = (n - 1, n - 2)  # the largest id is present
    adj = [[] for _ in range(n)]
    for u, v in edges.tolist():
        adj[u].append(str(v + 1))
        adj[v].append(str(u + 1))
    g = load_metis(io.StringIO(f"{n} {m}\n" + "".join(" ".join(row) + "\n" for row in adj)))
    assert np.asarray(g._flat).dtype == np.int32
    assert (list(g._off), list(g._flat)) == reference_csr(n, edges)


# Five blocks of four 16-byte lines at CHUNK_BYTES = 64: the helper thread
# tokenizes blocks 2 and 4 (lines 5-8 and 13-16), this thread 1, 3 and 5.
def padded(lines):
    return "".join(line.ljust(15) + "\n" for line in lines)


CYCLE = [f"{i} {i + 1}" for i in range(19)] + ["19 0"]
CYCLE_METIS = ["19 19"] + [f"{(u - 1) % 19 + 1} {(u + 1) % 19 + 1}" for u in range(19)]


@pytest.mark.parametrize(
    "load, ref, lines, bad, message",
    [
        (load_edgelist, ref_load_edgelist, CYCLE, {6: "5 5", 14: "x 1"}, "self-loop at vertex 5"),
        (load_metis, ref_load_metis, CYCLE_METIS, {6: "4 x", 14: "12 13"}, "non-integer neighbor 'x'"),
    ],
    ids=["edgelist", "metis"],
)
def test_helper_block_error_is_reported_in_file_order(monkeypatch, load, ref, lines, bad, message):
    tokenize, on_helper = graphio._tokenize, []

    def recording(data, comment):
        if threading.current_thread() is not threading.main_thread():
            on_helper.append(data)
        return tokenize(data, comment)

    monkeypatch.setattr(graphio, "_tokenize", recording)
    monkeypatch.setattr(graphio, "CHUNK_BYTES", 64)
    text = padded(lines)
    blocks = list(graphio._blocks(text.encode()))
    load(io.StringIO(text))
    assert [len(b) for b in blocks] == [64] * 5
    assert sorted(blocks.index(data) + 1 for data in on_helper) == [2, 4]
    text = padded(bad.get(i + 1, line) for i, line in enumerate(lines))
    assert outcome(load, text) == (6, f"line 6: {message}") == outcome(ref, text)


def test_helper_starts_only_for_a_second_block(tmp_path):
    # in a fresh process: a one-block file imports no executor and starts
    # no thread; the five-block file then starts the one helper
    path = tmp_path / "g.edgelist"
    path.write_text(padded(CYCLE))
    script = f"""
import sys, threading
from localcut import graphio
graphio.CHUNK_BYTES = {len(padded(CYCLE))}
graphio.load_edgelist({str(path)!r})
before = ("concurrent.futures" in sys.modules, threading.active_count())
graphio.CHUNK_BYTES = 64
graphio.load_edgelist({str(path)!r})
print(before, threading.active_count())
"""
    src = str(Path(graphio.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout == "(False, 1) 2\n", proc.stderr


def read_in_child(queue):
    queue.put(csr(load_edgelist(io.StringIO(padded(CYCLE)))))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
# Python 3.12 and later warn on every fork of a process with threads
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_starts_its_own_helper(monkeypatch):
    # the parent's helper thread does not survive a fork; a child reusing
    # its executor would wait forever for the helper's block
    monkeypatch.setattr(graphio, "CHUNK_BYTES", 64)
    want = csr(load_edgelist(io.StringIO(padded(CYCLE))))
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=read_in_child, args=(queue,))
    child.start()
    try:
        assert queue.get(timeout=30) == want
    finally:
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


# one-line corruptions of a valid file; the reference words the expected error
EDGE_MUTANTS = ("x", "1.5", "0x3", "-3", "7 8 9", "4", "6 6", "0 5 # ok", "12 -1")
METIS_TOKENS = ("x", "-3", "0", "99", "2.0")


@given(st.data(), edge_lists, st.sampled_from((5, 1 << 18)))
@settings(max_examples=150, deadline=None)
def test_edgelist_errors_match_reference(data, edges, chunk):
    draw = data.draw
    rows = edgelist_rows(edges)
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(rows) - 1))
        mutant = draw(st.sampled_from(EDGE_MUTANTS))
        rows[i] = mutant.split() if draw(st.booleans()) else [rows[i][0], mutant]
    text = render_edgelist(draw, rows)
    with chunk_bytes(chunk):
        assert outcome(load_edgelist, text) == outcome(ref_load_edgelist, text)


@given(st.data(), edge_lists, st.sampled_from((5, 1 << 18)))
@settings(max_examples=100, deadline=None)
def test_metis_errors_match_reference(data, edges, chunk):
    draw = data.draw
    n = max(max(e) for e in edges) + 1
    rows = metis_rows(draw, edges, n)
    kind = draw(st.sampled_from(("token", "header", "drop-line", "add", "remove")))
    u = draw(st.integers(1, n))
    if kind == "token" and rows[u]:
        rows[u][draw(st.integers(0, len(rows[u]) - 1))] = draw(
            st.sampled_from(METIS_TOKENS + (str(u), str(n + 1)))
        )
    elif kind == "header":
        rows[0][draw(st.integers(0, 1))] = draw(st.sampled_from(("x", "1.0", "1", "100", "")))
    elif kind == "drop-line":
        del rows[u]
    elif kind == "add":
        rows[u].append(str(draw(st.integers(1, n).filter(lambda v: v != u))))
    elif rows[u]:
        rows[u].pop(draw(st.integers(0, len(rows[u]) - 1)))
    text = render_metis(draw, rows)
    with chunk_bytes(chunk):
        got, want = outcome(load_metis, text), outcome(ref_load_metis, text)
    if got != want and "asymmetric" in got[1] and ": 0 vs " in got[1]:
        # only the larger end lists the pair: the reference never compared it,
        # so it reported the edge count, or accepted when the count still matched
        assert want[0] == "ok" or "edges but file encodes" in want[1]
    else:
        assert got == want


def test_asymmetry_seen_from_the_larger_end():
    # row 3 lists vertex 1, row 1 does not list 3; the header's m = 0 matches
    # the pairs the smaller ends list, which the reference alone trusted
    with pytest.raises(GraphFormatError, match="between 1 and 3: 0 vs 1 mentions"):
        load_metis(io.StringIO("3 0\n\n\n1\n"))
    assert outcome(ref_load_metis, "3 0\n\n\n1\n")[0] == "ok"


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 +5\n", "line 1: non-integer vertex id in '0 +5'"),
        ("0 1_000\n", "line 1: non-integer vertex id in '0 1_000'"),
        ("0 ٣\n", "line 1: non-integer vertex id in '0 ٣'"),
        ("0 1\xa0\n", "line 1: non-integer vertex id in '0 1\\xa0'"),
        ("1 -0\n", "line 1: negative vertex id in '1 -0'"),
        ("0 1\n2 10000000000000000000\n", "line 2: vertex id too large in '2 10000000000000000000'"),
        ("0 1\r2 3\n", "line 1: expected two vertex ids, got '0 1\\r2 3'"),
    ],
)
def test_edgelist_grammar_tightening(text, message):
    with pytest.raises(GraphFormatError) as info:
        load_edgelist(io.StringIO(text))
    assert str(info.value) == message


def test_edgelist_accepts_what_the_grammar_allows(tmp_path):
    path = tmp_path / "g.edgelist"
    # a BOM and bytes that are not UTF-8 inside comments, VT and FF as blanks,
    # and leading zeros, also beyond 18 digits
    path.write_bytes(
        b"# \xef\xbb\xbf\r\n0007 3 # \xff\xfe\r\n\x0b1\x0c2\n0000000000000000000004 1"
    )
    g = load_edgelist(path)
    assert csr(g) == csr(ref_load_edgelist(io.StringIO("\n7 3\n1 2\n4 1")))


def test_metis_grammar_tightening():
    with pytest.raises(GraphFormatError, match=r"line 1: malformed METIS header '\+3 2'"):
        load_metis(io.StringIO("+3 2\n2\n1 3\n2\n"))
    with pytest.raises(GraphFormatError, match="line 3: non-integer neighbor '1_0'"):
        load_metis(io.StringIO("3 2\n2\n1_0 3\n2\n"))
    with pytest.raises(GraphFormatError, match="line 2: neighbor -0 out of range"):
        load_metis(io.StringIO("2 1\n-0\n1\n"))


def test_vertex_set_grammar(fixtures_dir):
    g = load_graph(fixtures_dir / "barbell.edgelist")
    cases = {
        "1 +2": "line 1: non-integer vertex id '+2'",
        "# c\n3 -0": "line 2: vertex id -0 out of range (n=10)",
        "1\n2 3 10": "line 2: vertex id 10 out of range (n=10)",
        "4 10000000000000000000": "line 1: vertex id 10000000000000000000 out of range (n=10)",
    }
    for text, message in cases.items():
        with pytest.raises(GraphFormatError) as info:
            load_vertex_set(io.StringIO(text), g)
        assert str(info.value) == message
    assert load_vertex_set(io.StringIO("3\r\n\t1 # é\r\n0003"), g).ids == (1, 3)


# memory bounds ---------------------------------------------------------------


@contextmanager
def peak_bytes():
    """Peak of traced allocations (numpy's included) inside the block."""
    tracemalloc.start()
    result = {}
    try:
        yield result
    finally:
        result["peak"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


@pytest.mark.parametrize(
    "load, text, message",
    [
        (load_edgelist, "0 4000000000\n", "line 1: vertex id 4000000000 exceeds 16 x 1 edges = 16"),
        (load_edgelist, "0 1\n# far\n1 33\n", "line 3: vertex id 33 exceeds 16 x 2 edges = 32"),
        (load_metis, "4000000000 1\n2\n1\n", "header declares 4000000000 vertices but file has 2"),
    ],
)
def test_vertex_count_is_bounded_before_allocation(load, text, message):
    with peak_bytes() as mem, pytest.raises(GraphFormatError) as info:
        load(io.StringIO(text))
    assert str(info.value).startswith(message)
    assert mem["peak"] < 2 * 2**20


def test_bound_admits_sixteen_ids_per_edge():
    g = load_edgelist(io.StringIO(f"0 1\n1 {2 * MAX_IDS_PER_EDGE}\n"))
    assert g.n == 2 * MAX_IDS_PER_EDGE + 1


def test_cli_rejects_huge_vertex_id(capsys, tmp_path):
    graph = tmp_path / "g.edgelist"
    graph.write_text("0 4000000000\n")
    assert run_cli(["stats", "--graph", str(graph)]) == EXIT_INPUT_ERROR
    assert "line 1: vertex id 4000000000 exceeds" in capsys.readouterr().err


# a loaded 1 MB file may peak at no more than this many times its size
PEAK_PER_FILE_BYTE = 12


@pytest.mark.parametrize("fmt", ["edgelist", "metis"])
def test_load_peak_memory_is_bounded_by_file_size(tmp_path, fmt):
    g = ring_of_cliques(2000, 10)
    path = tmp_path / f"g.{fmt}"
    if fmt == "edgelist":
        path.write_text("".join(f"{u} {v}\n" for u, v in edges(g)))
    else:
        rows = (" ".join(str(v + 1) for v in g.adjacent(u)) for u in range(g.n))
        path.write_text(f"{g.n} {g.m}\n" + "\n".join(rows) + "\n")
    size = path.stat().st_size
    assert size > 900_000
    with peak_bytes() as mem:
        loaded = load_graph(path, fmt)
    assert csr(loaded) == csr(g)
    assert mem["peak"] < PEAK_PER_FILE_BYTE * size
