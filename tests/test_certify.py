import io
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from localcut import (
    FlowState,
    Graph,
    NotACertificateError,
    ParameterError,
    VertexSet,
    boundary_edges,
    build,
    decompose_paths,
    local_flow,
    local_flow_exact,
)
from localcut.certify import (
    PathDecomposition,
    validate_certificate,
    write_certificate,
)

from gen import FORGED_CERTIFICATE, barbell, random_instance
from oracle import expansion_lower_bound, path_length_certificate, push, routing_check


def bipartite_instance():
    g = Graph(12, [(i, 4 + j) for i in range(4) for j in range(8)])
    a = VertexSet(g, range(4))
    eps = Fraction(a.volume, g.total_volume - a.volume)
    return g, a, eps


def full_flow_state():
    g, a, eps = bipartite_instance()
    res = local_flow(g, a, Fraction(1), eps)
    assert res.full_flow
    return g, a, eps, res.flow


def test_zero_flow_fails_verification():
    g, a, eps = bipartite_instance()
    fs = FlowState(build(g, a, Fraction(1), eps))
    check = routing_check(fs)
    assert not check.ok
    assert check.violations


def test_decompose_single_path():
    from gen import path_graph

    g = path_graph(2)
    a = VertexSet(g, [0])
    res = local_flow(g, a, Fraction(1), Fraction(1))
    pd = decompose_paths(res.flow)
    assert len(pd.paths) == 1
    assert pd.paths[0] == (0, 1)
    assert pd.total == res.flow.value


def test_decompose_zero_flow():
    g, a, eps = bipartite_instance()
    pd = decompose_paths(FlowState(build(g, a, Fraction(1), eps)))
    assert pd.paths == [] and pd.total == 0


def test_decompose_conserves_value(small_suite):
    for g, a, alpha, eps in small_suite[:100]:
        res = local_flow(g, a, alpha, eps)
        pd = decompose_paths(res.flow)
        assert pd.total == res.flow.value
        # every interior step is an edge of the graph
        for path in pd.paths:
            for u, v in zip(path, path[1:]):
                assert v in g.adjacent(u)


def test_expansion_lower_bound_examples():
    g, a, eps, fs = full_flow_state()
    # sources entirely inside S, sinks outside: the bound is the full demand
    s_all = VertexSet(g, range(4))
    assert expansion_lower_bound(g, fs, s_all, Fraction(1)) == a.volume
    disjoint = VertexSet(g, [4, 5])
    assert expansion_lower_bound(g, fs, disjoint, Fraction(1)) == 0


def test_expansion_lower_bound_exhaustive_small():
    g, a, eps, fs = full_flow_state()
    rng = random.Random(4)
    for _ in range(50):
        s = VertexSet(g, rng.sample(range(12), rng.randint(1, 11)))
        bound = expansion_lower_bound(g, fs, s, Fraction(1))
        assert bound <= boundary_edges(g, s)


def test_expansion_lower_bound_requires_full_flow():
    g = barbell()
    a = VertexSet(g, [0, 1, 2])
    res = local_flow(g, a, Fraction(1, 2), Fraction(1, 3))
    assert not res.full_flow
    with pytest.raises(NotACertificateError):
        expansion_lower_bound(g, res.flow, a, Fraction(1, 2))


def test_path_length_certificate():
    g, a, eps, fs = full_flow_state()
    pd = decompose_paths(fs)
    assert path_length_certificate(pd, Fraction(1), a.volume, Fraction(1, 2))
    long_pd = PathDecomposition([tuple(range(500))], [1], 1)
    assert not path_length_certificate(long_pd, Fraction(1), a.volume, Fraction(1, 2))


def test_certificate_round_trip():
    g, a, eps, fs = full_flow_state()
    pd = decompose_paths(fs)
    buf = io.StringIO()
    write_certificate(buf, fs.ag, pd)
    buf.seek(0)
    report = validate_certificate(buf, g, a)
    assert report.ok, report.violations


def test_certificate_detects_tampering():
    g, a, eps, fs = full_flow_state()
    pd = decompose_paths(fs)
    buf = io.StringIO()
    write_certificate(buf, fs.ag, pd)
    text = buf.getvalue().replace("flow-value 32", "flow-value 31")
    report = validate_certificate(io.StringIO(text), g, a)
    assert not report.ok


# one case per violation kind ------------------------------------------------


def bipartite_certificate(alpha: str = "1", eps: str = "1") -> str:
    """A valid certificate for the full flow on K_{4,8}: one unit per edge, seed side first."""
    paths = "".join(f"path {u} {v} 1\n" for u in range(4) for v in range(4, 12))
    return f"alpha {alpha}\neps-sigma {eps}\nvol-a 32\nflow-value 32\n" + paths


@pytest.mark.parametrize("alpha, eps", [("1", "1"), ("1/2", "2")])
def test_bipartite_certificate_is_valid(alpha, eps):
    g, a, _ = bipartite_instance()
    report = validate_certificate(io.StringIO(bipartite_certificate(alpha, eps)), g, a)
    assert report.ok, report.violations


@pytest.mark.parametrize(
    "alpha, eps, edits, violations",
    [
        # header alpha 1/2 and eps 2 leave every edge and sink room, so only the tampering shows
        ("1/2", "2", {"path 0 4 1": "path 0 5 4 1"}, ["path step (5, 4) is not an edge"]),
        (
            "1/2", "2", {"path 0 4 1": "path 5 1 4 1"},
            ["path starts outside the seed set: 5", "seed vertex 0 emits 7, demand is 8"],
        ),
        ("1/2", "2", {"path 0 4 1": "path 0 4 1 1"}, ["path ends inside the seed set: 1"]),
        ("1/2", "1", {"path 0 4 1": "path 0 5 1"}, ["sink 5 absorbs 5, cap is 4"]),
        (
            "1/2", "2", {"path 0 4 1": "path 0 4 1/2", "path 1 4 1": "path 1 4 3/2"},
            ["seed vertex 0 emits 15/2, demand is 8", "seed vertex 1 emits 17/2, demand is 8"],
        ),
        ("1", "2", {"path 0 4 1": "path 0 5 1"}, ["edge (0, 5) carries 2, congestion cap is 1"]),
        (
            "1/2", "2", {"path 0 4 1": ""},
            ["path amounts add to 31, header says 32", "seed vertex 0 emits 7, demand is 8"],
        ),
        # every kind at once, reported header, paths, total, demand, absorption, congestion
        (
            "1", "1",
            {
                "vol-a 32": "vol-a 31",
                "path 0 4 1": "path 0 5 4 1",
                "path 1 4 1": "path 1 5 1",
                "path 2 4 1": "",
            },
            [
                "header vol-a 31 != vol(A) 32",
                "path step (5, 4) is not an edge",
                "path amounts add to 31, header says 32",
                "seed vertex 2 emits 7, demand is 8",
                "sink 5 absorbs 5, cap is 4",
                "edge (0, 5) carries 2, congestion cap is 1",
                "edge (1, 5) carries 2, congestion cap is 1",
            ],
        ),
    ],
    ids=[
        "non-edge", "starts-outside", "ends-inside", "sink", "demand", "congestion", "total",
        "all-kinds",
    ],
)
def test_certificate_reports_each_violation_kind(alpha, eps, edits, violations):
    g, a, _ = bipartite_instance()
    lines = bipartite_certificate(alpha, eps).splitlines()
    text = "\n".join(edits.get(line, line) for line in lines) + "\n"
    report = validate_certificate(io.StringIO(text), g, a)
    assert (report.ok, report.violations) == (False, violations)


def arc_between(fs: FlowState, u: int, v: int) -> int:
    return next(x for x in fs.arcs_of[u] if fs.arc_to[x] == v)


def test_decompose_leaves_circulation_out():
    # a triangle seed, each vertex with its own pendant neighbor, which routes its demand
    g = Graph(7, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (4, 6), (5, 6)])
    a = VertexSet(g, [0, 1, 2])
    alpha, eps = Fraction(1, 4), Fraction(2)
    res = local_flow(g, a, alpha, eps)
    assert res.full_flow
    fs = res.flow
    cycle = ((0, 1), (1, 2), (2, 0))
    for u, v in cycle:
        push(fs, arc_between(fs, u, v), fs.ag.scale)
    fs.check_conservation()
    assert all(fs.arc_flow[arc_between(fs, u, v)] == fs.ag.scale for u, v in cycle)
    pd = decompose_paths(fs)
    assert pd.total == fs.value
    assert pd.paths == [(0, 3), (1, 4), (2, 5)]
    buf = io.StringIO()
    write_certificate(buf, fs.ag, pd)
    report = validate_certificate(io.StringIO(buf.getvalue()), g, a)
    assert report.ok, report.violations


# an accepted certificate means what it says -----------------------------------


def _shortest_walk(g: Graph, u: int, v: int) -> list[int]:
    """A fewest-edge walk from ``u`` to ``v``, which must be connected."""
    parent = {u: u}
    dq = deque([u])
    while v not in parent:
        x = dq.popleft()
        for y in map(int, g.adjacent(x)):
            if y not in parent:
                parent[y] = x
                dq.append(y)
    walk = [v]
    while walk[-1] != u:
        walk.append(parent[walk[-1]])
    return walk[::-1]


@st.composite
def moved_amount_certificates(draw):
    """A full flow's certificate with part of one path's amount moved onto another walk.

    The moved amount may be negative, zero, or more than the path carries;
    the walk has the path's two ends, so every vertex still emits and
    absorbs what it did.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g, a, alpha, eps = random_instance(rng, nmax=8)
    for probe in (alpha, alpha / 4, Fraction(1, g.total_volume + 1)):
        res = local_flow_exact(g, a, probe, eps)
        if res.full_flow:
            break
    assume(res.full_flow)
    text = io.StringIO()
    write_certificate(text, res.flow.ag, decompose_paths(res.flow))
    lines = text.getvalue().splitlines()
    i = draw(st.integers(4, len(lines) - 1))
    *ids, amount = lines[i].split()[1:]
    start, end = int(ids[0]), int(ids[-1])
    moved = Fraction(amount) * Fraction(draw(st.integers(-8, 8)), 4)
    lines[i] = " ".join(["path", *ids, str(Fraction(amount) - moved)])
    walk = [start]
    for _ in range(draw(st.integers(0, 4))):
        walk.append(draw(st.sampled_from([int(w) for w in g.adjacent(walk[-1])])))
    walk += _shortest_walk(g, walk[-1], end)[1:]
    lines.append(" ".join(["path", *map(str, walk), str(moved)]))
    return g, a, "\n".join(lines) + "\n"


_BARBELL = barbell()


@given(case=moved_amount_certificates())
@example(case=(_BARBELL, VertexSet(_BARBELL, [0, 1, 2]), FORGED_CERTIFICATE))
@settings(max_examples=100, deadline=None)
def test_accepted_certificate_bounds_every_set(case):
    """If a certificate is accepted, every set's boundary is at least the bound it states.

    That is ``alpha * (vol(S & A) - eps * vol(S - A))``; with ``eps-sigma
    inf`` only sets inside the seed are bounded.
    """
    g, a, text = case
    try:
        report = validate_certificate(io.StringIO(text), g, a)
    except ParameterError:
        return
    if not report.ok:
        return
    header = dict(line.split(" ", 1) for line in text.splitlines()[:2])
    alpha = Fraction(header["alpha"])
    eps = None if header["eps-sigma"] == "inf" else Fraction(header["eps-sigma"])
    for bits in range(1, 1 << g.n):
        s = VertexSet(g, [v for v in range(g.n) if bits >> v & 1])
        if eps is None and not all(v in a for v in s):
            continue
        inside = sum(g.degree(v) for v in s if v in a)
        demand = inside if eps is None else inside - eps * (s.volume - inside)
        assert boundary_edges(g, s) >= alpha * demand, (sorted(s), text)
