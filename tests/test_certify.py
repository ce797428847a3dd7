import io
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from localcut import (
    Graph,
    NotACertificateError,
    ParameterError,
    VertexSet,
    boundary_edges,
    build,
    local_flow,
    local_flow_exact,
)
from localcut.certify import validate_certificate, write_certificate
from localcut.flow import FlowState

from gen import FORGED_CERTIFICATE, barbell, path_graph, random_instance
from oracle import expansion_lower_bound, path_length_certificate, peel_paths, push, routing_check


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


# the oracle's shortest-first peel, and the certificate the writer takes off the same flow


def test_decompose_single_path():
    g = path_graph(2)
    a = VertexSet(g, [0])
    res = local_flow(g, a, Fraction(1), Fraction(1))
    assert peel_paths(res.flow) == [((0, 1), res.flow.value)]
    text = io.StringIO()
    assert write_certificate(text, res.flow) == 1
    assert text.getvalue().splitlines()[3:] == ["flow-value 1", "edge 0 1 1"]


def test_decompose_zero_flow():
    g, a, eps = bipartite_instance()
    fs = FlowState(build(g, a, Fraction(1), eps))
    assert peel_paths(fs) == []
    text = io.StringIO()
    assert write_certificate(text, fs) == 0
    assert text.getvalue() == f"alpha 1\neps-sigma {eps}\nvol-a 32\nflow-value 0\n"


def test_decompose_conserves_value(small_suite):
    for g, a, alpha, eps in small_suite[:100]:
        fs = local_flow(g, a, alpha, eps).flow
        paths = peel_paths(fs)
        assert sum(amount for _, amount in paths) == fs.value
        # every interior step is an edge of the graph
        for path, _ in paths:
            for u, v in zip(path, path[1:]):
                assert v in g.adjacent(u)
        text = io.StringIO()
        count = write_certificate(text, fs)
        lines = text.getvalue().splitlines()
        assert lines[3] == f"flow-value {Fraction(fs.value, fs.ag.scale)}"
        rows = [(int(u), int(v), Fraction(amount)) for _, u, v, amount in map(str.split, lines[4:])]
        assert len(rows) == count == len({frozenset(row[:2]) for row in rows})
        # each line is an edge carrying flow, and what leaves the seed set is the value
        assert all(v in g.adjacent(u) and amount > 0 for u, v, amount in rows)
        sent = sum(amount * ((u in a) - (v in a)) for u, v, amount in rows)
        assert sent * fs.ag.scale == fs.value


def test_expansion_lower_bound_examples():
    g, a, eps, fs = full_flow_state()
    # sources entirely inside S, sinks outside: the bound is the full demand
    s_all = VertexSet(g, range(4))
    assert expansion_lower_bound(g, fs, s_all, Fraction(1)) == a.volume
    # sinks only take flow in, so the bound on them is vacuous
    disjoint = VertexSet(g, [4, 5])
    assert expansion_lower_bound(g, fs, disjoint, Fraction(1)) == -8


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
    paths = [path for path, _ in peel_paths(fs)]
    assert path_length_certificate(paths, Fraction(1), a.volume, Fraction(1, 2))
    assert not path_length_certificate([tuple(range(500))], Fraction(1), a.volume, Fraction(1, 2))


def test_certificate_round_trip():
    g, a, eps, fs = full_flow_state()
    buf = io.StringIO()
    write_certificate(buf, fs)
    buf.seek(0)
    report = validate_certificate(buf, g, a)
    assert report.ok, report.violations


def test_certificate_detects_tampering():
    g, a, eps, fs = full_flow_state()
    buf = io.StringIO()
    write_certificate(buf, fs)
    text = buf.getvalue().replace("flow-value 32", "flow-value 31")
    report = validate_certificate(io.StringIO(text), g, a)
    assert not report.ok


# one case per violation kind ------------------------------------------------


def bipartite_certificate(alpha: str = "1", eps: str = "1") -> str:
    """A valid certificate for the full flow on K_{4,8}: one unit per edge, seed side first."""
    edges = "".join(f"edge {u} {v} 1\n" for u in range(4) for v in range(4, 12))
    return f"alpha {alpha}\neps-sigma {eps}\nvol-a 32\nflow-value 32\n" + edges


@pytest.mark.parametrize("alpha, eps", [("1", "1"), ("1/2", "2")])
def test_bipartite_certificate_is_valid(alpha, eps):
    g, a, _ = bipartite_instance()
    report = validate_certificate(io.StringIO(bipartite_certificate(alpha, eps)), g, a)
    assert report.ok, report.violations


# vertex 4 sends 4 back to seed 0 while taking 3 in; 0 sends the 5 it lacks over (0, 5)
_SENDS_OUT = {"edge 0 4 1": "edge 4 0 4", "edge 0 5 1": "edge 0 5 6"}


@pytest.mark.parametrize(
    "alpha, eps, edits, violations",
    [
        # header alpha 1/2 and eps 2 leave every edge and sink room, so only the tampering shows
        (
            "1/2", "2", {"edge 0 4 1": "edge 5 4 1", "edge 0 5 1": "edge 0 5 2"},
            ["line 5: (5, 4) is not an edge"],
        ),
        ("1/8", "3", _SENDS_OUT, ["vertex 4 is not a seed but sends out 1"]),
        ("1/2", "2", {"edge 0 4 1": "edge 4 0 1"}, ["seed vertex 0 sends out 6, demand is 8"]),
        (
            "1/2", "1", {"edge 0 4 1": "", "edge 0 5 1": "edge 0 5 2"},
            ["sink 5 absorbs 5, cap is 4"],
        ),
        (
            "1/2", "2", {"edge 0 4 1": "edge 0 4 1/2", "edge 1 4 1": "edge 1 4 3/2"},
            [
                "seed vertex 0 sends out 15/2, demand is 8",
                "seed vertex 1 sends out 17/2, demand is 8",
            ],
        ),
        (
            "1", "2", {"edge 0 4 1": "", "edge 0 5 1": "edge 0 5 2"},
            ["edge (0, 5) on line 6 carries 2, congestion cap is 1"],
        ),
        ("1/2", "2", {"edge 0 4 1": ""}, ["seed vertex 0 sends out 7, demand is 8"]),
        # eps-sigma inf caps no absorption, but a vertex that is no seed still sends nothing
        ("1/8", "inf", _SENDS_OUT, ["vertex 4 is not a seed but sends out 1"]),
        # every kind at once, reported header, edge lines, demand, other vertices, congestion
        (
            "1", "1",
            {
                "vol-a 32": "vol-a 31",
                "edge 0 4 1": "edge 5 4 5",
                "edge 1 4 1": "",
                "edge 1 6 1": "edge 1 6 2",
            },
            [
                "header vol-a 31 != vol(A) 32",
                "line 5: (5, 4) is not an edge",
                "seed vertex 0 sends out 7, demand is 8",
                "vertex 5 is not a seed but sends out 1",
                "sink 4 absorbs 7, cap is 4",
                "sink 6 absorbs 5, cap is 4",
                "edge (1, 6) on line 15 carries 2, congestion cap is 1",
            ],
        ),
    ],
    ids=[
        "non-edge", "starts-outside", "ends-inside", "sink", "demand", "congestion", "total",
        "sends-out-uncapped", "all-kinds",
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
    paths = peel_paths(fs)
    assert sum(amount for _, amount in paths) == fs.value
    assert [path for path, _ in paths] == [(0, 3), (1, 4), (2, 5)]
    # the certificate states the circulation too, and it still validates
    buf = io.StringIO()
    assert write_certificate(buf, fs) == 6
    assert buf.getvalue().splitlines()[4:] == [
        "edge 0 1 1", "edge 0 3 3", "edge 1 2 1", "edge 1 4 3", "edge 2 0 1", "edge 2 5 3",
    ]
    report = validate_certificate(io.StringIO(buf.getvalue()), g, a)
    assert report.ok, report.violations


# an accepted certificate means what it says -----------------------------------


def _bfs_parents(g: Graph, root: int) -> dict[int, int]:
    """Each vertex reachable from ``root`` mapped to its neighbor one step closer to it."""
    parent = {root: root}
    dq = deque([root])
    while dq:
        x = dq.popleft()
        for y in map(int, g.adjacent(x)):
            if y not in parent:
                parent[y] = x
                dq.append(y)
    return parent


@st.composite
def walked_certificates(draw):
    """A full flow's certificate with a drawn amount added along a random walk's edge lines.

    The amount is a multiple, from -2 to 2 in quarters, of one line's
    amount: negative, zero, or more than a cap allows. The walk runs from a
    drawn vertex to a drawn vertex of its component, often itself, which
    leaves every vertex's net outflow as it was. A step along a line's
    orientation adds the amount, a step against it subtracts it, and a step
    on an edge with no line adds one. Lines may then be turned to carry
    positive amounts only, so that some forgeries parse. The header may
    claim more than the flow shows: an alpha up to 4 times higher, a sink
    factor up to 4 times lower.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g, a, alpha, eps = random_instance(rng, nmax=8)
    for probe in (alpha, alpha / 4, Fraction(1, g.total_volume + 1)):
        res = local_flow_exact(g, a, probe, eps)
        if res.full_flow:
            break
    assume(res.full_flow)
    text = io.StringIO()
    write_certificate(text, res.flow)
    lines = text.getvalue().splitlines()
    ag = res.flow.ag
    lines[0] = f"alpha {min(1, ag.alpha * draw(st.sampled_from([1, 2, 4])))}"
    if ag.eps is not None:
        lines[1] = f"eps-sigma {ag.eps / draw(st.sampled_from([1, 2, 4]))}"
    flows: dict[frozenset[int], list] = {}
    for line in lines[4:]:
        _, u, v, amount = line.split()
        flows[frozenset((int(u), int(v)))] = [int(u), int(v), Fraction(amount)]
    unit = draw(st.sampled_from([f for _, _, f in flows.values()])) if flows else Fraction(1)
    moved = unit * Fraction(draw(st.integers(-8, 8)), 4)
    start = draw(st.sampled_from([v for v in range(g.n) if g.degree(v)]))
    walk = [start]
    for _ in range(draw(st.integers(0, 4))):
        walk.append(draw(st.sampled_from([int(w) for w in g.adjacent(walk[-1])])))
    end = draw(st.one_of(st.just(start), st.sampled_from(sorted(_bfs_parents(g, start)))))
    toward_end = _bfs_parents(g, end)
    while walk[-1] != end:
        walk.append(toward_end[walk[-1]])
    for x, y in zip(walk, walk[1:]):
        line = flows.setdefault(frozenset((x, y)), [x, y, Fraction(0)])
        line[2] += moved if line[0] == x else -moved
    if draw(st.booleans()):
        flows = {k: [v, u, -f] if f < 0 else [u, v, f] for k, (u, v, f) in flows.items() if f}
    body = [f"edge {u} {v} {f}" for u, v, f in flows.values()]
    return g, a, "\n".join(lines[:4] + body) + "\n"


_BARBELL = barbell()
# claims alpha * vol(A) = 7/2 > 1 on the seed's boundary, with positive amounts only:
# read as the last of its two lines, the bridge (2, 3) would carry 1, under its cap of 2
_REPEATED_EDGE_FORGERY = (
    "alpha 1/2\neps-sigma inf\nvol-a 7\nflow-value 7\n"
    "edge 0 2 2\nedge 1 2 2\nedge 2 3 8\nedge 3 2 1\n"
)


@given(case=walked_certificates())
@example(case=(_BARBELL, VertexSet(_BARBELL, [0, 1, 2]), FORGED_CERTIFICATE))
@example(case=(_BARBELL, VertexSet(_BARBELL, [0, 1, 2]), _REPEATED_EDGE_FORGERY))
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
