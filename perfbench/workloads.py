"""The benchmark's workloads: inputs, timed operations and output checks.

Every workload is closed-loop with one client in one process: the next
operation starts only after the previous one returned and was checked.
Operations are grouped in rounds; a run repeats its rounds in order, and
the time budget is tested only between rounds, so a round (one query, one
big/small ring pair, one scripted CLI session) is never cut short.

Every call gets fresh input objects, built outside the timed interval, so
no cache or memo the program might keep on its ``Graph`` or ``VertexSet``
objects can carry over from one call to the next. Each operation returns
an :class:`Outcome` from its check. Checks run outside the timed interval
and use the benchmark's own edge index, never the program's graph code,
except where the program's global reference solver is the stated oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from localcut import Graph, VertexSet
from localcut.augmented import build
from localcut.flow import global_max_flow
from localcut.graphio import load_graph
from localcut.improve import local_improve_overlap

import instances
from instances import EdgeIndex

SIGMA_PLANTED = Fraction(2, 3)
SIGMA_RING = Fraction(1, 2)
CLIQUE = 10
# a ring seed's best cut is its clique, of conductance about 1/46; at
# 1/64 every ring seed routes its full demand, so a certificate exists
CERT_ALPHA = "1/64"


@dataclass
class Outcome:
    """What a check found: problems (empty when correct), a digest line, a quality ratio."""

    problems: list[str] = field(default_factory=list)
    digest: str = ""
    phi_ratio: Fraction | None = None


@dataclass
class Op:
    """One timed call per round.

    ``prepare(r)`` builds the call's inputs for round ``r``, untimed;
    ``run(inputs)`` is the timed call and ``check(result, inputs)`` the
    untimed output check. ``kind`` names the latency class; ``key``
    identifies the input, whose repeats share one latency list.
    """

    kind: str
    key: str
    prepare: Callable[[int], object]
    run: Callable[[object], object]
    check: Callable[[object, object], Outcome]


@dataclass(frozen=True)
class Sizes:
    """Instance sizes of one workload at full or toy scale.

    With ``spread_setups`` the set-ups after the first run at even
    intervals across the timed window and are discarded; otherwise half
    run before the rounds and half after, each freed before the next, so
    peak memory counts one.
    """

    params: dict
    setup_repeats: int
    traced_rounds: int
    spread_setups: bool = True


def _frac_text(x) -> str:
    return "None" if x is None else f"{x.numerator}/{x.denominator}"


def _digest_improve(key: str, ids, phi, trace) -> str:
    alphas = ",".join(f"{_frac_text(a)}:{o}" for a, o in trace)
    return f"{key}|{list(ids)}|{_frac_text(phi)}|{alphas}"


def check_cut(ids, phi, touched, index: EdgeIndex, a_ids, b_ids, sigma: Fraction, solver: str) -> Outcome:
    """Conductance, volume, locality and overlap-bound checks of one improved cut."""
    out = Outcome()
    p = out.problems
    recomputed = index.conductance(ids)
    if phi != recomputed:
        p.append(f"phi {phi} != recomputed {recomputed}")
    cap = 3 * index.volume(a_ids) / sigma
    if index.volume(ids) > cap:
        p.append(f"output volume {index.volume(ids)} > 3 vol(A)/sigma = {cap}")
    if touched > cap:
        p.append(f"touched volume {touched} > 3 vol(A)/sigma = {cap}")
    phi_b = index.conductance(b_ids)
    delta = Fraction(index.volume(set(a_ids) & set(b_ids)), index.volume(b_ids))
    factor = 4 if solver == "approx" else 2
    if phi > factor / delta * phi_b:
        p.append(f"phi {phi} > {factor}/delta * phi(B) = {factor / delta * phi_b}")
    out.phi_ratio = phi / phi_b
    return out


def check_improve(res, index: EdgeIndex, a_ids, b_ids, sigma: Fraction, solver: str) -> Outcome:
    """:func:`check_cut` of an in-process improve result."""
    if not res.improved:
        return Outcome(["no improvement reported on a planted instance"])
    return check_cut(list(res.cut.ids), res.phi, res.touched_volume, index, a_ids, b_ids, sigma, solver)


def check_exact_flow(res, g: Graph, a: VertexSet) -> list[str]:
    """The exact solver's flow value at ``cut_alpha`` must equal the global max flow."""
    ref, _ = global_max_flow(build(g, a, res.cut_alpha, res.eps))
    if ref.value != res.certificate_flow.flow.value:
        return [f"exact flow value {res.certificate_flow.flow.value} != global_max_flow {ref.value}"]
    return []


# planted ---------------------------------------------------------------------


class Planted:
    """Two-cluster graphs, each with its planted side shrunk to overlap >= 2/3.

    ``solver`` selects the workload: ``planted`` runs the approximate
    solver at k=200, ``planted_exact`` the exact solver at k=50. Each graph
    is one input with its own random seed set; every call on it gets a
    fresh ``Graph`` and ``VertexSet`` built from the same arrays.
    """

    def __init__(self, solver: str, sizes: Sizes):
        self.solver = solver
        self.sizes = sizes

    def setup(self, seed: int):
        k, p, graphs = (self.sizes.params[x] for x in ("k", "p", "graphs"))
        rng = random.Random(seed)
        state = []
        for _ in range(graphs):
            n, edges, b = instances.two_cluster(rng, k, k + k // 4, p, 3)
            Graph(n, edges)  # the program's CSR build; calls get their own copies
            deg = np.bincount(edges.ravel(), minlength=n)
            a, _ = instances.perturb_to_overlap(rng, deg, b, SIGMA_PLANTED)
            state.append((n, edges, b, a))
        return state

    def rounds(self, state, api) -> list[list[Op]]:
        improve = api["improve"]
        solver = self.solver
        out = []
        for q, (n, edges, b, a_ids) in enumerate(state):
            index = EdgeIndex(n, edges)

            def prepare(r, n=n, edges=edges, a_ids=a_ids):
                g = Graph(n, edges)
                return g, VertexSet(g, a_ids)

            def check(res, inputs, index=index, a_ids=a_ids, b=b, q=q):
                o = check_improve(res, index, a_ids, b, SIGMA_PLANTED, solver)
                if solver == "exact" and res.improved:
                    o.problems += check_exact_flow(res, *inputs)
                o.digest = _digest_improve(f"q{q}", res.cut.ids, res.phi, res.alpha_trace)
                return o

            def run(inputs):
                return improve(*inputs, SIGMA_PLANTED, solver)

            out.append([Op("main", f"q{q}", prepare, run, check)])
        return out


# ring ------------------------------------------------------------------------


class Ring:
    """A 10^6-vertex ring of cliques, interleaved with the same queries on a 10^5 ring.

    Round ``r`` asks query ``r mod Q`` on the big ring (latency class
    ``main``) and then on the small ring (class ``small``), for
    ``locality_ratio``. A query is a pair of dropped clique offsets; each
    round applies it to the next clique of a seeded permutation, so no two
    calls share a seed set. Rings are homogeneous, so a query poses the
    same local problem at any clique.
    """

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed: int):
        big, small, queries = (self.sizes.params[x] for x in ("big", "small", "queries"))
        rings = []
        for num in (big, small):
            edges = instances.ring_of_cliques(num, CLIQUE)
            rings.append((num, Graph(num * CLIQUE, edges), edges))
        rng = random.Random(seed)
        drops = [instances.ring_query(rng, small, CLIQUE)[1] for _ in range(queries)]
        cliques = list(range(small))
        rng.shuffle(cliques)
        return rings, drops, cliques

    def rounds(self, state, api) -> list[list[Op]]:
        improve = api["improve"]
        rings, drops, cliques = state
        indexed = [(num, g, EdgeIndex(g.n, edges)) for num, g, edges in rings]
        rings.clear()  # the check indexes replace the edge arrays
        out = []
        for q, drop in enumerate(drops):
            ops = []
            for kind, (num, g, index) in zip(("main", "small"), indexed):

                def prepare(r, num=num, g=g, drop=drop):
                    a_ids, clique = instances.ring_seed(cliques[r % len(cliques)], drop, num, CLIQUE)
                    return VertexSet(g, a_ids), a_ids, clique

                def run(inputs, g=g):
                    return improve(g, inputs[0], SIGMA_RING, "approx")

                def check(res, inputs, index=index, key=f"{kind}{q}"):
                    _, a_ids, clique = inputs
                    o = check_improve(res, index, a_ids, clique, SIGMA_RING, "approx")
                    o.digest = _digest_improve(key, res.cut.ids, res.phi, res.alpha_trace)
                    return o

                ops.append(Op(kind, f"{kind}{q}", prepare, run, check))
            out.append(ops)
        return out


# cli -------------------------------------------------------------------------


def _frac_json(x) -> Fraction:
    """Parse an exact ``{"num": p, "den": q}`` pair; anything else raises ``ValueError``."""
    if (
        not isinstance(x, dict)
        or set(x) != {"num", "den"}
        or not all(isinstance(x[k], int) for k in ("num", "den"))
    ):
        raise ValueError(f"not an exact rational pair: {x!r}")
    return Fraction(x["num"], x["den"])


class Cli:
    """Scripted CLI sessions over edge-list and METIS files of a ring of cliques.

    Each round is one session for one seed file: ``improve`` on both
    formats, ``improve-exact``, ``stats``, ``seed``, ``certify --out`` and
    ``certify --check`` of the certificate just written. Every call goes
    through ``run_cli`` in-process, so each re-parses its file as a CLI
    process would, without interpreter start-up.
    """

    COMMANDS = ("improve", "improve-metis", "improve-exact", "stats", "seed", "certify-out", "certify-check")

    def __init__(self, sizes: Sizes, workdir: str):
        self.sizes = sizes
        self.workdir = workdir

    def setup(self, seed: int):
        """Write the edge list and seed files, then load the graph as a CLI call does."""
        num, seeds = self.sizes.params["num"], self.sizes.params["seeds"]
        d = tempfile.mkdtemp(prefix="cli-", dir=self.workdir)
        edges = instances.ring_of_cliques(num, CLIQUE)
        el = os.path.join(d, "g.edgelist")
        with open(el, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{u} {v}\n" for u, v in edges.tolist()))
        rng = random.Random(seed)
        queries = []
        for i in range(seeds):
            c, drop = instances.ring_query(rng, num, CLIQUE)
            a_ids, clique = instances.ring_seed(c, drop, num, CLIQUE)
            path = os.path.join(d, f"seed{i}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(" ".join(map(str, a_ids)) + "\n")
            queries.append((path, a_ids, clique))
        return d, edges, load_graph(el), queries

    def rounds(self, state, api) -> list[list[Op]]:
        """Write the METIS file and build the check index: untimed, once."""
        d, edges, g, queries = state
        index = EdgeIndex(g.n, edges)
        el, metis = os.path.join(d, "g.edgelist"), os.path.join(d, "g.metis")
        with open(metis, "w", encoding="utf-8") as fh:
            fh.write(f"{g.n} {len(edges)}\n")
            off, nbr = index.off.tolist(), (index.nbr + 1).tolist()
            fh.write("".join(" ".join(map(str, nbr[off[u] : off[u + 1]])) + "\n" for u in range(g.n)))
        run_cli = api["cli"]

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli(argv)
            return code, out.getvalue(), err.getvalue()

        out = []
        for i, (seed_path, a_ids, clique) in enumerate(queries):
            cert = os.path.join(d, f"cert{i}.txt")
            common = ["--seed-set", seed_path]
            improve = [*common, "--sigma", "1/2", "--instrument"]
            argvs = {
                "improve": ["improve", "--graph", el, *improve],
                "improve-metis": ["improve", "--graph", metis, "--format", "metis", *improve],
                "improve-exact": ["improve-exact", "--graph", el, *improve],
                "stats": ["stats", "--graph", el, *common, "--json"],
                "seed": ["seed", "--graph", el, "--seed", str(a_ids[0]), "--volume-cap", "200"],
                "certify-out": ["certify", "--graph", el, *common, "--alpha", CERT_ALPHA, "--sigma", "1/2", "--out", cert],
                "certify-check": ["certify", "--graph", el, *common, "--check", cert],
            }
            ops = []
            for name in self.COMMANDS:
                check = self._checker(name, g, index, a_ids, clique, cert, f"{name}{i}")
                ops.append(Op("main", f"{name}{i}", lambda r, argv=argvs[name]: argv, run, check))
            out.append(ops)
        return out

    @staticmethod
    def _checker(name: str, g: Graph, index: EdgeIndex, a_ids, clique, cert: str, key: str):
        exact_verified: set[str] = set()

        def check(result, argv) -> Outcome:
            code, stdout, stderr = result
            if code != 0:
                o = Outcome([f"{name}: exit code {code}: {stderr.strip()[:200]}"])
            else:
                try:
                    o = _check_output(name, stdout, index, a_ids, clique, cert)
                    if name == "improve-exact" and not o.problems and stdout not in exact_verified:
                        o.problems += _check_exact_json(json.loads(stdout), g, a_ids)
                        exact_verified.add(stdout)
                except (ValueError, KeyError, TypeError) as exc:
                    o = Outcome([f"{name}: malformed output ({type(exc).__name__}: {exc})"])
            # the session directory differs per run; keep it out of the digest
            o.digest = f"{key}|{code}|{stdout.strip().replace(os.path.dirname(cert), '')}" + o.digest
            return o

        return check


def _check_output(name: str, stdout: str, index: EdgeIndex, a_ids, clique, cert: str) -> Outcome:
    """Check one successful command's output; a malformed payload raises."""
    if name.startswith("improve"):
        return _check_improve_json(json.loads(stdout), index, a_ids, clique, name)
    o = Outcome()
    p = o.problems
    if name == "stats":
        payload = json.loads(stdout)
        want = {"n": index.n, "m": index.m, "volume": index.total_volume, "vol_a": index.volume(a_ids)}
        for field_name, value in want.items():
            if payload[field_name] != value:
                p.append(f"stats: {field_name} {payload[field_name]} != {value}")
        if _frac_json(payload["phi_a"]) != index.conductance(a_ids):
            p.append("stats: phi_a differs from recomputed conductance")
    elif name == "seed":
        payload = json.loads(stdout)
        if payload["seed"] != a_ids[0]:
            p.append("seed: wrong seed vertex echoed")
        if payload["vol"] != index.volume(payload["set"]):
            p.append("seed: vol differs from recomputed volume")
        if _frac_json(payload["phi"]) != index.conductance(payload["set"]):
            p.append("seed: phi differs from recomputed conductance")
    elif name == "certify-out":
        with open(cert, encoding="utf-8") as fh:
            text = fh.read()
        if not stdout.startswith("wrote certificate with "):
            p.append(f"certify --out: unexpected output {stdout.strip()[:80]!r}")
        if f"flow-value {index.volume(a_ids)}\n" not in text:
            p.append("certify --out: flow value is not vol(A)")
        o.digest = "|" + text
    elif stdout.strip() != "certificate valid":
        p.append(f"certify --check: unexpected output {stdout.strip()[:80]!r}")
    return o


def _check_improve_json(payload: dict, index: EdgeIndex, a_ids, clique, name: str) -> Outcome:
    """:func:`check_cut` of an improve command's JSON, plus its format-only checks."""
    solver = "exact" if name == "improve-exact" else "approx"
    if payload["solver"] != solver or payload["improved"] is not True:
        return Outcome([f"{name}: solver/improved fields wrong: {payload['solver']}, {payload['improved']}"])
    ids = payload["set"]
    o = check_cut(ids, _frac_json(payload["phi"]), payload["touched_volume"], index, a_ids, clique, SIGMA_RING, solver)
    o.problems = [f"{name}: {x}" for x in o.problems]
    if payload["vol"] != index.volume(ids):
        o.problems.append(f"{name}: vol differs from recomputed volume")
    for step in payload["alpha_trace"]:
        _frac_json(step["alpha"])
        if step["outcome"] not in ("full-flow", "cut-found"):
            o.problems.append(f"{name}: unknown probe outcome {step['outcome']!r}")
    return o


def _check_exact_json(payload: dict, g: Graph, a_ids) -> list[str]:
    """Rerun the exact improve in-process on the loaded graph; its flow must be the global max."""
    a = VertexSet(g, a_ids)
    res = local_improve_overlap(g, a, SIGMA_RING, "exact")
    if list(res.cut.ids) != payload["set"] or res.phi != _frac_json(payload["phi"]):
        return ["improve-exact: output differs from the in-process exact solver"]
    return [f"improve-exact: {x}" for x in check_exact_flow(res, g, a)]


# registry --------------------------------------------------------------------

# Few inputs, each repeated many times a run: the metrics use each input's
# fastest call, and on a shared host whose speed drifts over seconds that
# reading steadies with the number of repeats (see notes.json). Ring
# set-ups run before and after the rounds, not between them, since a
# second 10^6-vertex ring would double memory.
FULL = {
    "planted": Sizes({"k": 200, "p": 0.075, "graphs": 8}, 40, 8),
    "planted_exact": Sizes({"k": 50, "p": 0.3, "graphs": 2}, 15, 2),
    "ring": Sizes({"big": 10**5, "small": 10**4, "queries": 8}, 6, 40, spread_setups=False),
    "cli": Sizes({"num": 2000, "seeds": 1}, 15, 2),
}
TOY = {
    "planted": Sizes({"k": 30, "p": 0.5, "graphs": 2}, 3, 2),
    "planted_exact": Sizes({"k": 12, "p": 0.6, "graphs": 2}, 3, 2),
    "ring": Sizes({"big": 2000, "small": 200, "queries": 8}, 2, 2, spread_setups=False),
    "cli": Sizes({"num": 100, "seeds": 1}, 3, 2),
}


def make(name: str, toy: bool, workdir: str):
    sizes = (TOY if toy else FULL)[name]
    if name == "planted":
        return Planted("approx", sizes)
    if name == "planted_exact":
        return Planted("exact", sizes)
    if name == "ring":
        return Ring(sizes)
    if name == "cli":
        return Cli(sizes, workdir)
    raise ValueError(f"unknown workload {name!r}")
