"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``); the
assertions enforce the stated tolerances, which are exact except where a
criterion is explicitly about wall time.
"""

import json
import random
import time
import timeit
from fractions import Fraction

import numpy as np
import pytest

from localcut import (
    InvariantViolation,
    VertexSet,
    build,
    conductance,
    local_flow,
    local_flow_exact,
    local_improve_overlap,
)
from localcut.cli import EXIT_NO_IMPROVEMENT, EXIT_OK, run_cli
from localcut.flow import FlowState, bfs_distances, check_label_monotone
from localcut.improve import BISECTION_WIDTH

from gen import (
    perturb_to_overlap,
    planted_alpha_star,
    ring_of_cliques,
    two_cluster_graph,
)
from oracle import (
    brute_min_cut_value,
    capped_flow,
    edges,
    eval_condition_41,
    path_length_certificate,
    peel_paths,
    reference_max_flow,
    routing_check,
)


def _report(num: int, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'}" + (f" — {detail}" if detail else ""))
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def planted_family():
    """Two-cluster instances at k in {50, 100, 200}, overlap target 2/3."""
    rng = random.Random(5150)
    out = []
    for k, p in ((50, 0.3), (100, 0.15), (200, 0.075)):
        g, b = two_cluster_graph(rng, k, k + k // 4, p, 3)
        a, delta = perturb_to_overlap(rng, g, b, Fraction(2, 3))
        assert delta >= Fraction(2, 3)
        out.append((k, g, b, a, delta))
    return out


def test_criterion_01_oracle_equivalence(small_suite):
    """Three solvers and the subset oracle agree exactly on 500 instances."""
    start = time.time()
    for g, a, alpha, eps in small_suite:
        ag = build(g, a, alpha, eps)
        approx = local_flow(g, a, alpha, eps)
        exact = local_flow_exact(g, a, alpha, eps)
        ref, _ = reference_max_flow(ag)
        assert approx.exact, "phase budget bound on the small family"
        assert approx.flow.value == exact.flow.value == ref.value
        _, best = brute_min_cut_value(ag)
        assert ref.flow_value == best
    elapsed = time.time() - start
    _report(1, elapsed < 60, f"{len(small_suite)} instances in {elapsed:.1f}s")


def _subset_tables(g, a, ag):
    n = g.n
    bits = ((np.arange(1 << n, dtype=np.int64)[:, None] >> np.arange(n)) & 1).astype(
        np.int64
    )
    deg = np.array([g.degree(u) for u in range(n)], dtype=np.int64)
    vol = bits @ deg
    cross = np.zeros(1 << n, dtype=np.int64)
    for u, v in edges(g):
        cross += bits[:, u] ^ bits[:, v]
    seed_deg = np.array([deg[u] if u in a else 0 for u in range(n)], dtype=np.int64)
    inter = bits @ seed_deg
    outside = vol - inter
    sink = np.array(
        [0 if u in a else ag.sink_cap(u) for u in range(n)], dtype=np.int64
    )
    sink_in = bits @ sink
    return vol, cross, inter, outside, sink_in


def test_criterion_02_certificates_exhaustive(small_suite):
    """Cut and flow certificates hold over every subset of every instance."""
    checked_cut = checked_flow = 0
    for g, a, alpha, eps in small_suite:
        ag = build(g, a, alpha, eps)
        n = g.n
        vol, cross, inter, outside, sink_in = _subset_tables(g, a, ag)
        total = g.total_volume
        scale = ag.scale
        p, q = alpha.numerator, alpha.denominator
        # (a) any subset with augmented cut value below vol(A) has phi < alpha
        cutval = ag.edge_cap_unit * cross + scale * (a.volume - inter) + sink_in
        proper = (vol > 0) & (vol < total)
        small_cut = cutval < scale * a.volume
        minvol = np.minimum(vol, total - vol)
        phi_below = cross * q < p * minvol
        bad = proper & small_cut & ~phi_below
        assert not bad.any(), "cut certificate violated"
        checked_cut += int(proper.sum())
        # (b) a full-value flow bounds the boundary of every nonempty subset
        ref, _ = reference_max_flow(ag)
        if ref.value == ag.source_total:
            nonempty = vol > 0
            if eps is None:
                applicable = nonempty & (outside == 0)
                ok = cross * q >= p * inter
            else:
                en, ed = eps.numerator, eps.denominator
                applicable = nonempty
                ok = cross * q * ed >= p * (ed * inter - en * outside)
            assert not (applicable & ~ok).any(), "flow certificate violated"
            checked_flow += int(applicable.sum())
    _report(2, True, f"{checked_cut} cut checks, {checked_flow} flow checks, zero violations")


def test_criterion_03_runtime_assertions(small_suite):
    """Layer/volume/label assertions stay enabled and silent across the suite."""
    phases_seen = 0
    for g, a, alpha, eps in small_suite[:150]:
        approx = local_flow(g, a, alpha, eps)
        exact = local_flow_exact(g, a, alpha, eps)
        phases_seen += approx.stats.phases + exact.stats.phases
    assert phases_seen > 0
    # the machinery actually bites: corrupted state must raise
    g, a, alpha, eps = small_suite[0]
    fs = FlowState(build(g, a, alpha, eps))
    arc = fs.arcs_of[fs.ag.source_id][0]
    fs.arc_flow[arc] += 1  # bypass push(): break antisymmetric bookkeeping
    with pytest.raises(InvariantViolation):
        fs.check_conservation()
    before, _ = bfs_distances(fs)
    shrunk, _ = bfs_distances(fs)
    shrunk[fs.ag.sink_id] = 0
    with pytest.raises(InvariantViolation):
        check_label_monotone(before, shrunk, fs.ag.sink_id)
    _report(3, True, f"{phases_seen} validated phases, zero assertion failures")


def test_criterion_04_overlap_bound_approx(planted_family):
    """vol(S) <= (3/sigma) vol(A) and phi(S) <= (4/delta) phi(B), sigma=2/3."""
    sigma = Fraction(2, 3)
    recovered = 0
    worst = 0.0
    for k, g, b, a, delta in planted_family:
        phi_b = conductance(g, b)
        start = time.time()
        res = local_improve_overlap(g, a, sigma, "approx")
        elapsed = time.time() - start
        assert elapsed < 30, f"k={k} took {elapsed:.1f}s"
        assert res.improved
        assert res.cut.volume <= 3 / sigma * a.volume
        assert res.phi <= 4 / delta * phi_b, f"k={k}: {res.phi} > {4 / delta * phi_b}"
        worst = max(worst, float(res.phi / phi_b))
        if res.phi == phi_b:
            recovered += 1
    _report(4, True, f"phi ratio <= {worst:.2f}, planted cut recovered {recovered}/3")


def test_criterion_05_overlap_bound_exact(planted_family):
    """Exact solver: phi(S) <= (2/delta) phi(B); flow matches the scaled oracle."""
    sigma = Fraction(2, 3)
    for k, g, b, a, delta in planted_family:
        phi_b = conductance(g, b)
        res = local_improve_overlap(g, a, sigma, "exact")
        assert res.improved
        assert res.cut.volume <= 3 / sigma * a.volume
        assert res.phi <= 2 / delta * phi_b, f"k={k}: {res.phi} > {2 / delta * phi_b}"
        if k == 50:
            ag = build(g, a, res.cut_alpha, res.eps)
            ref, _ = reference_max_flow(ag)
            assert ref.value == res.certificate_flow.flow.value
    _report(5, True, "exact bounds hold; k=50 flow equals the global oracle")


def test_criterion_06_locality():
    """Touched volume obeys the 3 vol(A)/sigma cap; wall time ignores graph size."""
    sigma = Fraction(1, 2)
    g_small = ring_of_cliques(10**4, 10)
    a_small = VertexSet(g_small, range(10))
    res = local_improve_overlap(g_small, a_small, sigma)
    cap = 3 * a_small.volume / sigma
    assert res.improved and res.phi == Fraction(2, a_small.volume)
    assert res.touched_volume <= cap, f"{res.touched_volume} > {cap}"

    g_big = ring_of_cliques(10**5, 10)
    a_big = VertexSet(g_big, range(10))
    t_small = min(
        timeit.repeat(lambda: local_improve_overlap(g_small, a_small, sigma), number=1, repeat=5)
    )
    t_big = min(
        timeit.repeat(lambda: local_improve_overlap(g_big, a_big, sigma), number=1, repeat=5)
    )
    ratio = t_big / t_small
    assert ratio < 2, f"10x graph slowed the run by {ratio:.2f}x"
    _report(
        6,
        True,
        f"touched {res.touched_volume} <= {cap}; 10x-size wall-time ratio {ratio:.2f}",
    )


def test_criterion_07_forced_layer_cuts():
    """Early-stopped runs still return a layer cut below twice the parameter."""
    rng = random.Random(424)
    done = 0
    tried = 0
    while done < 100:
        tried += 1
        assert tried < 1000, "instance family too thin"
        k1 = rng.randint(10, 22)
        g, b = two_cluster_graph(rng, k1, k1 + rng.randint(4, 10), 0.45, rng.randint(1, 2))
        a, _ = perturb_to_overlap(rng, g, b, Fraction(2, 3))
        eps = Fraction(2, 3)
        if eps < Fraction(a.volume, g.total_volume - a.volume):
            continue
        alpha = min(Fraction(1), 2 * planted_alpha_star(g, a, b, eps))
        if not eval_condition_41(g, a, b, alpha, eps):
            continue
        full = local_flow(g, a, alpha, eps)
        if full.stats.phases < 2:
            continue
        forced = capped_flow(g, a, alpha, eps, full.stats.phases - 1)
        if forced.exact:
            continue
        phi = conductance(g, forced.cut)
        assert phi < 2 * alpha, f"layer cut {phi} >= 2 alpha {2 * alpha}"
        assert set(forced.cut) <= forced.flow.opened  # the seed plus the saturated set
        done += 1
    _report(7, True, f"{done} early-stopped runs, all layer cuts below 2*alpha")


def test_criterion_08_certificate_suite(small_suite):
    """Full-value flows verify as demand routings through their certificates; path peels conserve."""
    full_flows = 0
    for g, a, alpha, eps in small_suite:
        res = local_flow(g, a, alpha, eps)
        if not res.full_flow:
            continue
        full_flows += 1
        fs = res.flow
        check = routing_check(fs)
        assert check.ok, check.violations[:3]
        paths = peel_paths(fs)
        assert sum(amount for _, amount in paths) == fs.value
        sigma = Fraction(3 * eps, 1 + 3 * eps) if eps is not None else Fraction(1)
        assert path_length_certificate([path for path, _ in paths], alpha, a.volume, sigma)
    assert full_flows >= 20, f"family produced only {full_flows} routing certificates"
    _report(8, True, f"{full_flows} routing certificates verified")


def test_criterion_09_binary_search_contract():
    """Outputs beat 2(1+w)*alpha_star (approx) and (1+w)*alpha_star (exact), w = BISECTION_WIDTH."""
    rng = random.Random(909)
    done = 0
    tried = 0
    while done < 20:
        tried += 1
        assert tried < 300, "planted family too thin"
        k1 = rng.randint(15, 30)
        g, b = two_cluster_graph(rng, k1, k1 + rng.randint(5, 12), 0.4, rng.randint(1, 3))
        a, _ = perturb_to_overlap(rng, g, b, Fraction(2, 3))
        eps = Fraction(2, 3)
        if eps < Fraction(a.volume, g.total_volume - a.volume):
            continue
        alpha_star = planted_alpha_star(g, a, b, eps)
        if alpha_star >= Fraction(1, 2):
            continue
        # the closed form is the exact threshold of the planted inequality
        assert not eval_condition_41(g, a, b, alpha_star, eps)
        assert eval_condition_41(g, a, b, alpha_star * Fraction(1001, 1000), eps)
        res_a = local_improve_overlap(g, a, Fraction(2, 3), "approx")
        res_e = local_improve_overlap(g, a, Fraction(2, 3), "exact")
        assert res_a.improved and res_e.improved
        assert res_a.phi < 2 * (1 + BISECTION_WIDTH) * alpha_star
        assert res_e.phi < (1 + BISECTION_WIDTH) * alpha_star
        done += 1
    _report(9, True, f"{done} planted instances, both contract bounds strict")


def test_criterion_10_cli_end_to_end(capsys, fixtures_dir, tmp_path):
    """The bundled fixture yields phi = 1/7 as exact rational JSON, exit 0."""
    code = run_cli(
        [
            "improve",
            "--graph", str(fixtures_dir / "barbell.edgelist"),
            "--seed-set", str(fixtures_dir / "barbell_seed.txt"),
            "--sigma", "1/2",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["phi"] == {"num": 1, "den": 7}
    assert payload["set"] == [0, 1, 2]
    assert all(
        isinstance(pr["alpha"]["num"], int) and isinstance(pr["alpha"]["den"], int)
        for pr in payload["alpha_trace"]
    )
    # no-improvement exit code is distinct and documented
    edges = "\n".join(f"{i} {4 + j}" for i in range(4) for j in range(8))
    (tmp_path / "bip.edgelist").write_text(edges + "\n")
    (tmp_path / "seed.txt").write_text("0 1 2 3\n")
    code = run_cli(
        [
            "improve",
            "--graph", str(tmp_path / "bip.edgelist"),
            "--seed-set", str(tmp_path / "seed.txt"),
            "--sigma", "1",
        ]
    )
    capsys.readouterr()
    assert code == EXIT_NO_IMPROVEMENT
    _report(10, True, "phi = 1/7 exact JSON; exit codes 0 and 1 as specified")
