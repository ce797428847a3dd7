import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import FORGED_CERTIFICATE, barbell, ring_of_cliques
import localcut
from localcut import epsilon_sigma, graphio, local_flow_exact
from localcut.certify import write_certificate
from localcut.cli import _PARSER, EXIT_INPUT_ERROR, EXIT_NO_IMPROVEMENT, EXIT_OK, run_cli
from localcut.graphio import load_graph, load_vertex_set, parse_rational, parse_unsigned
from oracle import edges


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "stats",
        "--graph", str(fixtures_dir / "barbell.edgelist"),
        "--seed-set", str(fixtures_dir / "barbell_seed.txt"),
        "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["n"] == 10 and payload["m"] == 25
    assert payload["vol_a"] == 7
    assert payload["phi_a"] == {"num": 1, "den": 7}


def test_stats_text(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "stats",
        "--graph", str(fixtures_dir / "barbell.edgelist"),
        "--seed-set", str(fixtures_dir / "barbell_seed.txt"),
    )
    assert code == EXIT_OK
    assert out == "n: 10\nm: 25\nvolume: 50\nvol_a: 7\nphi_a: 1/7\n"


def test_improve_barbell_fixture(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "improve",
        "--graph", str(fixtures_dir / "barbell.edgelist"),
        "--seed-set", str(fixtures_dir / "barbell_seed.txt"),
        "--sigma", "1/2",
        "--instrument",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["improved"] is True
    assert payload["phi"] == {"num": 1, "den": 7}
    assert payload["set"] == [0, 1, 2]
    assert payload["vol"] == 7
    assert payload["touched_volume"] > 0
    assert all(
        probe["outcome"] in ("full-flow", "cut-found") for probe in payload["alpha_trace"]
    )


def test_improve_exact_matches(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "improve-exact",
        "--graph", str(fixtures_dir / "barbell.edgelist"),
        "--seed-set", str(fixtures_dir / "barbell_seed.txt"),
        "--sigma", "0.5",
    )
    assert code == EXIT_OK
    assert json.loads(out)["phi"] == {"num": 1, "den": 7}


def test_sigma_zero_is_input_error(capsys, fixtures_dir):
    code, _, err = run(
        capsys,
        "improve",
        "--graph", str(fixtures_dir / "barbell.edgelist"),
        "--seed-set", str(fixtures_dir / "barbell_seed.txt"),
        "--sigma", "0",
    )
    assert code == EXIT_INPUT_ERROR
    assert "sigma" in err


def test_missing_file_is_input_error(capsys, fixtures_dir):
    code, _, err = run(
        capsys,
        "stats",
        "--graph", str(fixtures_dir / "nope.edgelist"),
    )
    assert code == EXIT_INPUT_ERROR
    assert err


def test_no_improvement_exit_code(capsys, tmp_path):
    # complete bipartite graph with the independent side as seed
    edges = "\n".join(f"{i} {4 + j}" for i in range(4) for j in range(8))
    graph_file = tmp_path / "bip.edgelist"
    graph_file.write_text(edges + "\n")
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text("0 1 2 3\n")
    code, out, _ = run(
        capsys,
        "improve",
        "--graph", str(graph_file),
        "--seed-set", str(seed_file),
        "--sigma", "1",
    )
    assert code == EXIT_NO_IMPROVEMENT
    payload = json.loads(out)
    assert payload["improved"] is False and payload["set"] == []


def test_flow_command(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "flow",
        "--graph", str(fixtures_dir / "barbell.edgelist"),
        "--seed-set", str(fixtures_dir / "barbell_seed.txt"),
        "--alpha", "1/2",
        "--sigma", "1/2",
        "--solver", "exact",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["cut"] == [0, 1, 2]
    assert payload["flow_value"] == {"num": 2, "den": 1}


def _isolated_vertex_graph(tmp_path, seed: str):
    """A triangle on 0, 1, 3 with vertex 2 isolated, and a seed-set file."""
    graph_file = tmp_path / "iso.edgelist"
    graph_file.write_text("0 1\n1 3\n3 0\n")
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text(seed + "\n")
    return str(graph_file), str(seed_file)


@pytest.mark.parametrize("seed, vol_a", [("2", 0), ("0 1 3", 6)], ids=["volume-0", "all-of-V"])
def test_stats_omits_phi_a_when_undefined(capsys, tmp_path, seed, vol_a):
    """A seed set of volume 0 or vol(V) has no conductance, but its other fields are defined."""
    graph_file, seed_file = _isolated_vertex_graph(tmp_path, seed)
    common = ["stats", "--graph", graph_file, "--seed-set", seed_file]
    code, out, err = run(capsys, *common, "--json")
    assert (code, err) == (EXIT_OK, "")
    assert out == json.dumps({"n": 4, "m": 3, "volume": 6, "vol_a": vol_a}) + "\n"
    code, out, err = run(capsys, *common)
    assert (code, err) == (EXIT_OK, "")
    assert out == f"n: 4\nm: 3\nvolume: 6\nvol_a: {vol_a}\n"


@pytest.mark.parametrize("solver", ["approx", "exact"])
def test_flow_cut_of_full_volume_has_no_phi(capsys, tmp_path, solver):
    """``flow`` omits ``phi`` for a cut of volume 0 or ``vol(V)``.

    A sink factor from ``--sigma`` makes the sink arcs alone worth at least
    ``vol(A)``, so a cut of all of V is unreachable; a full flow's empty cut is.
    """
    graph_file, seed_file = _isolated_vertex_graph(tmp_path, "0")
    code, out, _ = run(
        capsys,
        "flow",
        "--graph", graph_file,
        "--seed-set", seed_file,
        "--alpha", "1",
        "--sigma", "1",
        "--solver", solver,
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["full_flow"] is True
    assert payload["cut"] == []
    assert "phi" not in payload


def test_certify_round_trip(capsys, tmp_path):
    edges = "\n".join(f"{i} {4 + j}" for i in range(4) for j in range(8))
    graph_file = tmp_path / "bip.edgelist"
    graph_file.write_text(edges + "\n")
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text("0 1 2 3\n")
    cert_file = tmp_path / "cert.txt"
    code, out, _ = run(
        capsys,
        "certify",
        "--graph", str(graph_file),
        "--seed-set", str(seed_file),
        "--alpha", "1",
        "--sigma", "1",
        "--out", str(cert_file),
    )
    assert code == EXIT_OK
    assert cert_file.exists()
    code, out, _ = run(
        capsys,
        "certify",
        "--graph", str(graph_file),
        "--seed-set", str(seed_file),
        "--check", str(cert_file),
    )
    assert code == EXIT_OK
    assert "valid" in out


# what certify --out writes for the barbell fixtures at alpha 1/8, sigma 1/2
BARBELL_CERTIFICATE = """\
alpha 1/8
eps-sigma 1/3
vol-a 7
flow-value 7
edge 0 2 2
edge 1 2 2
edge 2 3 7
edge 3 4 2
edge 3 5 2
edge 3 6 2/3
"""


def test_certify_out_equals_the_certificate_of_a_fresh_build(capsys, fixtures_dir, tmp_path):
    """``certify --out`` writes the pinned text, which the flow of a fresh exact run also writes."""
    graph, seed = fixtures_dir / "barbell.edgelist", fixtures_dir / "barbell_seed.txt"
    cert_file = tmp_path / "cert.txt"
    code, out, _ = run(
        capsys,
        "certify",
        "--graph", str(graph),
        "--seed-set", str(seed),
        "--alpha", "1/8",
        "--sigma", "1/2",
        "--out", str(cert_file),
    )
    assert (code, out) == (EXIT_OK, f"wrote certificate with 6 edges to {cert_file}\n")
    assert cert_file.read_text(encoding="utf-8") == BARBELL_CERTIFICATE
    g = load_graph(str(graph))
    a = load_vertex_set(str(seed), g)
    text = io.StringIO()
    eps = epsilon_sigma(Fraction(1, 2), g, a)
    write_certificate(text, local_flow_exact(g, a, Fraction(1, 8), eps).flow)
    assert text.getvalue() == BARBELL_CERTIFICATE


def test_readme_certificate_example_is_valid(capsys, fixtures_dir, tmp_path):
    """README's example certificate passes ``certify --check`` on the barbell fixtures."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```text\n(alpha .*?)```", readme, re.S).group(1)
    assert len(example.splitlines()) == 7
    cert_file = tmp_path / "cert.txt"
    cert_file.write_text(example, encoding="utf-8")
    code, out, err = run(
        capsys, "certify",
        "--graph", str(fixtures_dir / "barbell.edgelist"),
        "--seed-set", str(fixtures_dir / "barbell_seed.txt"),
        "--check", str(cert_file),
    )
    assert (code, out, err) == (EXIT_OK, "certificate valid\n", "")


@pytest.mark.parametrize("alpha, sink", [("1/2", ["--sigma", "1/2"])], ids=["proper-cut"])
def test_certify_refuses_when_cut_exists(capsys, fixtures_dir, tmp_path, alpha, sink):
    code, _, err = run(
        capsys,
        "certify",
        "--graph", str(fixtures_dir / "barbell.edgelist"),
        "--seed-set", str(fixtures_dir / "barbell_seed.txt"),
        "--alpha", alpha,
        *sink,
        "--out", str(tmp_path / "cert.txt"),
    )
    assert code == EXIT_INPUT_ERROR
    assert "no full-value flow" in err and "minimum cut" in err
    assert "undefined" not in err
    assert not (tmp_path / "cert.txt").exists()


def test_seed_command(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "seed",
        "--graph", str(fixtures_dir / "barbell.edgelist"),
        "--seed", "0",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["seed"] == 0
    assert payload["set"]


def test_seed_multiple_jobs(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "seed",
        "--graph", str(fixtures_dir / "barbell.edgelist"),
        "--seed", "0,4",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["seed"] == 0
    assert json.loads(lines[1])["seed"] == 4


@pytest.mark.parametrize(
    "option, value, named",
    [
        ("--volume-cap", "0", "volume_cap"),
        ("--volume-cap", "-3", "volume_cap"),
        ("--volume-cap", "1" + "0" * 400, "volume_cap"),
        ("--beta", "nan", "beta"),
        ("--beta", "inf", "beta"),
    ],
)
def test_seed_bad_parameter_exits_2(capsys, fixtures_dir, option, value, named):
    code, out, err = run(
        capsys,
        "seed",
        "--graph", str(fixtures_dir / "barbell.edgelist"),
        "--seed", "0",
        option, value,
    )
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize(
    "option, value",
    [
        ("--volume-cap", "1_0"), ("--volume-cap", "+10"), ("--volume-cap", "\u0661\u0660"),
        ("--volume-cap", "10.0"), ("--beta", "0.1_0"), ("--beta", "\u0660.1"),
    ],
)
def test_seed_options_follow_the_number_grammar(capsys, fixtures_dir, option, value):
    code, out, err = run(
        capsys,
        "seed",
        "--graph", str(fixtures_dir / "barbell.edgelist"),
        "--seed", "0",
        option, value,
    )
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err.startswith("error: ") and f"in {option}: " in err


def test_seed_options_read_rationals_exactly(capsys, fixtures_dir):
    graph = ["--graph", str(fixtures_dir / "barbell.edgelist"), "--seed", "0,4"]
    _, decimal, _ = run(capsys, "seed", *graph, "--beta", "0.1", "--volume-cap", "10")
    code, out, _ = run(capsys, "seed", *graph, "--beta", "1/10", "--volume-cap", "010")
    assert code == EXIT_OK and out == decimal


@pytest.mark.parametrize(
    "seeds, bad",
    [
        ("+1", "+1"), ("\u0663", "\u0663"), ("1_0", "1_0"),
        ("0, 4x", "4x"), ("-1", "-1"), ("1.0", "1.0"),
    ],
)
def test_seed_ids_follow_the_vertex_grammar(capsys, fixtures_dir, seeds, bad):
    code, out, err = run(
        capsys,
        "seed",
        "--graph", str(fixtures_dir / "barbell.edgelist"),
        "--seed", seeds,
    )
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err.startswith(f"error: bad seed vertex {bad!r}")


def test_seed_ids_may_carry_blanks(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "seed",
        "--graph", str(fixtures_dir / "barbell.edgelist"),
        "--seed", " 0 , ,4 ",
    )
    assert code == EXIT_OK
    assert [json.loads(line)["seed"] for line in out.splitlines()] == [0, 4]


@pytest.mark.parametrize(
    "name, fmt, message",
    [
        ("barbell.edgelist", "edgelist", "line 6: vertex id 4 exceeds the largest id 3"),
        ("barbell.metis", "metis", "line 1: header declares 10 vertices, more than 4"),
    ],
)
def test_graph_over_the_vertex_cap_exits_2(capsys, monkeypatch, fixtures_dir, name, fmt, message):
    """The loaders refuse the vertex count with its line, before a ``Graph`` is sized by it."""
    monkeypatch.setattr(graphio, "_MAX_N", 4)
    code, out, err = run(capsys, "stats", "--graph", str(fixtures_dir / name), "--format", fmt)
    assert (code, out, err) == (EXIT_INPUT_ERROR, "", f"error: {message}\n")


def test_metis_input(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "stats",
        "--graph", str(fixtures_dir / "barbell.metis"),
        "--format", "metis",
        "--json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["m"] == 25


def write_ring_files(tmp_path):
    """A ring of 100 10-cliques and the seed of clique 3 minus two members plus the next hub."""
    g = ring_of_cliques(100, 10)
    graph_file = tmp_path / "ring.edgelist"
    graph_file.write_text("".join(f"{u} {v}\n" for u, v in edges(g)))
    seed_file = tmp_path / "seed.txt"
    seed = [v for v in range(30, 40) if v not in (31, 35)] + [40]
    seed_file.write_text(" ".join(map(str, seed)) + "\n")
    return ["--graph", str(graph_file), "--seed-set", str(seed_file)]


def test_certify_check_reads_back_ring_certificate(capsys, tmp_path):
    # a certificate with edge lines written from their larger endpoint, as 'edge 10 0 11/3'
    common = write_ring_files(tmp_path)
    cert_file = tmp_path / "cert.txt"
    code, out, _ = run(
        capsys, "certify", *common, "--alpha", "1/64", "--sigma", "1/2", "--out", str(cert_file)
    )
    assert code == EXIT_OK, out
    code, out, err = run(capsys, "certify", *common, "--check", str(cert_file))
    assert (code, out.strip()) == (EXIT_OK, "certificate valid"), err


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("edge 30 x 1", "certificate line 5: malformed edge line 'edge 30 x 1'"),
        ("edge 30 99999 1", "certificate line 5: vertex 99999 out of range (n=1000)"),
        ("edge 30 -2 1", "certificate line 5: vertex -2 out of range (n=1000)"),
        ("edge 30 41 1/0", "certificate line 5: malformed edge line 'edge 30 41 1/0'"),
        # vertex ids follow the seed-file grammar, not int()'s
        ("edge +30 41 1", "certificate line 5: malformed edge line 'edge +30 41 1'"),
        ("edge 30 4_1 1", "certificate line 5: malformed edge line 'edge 30 4_1 1'"),
        ("edge 30 \u0664\u0661 1", "certificate line 5: malformed edge line 'edge 30 \u0664\u0661 1'"),
        ("edge 30 --1 1", "certificate line 5: malformed edge line 'edge 30 --1 1'"),
        ("edge 30 -0 1", "certificate line 5: vertex -0 out of range (n=1000)"),
        ("edge 30 41 -1", "certificate line 5: amount -1 is not positive"),
        ("edge 30 41 0", "certificate line 5: amount 0 is not positive"),
        # an edge line names one edge; the path lines of an older format are refused
        ("edge 30 31 32 1", "certificate line 5: malformed edge line 'edge 30 31 32 1'"),
        ("path 30 41 1", "certificate line 5: unknown line 'path 30 41 1'"),
        # the certificate's own 'edge 30 31 3', shifted to line 22, given first reversed
        ("edge 31 30 3", "certificate line 22: edge (30, 31) already given on line 5"),
    ],
)
def test_certify_check_malformed_certificate_exits_2(capsys, tmp_path, bad_line, message):
    common = write_ring_files(tmp_path)
    cert_file = tmp_path / "cert.txt"
    run(capsys, "certify", *common, "--alpha", "1/64", "--sigma", "1/2", "--out", str(cert_file))
    lines = cert_file.read_text().splitlines()
    lines.insert(4, bad_line)
    cert_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run(capsys, "certify", *common, "--check", str(cert_file))
    assert code == EXIT_INPUT_ERROR
    assert err.strip() == f"error: {message}"


@pytest.mark.parametrize(
    "extra, message",
    [
        ("bogus line here", "certificate line 41: unknown line 'bogus line here'"),
        ("paht 0 1 2", "certificate line 41: unknown line 'paht 0 1 2'"),
        ("alpha 1/2", "certificate line 41: repeated alpha (first on line 1)"),
        ("vol-a 14", "certificate line 41: repeated vol-a (first on line 3)"),
    ],
)
def test_certify_check_unknown_or_repeated_line_exits_2(capsys, tmp_path, extra, message):
    common = write_ring_files(tmp_path)
    cert_file = tmp_path / "cert.txt"
    run(capsys, "certify", *common, "--alpha", "1/64", "--sigma", "1/2", "--out", str(cert_file))
    lines = cert_file.read_text().splitlines()
    assert len(lines) == 40
    cert_file.write_text("\n".join(lines + [extra]) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "certify", *common, "--check", str(cert_file))
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err.strip() == f"error: {message}"


def test_certify_check_malformed_header_exits_2(capsys, tmp_path):
    common = write_ring_files(tmp_path)
    cert_file = tmp_path / "cert.txt"
    cert_file.write_text("alpha one\neps-sigma inf\nvol-a 1\nflow-value 1\n")
    code, _, err = run(capsys, "certify", *common, "--check", str(cert_file))
    assert code == EXIT_INPUT_ERROR
    assert "certificate line 1: malformed alpha 'one'" in err


@pytest.mark.parametrize("vol_a", ["+14", "1_4", "\u0661\u0664", "-14", "14.0", "1" * 65])
def test_certify_check_malformed_vol_a_exits_2(capsys, tmp_path, vol_a):
    common = write_ring_files(tmp_path)
    cert_file = tmp_path / "cert.txt"
    cert_file.write_text(
        f"alpha 1/64\neps-sigma inf\nvol-a {vol_a}\nflow-value 1\nedge 30 41 1\n", encoding="utf-8"
    )
    code, _, err = run(capsys, "certify", *common, "--check", str(cert_file))
    assert code == EXIT_INPUT_ERROR
    assert f"certificate line 3: malformed vol-a {vol_a!r}" in err


@pytest.mark.parametrize(
    "key, value",
    [("alpha", "0"), ("alpha", "-1/2"), ("alpha", "3/2"), ("alpha", "1e99999"),
     ("eps-sigma", "0"), ("eps-sigma", "-1/2")],
    ids=["0", "-1/2", "3/2", "1e99999", "eps-sigma 0", "eps-sigma -1/2"],
)
def test_certify_check_alpha_out_of_range_exits_2(capsys, tmp_path, key, value):
    common = write_ring_files(tmp_path)
    cert_file = tmp_path / "cert.txt"
    header = {"alpha": "1/64", "eps-sigma": "inf", key: value}
    cert_file.write_text(
        f"alpha {header['alpha']}\neps-sigma {header['eps-sigma']}\n"
        "vol-a 1\nflow-value 1\nedge 30 41 1\n"
    )
    code, _, err = run(capsys, "certify", *common, "--check", str(cert_file))
    assert code == EXIT_INPUT_ERROR
    line = 1 if key == "alpha" else 2
    assert f"certificate line {line}: malformed {key} '{value}'" in err


def test_certify_check_refuses_negative_amounts(capsys, tmp_path):
    graph_file = tmp_path / "barbell.edgelist"
    graph_file.write_text("".join(f"{u} {v}\n" for u, v in edges(barbell())))
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text("0 1 2\n")
    cert_file = tmp_path / "cert.txt"
    cert_file.write_text(FORGED_CERTIFICATE)
    code, out, err = run(
        capsys, "certify", "--graph", str(graph_file), "--seed-set", str(seed_file),
        "--check", str(cert_file),
    )
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err.strip() == "error: certificate line 5: amount -2 is not positive"


def test_certify_refuses_out_with_check(capsys, tmp_path):
    common = write_ring_files(tmp_path)
    cert_file = tmp_path / "cert.txt"
    run(capsys, "certify", *common, "--alpha", "1/64", "--sigma", "1/2", "--out", str(cert_file))
    out_file = tmp_path / "out.txt"
    code, _, err = run(
        capsys, "certify", *common, "--alpha", "1/64", "--sigma", "1/2",
        "--check", str(cert_file), "--out", str(out_file),
    )
    assert code == EXIT_INPUT_ERROR
    assert "not allowed with argument" in err
    assert not out_file.exists()


@pytest.mark.parametrize("option, value", [("--alpha", "1"), ("--sigma", "1/2")])
def test_certify_check_refuses_parameters_it_would_ignore(capsys, tmp_path, option, value):
    """The certificate states its own alpha and sink factor, so ``--check`` takes neither."""
    common = write_ring_files(tmp_path)
    cert_file = tmp_path / "cert.txt"
    run(capsys, "certify", *common, "--alpha", "1/64", "--sigma", "1/2", "--out", str(cert_file))
    code, out, err = run(capsys, "certify", *common, "--check", str(cert_file), option, value)
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err.startswith(f"error: {option} is not allowed with --check")


@pytest.mark.parametrize(
    "text, line",
    [(b"alpha 1\xff\n", 1), (b"alpha 1\neps-sigma inf\n\xfe\xff\n", 3)],
)
def test_certify_check_non_utf8_certificate_exits_2(capsys, tmp_path, text, line):
    common = write_ring_files(tmp_path)
    cert_file = tmp_path / "cert.txt"
    cert_file.write_bytes(text)
    code, out, err = run(capsys, "certify", *common, "--check", str(cert_file))
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err.startswith(f"error: certificate line {line}: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["flow", "--alpha", "1/2"], "the following arguments are required: --sigma"),
        (["certify", "--out", "CERT"], "error: writing a certificate needs --alpha"),
        (["certify", "--sigma", "1/2", "--out", "CERT"], "error: writing a certificate needs --alpha"),
        (["certify", "--alpha", "1/2", "--out", "CERT"], "error: writing a certificate needs --sigma"),
        (["seed", "--seed", "0", "--beta", "0.1_0"], "error: bad beta in --beta: "),
        (["seed", "--seed", "0", "--volume-cap", "1_0"], "error: bad volume_cap in --volume-cap: "),
        (["seed", "--seed", "0,4x"], "error: bad seed vertex '4x' in --seed '0,4x'"),
        (["improve", "--sigma", "0"], "error: sigma must be in (0, 1], got 0"),
        (["improve-exact", "--sigma", "3/2"], "error: sigma must be in (0, 1], got 3/2"),
        (["flow", "--alpha", "1/2", "--sigma", "-1"], "error: sigma must be in (0, 1], got -1"),
        (["flow", "--alpha", "1/2", "--sigma", "-1/2"], "error: sigma must be in (0, 1], got -1/2"),
        (["flow", "--alpha", "-1/2", "--sigma", "1/2"], "error: alpha must be in (0, 1], got -1/2"),
        (["flow", "--alpha", "0", "--sigma", "1/2"], "error: alpha must be in (0, 1], got 0"),
        (["flow", "--alpha", "1/2", "--sigma", "-inf"], "not a rational number: '-inf'"),
        (["flow", "--alpha", "-nan", "--sigma", "1/2"], "not a rational number: '-nan'"),
        (["seed", "--seed", "0", "--beta", "-inf"], "not a rational number: '-inf'"),
        (["certify", "--alpha", "2", "--sigma", "1/2", "--out", "CERT"],
         "error: alpha must be in (0, 1], got 2"),
        # one option per quantity: the sink factor comes from --sigma, the
        # push threshold from --volume-cap; the bisection width is a constant
        (["improve", "--sigma", "1/2", "--eps", "1/5"], "unrecognized arguments: --eps 1/5"),
        (["improve-exact", "--sigma", "1/2", "--eps", "1/5"], "unrecognized arguments: --eps 1/5"),
        (["flow", "--alpha", "1/2", "--sigma", "1/2", "--eps-sigma", "1/100"],
         "unrecognized arguments: --eps-sigma 1/100"),
        (["certify", "--alpha", "1/2", "--eps-sigma", "1/100", "--out", "CERT"],
         "unrecognized arguments: --eps-sigma 1/100"),
        (["seed", "--seed", "0", "--r-max", "1/1000"], "unrecognized arguments: --r-max 1/1000"),
    ],
    ids=["flow-no-sink", "certify-nothing", "certify-no-alpha", "certify-no-sink",
         "seed-beta", "seed-volume-cap", "seed-id",
         "sigma-0", "sigma-above-1", "flow-sigma-negative", "flow-sigma-negative-ratio",
         "flow-alpha-negative-ratio", "alpha-0",
         "flow-sigma-negative-inf", "flow-alpha-negative-nan", "seed-beta-negative-inf",
         "certify-alpha-above-1",
         "improve-eps-gone", "improve-exact-eps-gone",
         "flow-eps-sigma-gone", "certify-eps-sigma-gone", "seed-r-max-gone"],
)
def test_option_errors_are_refused_before_any_file_is_read(capsys, tmp_path, argv, message):
    """With no graph file at all, an option error is still the one reported."""
    cert_file = tmp_path / "cert.txt"
    command, *rest = argv
    files = ["--graph", str(tmp_path / "absent.edgelist")]
    if command != "seed":
        files += ["--seed-set", str(tmp_path / "absent_seed.txt")]
    rest = [str(cert_file) if arg == "CERT" else arg for arg in rest]
    code = run_cli([command, *files, *rest])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert message in err and "absent" not in err
    assert not cert_file.exists()


def test_usage_errors_and_help_are_returned(capsys):
    """``run_cli`` returns argparse's exit codes instead of raising ``SystemExit``."""
    assert run_cli([]) == EXIT_INPUT_ERROR
    assert "the following arguments are required: command" in capsys.readouterr().err
    assert run_cli(["seed", "--help"]) == EXIT_OK
    assert "--volume-cap" in capsys.readouterr().out


def test_readme_cli_section_names_every_option():
    """README's CLI section names exactly the options the parser takes."""
    commands = next(a for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        option
        for parser in commands.choices.values()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"--[a-z-]+", section)) == options


def test_certify_check_opens_the_certificate_before_the_graph(capsys, tmp_path):
    """A mistyped certificate path is refused before the graph is parsed."""
    cert_file = tmp_path / "absent_cert.txt"
    code, out, err = run(
        capsys, "certify",
        "--graph", str(tmp_path / "absent.edgelist"),
        "--seed-set", str(tmp_path / "absent_seed.txt"),
        "--check", str(cert_file),
    )
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert str(cert_file) in err and "absent.edgelist" not in err


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("certificate", "eps-sigma inf\nvol-a 7\nflow-value 7\n",
         "certificate header misses 'alpha'"),
        ("certificate", "alpha 1\neps-sigma inf\nvol-a 7\nflow-value 7\nedge 3\n",
         "certificate line 5: malformed edge line 'edge 3'"),
        ("metis", "", "empty METIS file"),
        ("metis", "% no header\n  %\n", "empty METIS file"),
        ("metis", "2 1\n-2\n1\n", "line 2: neighbor -2 out of range"),
        ("seed", ",", "no seed vertices given"),
        ("seed", "99", "seed vertex 99 out of range"),
        ("beta", "1", "beta must be in (0, 1), got 1.0"),
    ],
    ids=["no-alpha-header", "one-vertex-path", "empty-metis", "comments-only-metis",
         "negative-metis-neighbor", "no-seed-ids", "seed-out-of-range", "beta-1"],
)
def test_input_refusals_exit_2(capsys, fixtures_dir, tmp_path, kind, text, message):
    graph = ["--graph", str(fixtures_dir / "barbell.edgelist")]
    input_file = tmp_path / "input.txt"
    input_file.write_text(text)
    argv = {
        "certificate": [
            "certify", *graph, "--seed-set", str(fixtures_dir / "barbell_seed.txt"),
            "--check", str(input_file),
        ],
        "metis": ["stats", "--graph", str(input_file), "--format", "metis"],
        "seed": ["seed", *graph, "--seed", text],
        "beta": ["seed", *graph, "--seed", "0", "--beta", text],
    }[kind]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (EXIT_INPUT_ERROR, "", f"error: {message}\n")


def test_module_runs_as_a_process(capsys, fixtures_dir):
    """``python -m localcut.cli`` prints what run_cli prints and exits with its code."""
    src = str(Path(localcut.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def process(*argv):
        return subprocess.run(
            [sys.executable, "-m", "localcut.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    common = ["--graph", str(fixtures_dir / "barbell.edgelist"),
              "--seed-set", str(fixtures_dir / "barbell_seed.txt")]
    improve = ["improve", *common, "--sigma", "1/2"]
    proc = process(*improve)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *improve)
    assert proc.returncode == EXIT_OK and json.loads(proc.stdout)["improved"] is True
    proc = process("flow", *common, "--alpha", "1/2")
    assert (proc.returncode, proc.stdout) == (EXIT_INPUT_ERROR, "")
    assert "the following arguments are required: --sigma" in proc.stderr


# rational inputs -------------------------------------------------------------

_SIGNS = st.sampled_from(["", "-", "+"])
_DIGIT_RUNS = st.one_of(
    st.text("0123456789", min_size=1, max_size=8),
    st.text("0123456789", min_size=60, max_size=70),
    st.sampled_from(["0", "9" * 5000]),
)
_EXPONENTS = st.one_of(
    st.integers(-70, 70), st.sampled_from([999999999, -999999999, 10**40])
)
RATIONAL_TEXTS = st.one_of(
    st.builds("{}{}/{}".format, _SIGNS, _DIGIT_RUNS, _DIGIT_RUNS),
    st.builds("{}{}.{}e{}".format, _SIGNS, _DIGIT_RUNS, _DIGIT_RUNS, _EXPONENTS),
    st.builds("{}{}E{}".format, _SIGNS, _DIGIT_RUNS, _EXPONENTS),
    st.sampled_from(["1e999999999", "1e-999999999", "1/0", "0", "inf", "nan", "", " 1/2 ", "1_0"]),
    st.text(max_size=12),
)
# every rational argument that is an exact Fraction, with the other arguments
# valid; not seed's float --beta, whose tiny values run for about 1/beta
RATIONAL_ARGV = [
    ("improve", "--sigma", "{}"),
    ("improve-exact", "--sigma", "{}"),
    ("flow", "--alpha", "{}", "--sigma", "1/2"),
    ("flow", "--alpha", "1/2", "--sigma", "{}", "--solver", "exact"),
    ("certify", "--alpha", "{}", "--sigma", "1/2", "--out", "CERT"),
    ("certify", "--alpha", "1/8", "--sigma", "{}", "--out", "CERT"),
]
TIME_BOUND_S = 5.0
MEMORY_BOUND = 32 << 20


def _bounded_run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one CLI run, asserting the time and allocation bounds."""
    err = io.StringIO()
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli(argv)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < TIME_BOUND_S, f"{argv} took {elapsed:.2f} s"
    assert peak < MEMORY_BOUND, f"{argv} allocated {peak} bytes"
    assert code in (EXIT_OK, EXIT_NO_IMPROVEMENT, EXIT_INPUT_ERROR)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


def test_parse_rational_grammar():
    for text in ("1/2", " 0.5 ", "-3", "+1.5e-3", ".5", "5.", "1E+2", "007/010"):
        assert parse_rational(text) == Fraction(text)
    for text in ("1e999999999", "1/0", "", ".", "e5", "1/2.", "1_0", "inf", "1 /2", "1e65"):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_parse_unsigned_grammar():
    for text, value in (("0", 0), ("007", 7), ("0" * 80 + "12", 12), ("9" * 64, int("9" * 64))):
        assert parse_unsigned(text) == value
    for text in ("", "+1", "-1", "1_0", " 1", "1 ", "\u0661", "\u00b2", "1.0", "9" * 65):
        with pytest.raises(ValueError):
            parse_unsigned(text)


def test_out_of_bound_argument_is_named(capsys, fixtures_dir):
    code, _, err = run(
        capsys,
        "flow",
        "--graph", str(fixtures_dir / "barbell.edgelist"),
        "--seed-set", str(fixtures_dir / "barbell_seed.txt"),
        "--alpha", "1e999999999",
    )
    assert code == EXIT_INPUT_ERROR
    assert "argument --alpha" in err and "exponent" in err


@given(st.sampled_from(RATIONAL_ARGV), RATIONAL_TEXTS)
@settings(max_examples=200, deadline=None)
def test_rational_arguments_exit_cleanly(tmp_path_factory, template, text):
    fixtures = Path(__file__).parent / "fixtures"
    cert = tmp_path_factory.mktemp("cert") / "cert.txt"
    argv = [template[0], "--graph", str(fixtures / "barbell.edgelist"),
            "--seed-set", str(fixtures / "barbell_seed.txt")]
    argv += [text if arg == "{}" else str(cert) if arg == "CERT" else arg for arg in template[1:]]
    _bounded_run(argv)


@pytest.fixture(scope="module")
def ring_certificate(tmp_path_factory):
    """Arguments naming a ring graph and seed set, and a valid certificate's lines."""
    tmp_path = tmp_path_factory.mktemp("ring")
    common = write_ring_files(tmp_path)
    cert = tmp_path / "cert.txt"
    code, _ = _bounded_run(["certify", *common, "--alpha", "1/64", "--sigma", "1/2", "--out", str(cert)])
    assert code == EXIT_OK
    return common, cert.read_text().splitlines()


@given(st.data(), RATIONAL_TEXTS.filter(lambda text: not set(text) & {"\n", "\r"}))
@settings(max_examples=200, deadline=None)
def test_certificate_rationals_exit_cleanly(tmp_path_factory, ring_certificate, data, text):
    common, lines = ring_certificate
    # a header value (alpha, eps-sigma, flow-value) or an edge amount
    index = data.draw(st.sampled_from([0, 1, 3] + list(range(4, len(lines)))))
    key, _, rest = lines[index].partition(" ")
    value = rest.rsplit(" ", 1)[0] + " " + text if key == "edge" else text
    mutated = list(lines)
    mutated[index] = f"{key} {value}"
    cert = tmp_path_factory.mktemp("check") / "cert.txt"
    cert.write_text("\n".join(mutated) + "\n")
    code, err = _bounded_run(["certify", *common, "--check", str(cert)])
    if code == EXIT_INPUT_ERROR and err.startswith("error: "):
        amount = (value.split() or [""])[-1]  # the token the reader takes as the amount
        refusals = ("malformed", f"amount {amount} is not positive")
        assert any(f"certificate line {index + 1}: {why}" in err for why in refusals), err
