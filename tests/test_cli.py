import json

import pytest

from gen import ring_of_cliques
from localcut.cli import EXIT_INPUT_ERROR, EXIT_NO_IMPROVEMENT, EXIT_OK, run_cli


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


def test_certify_refuses_when_cut_exists(capsys, fixtures_dir, tmp_path):
    code, _, err = run(
        capsys,
        "certify",
        "--graph", str(fixtures_dir / "barbell.edgelist"),
        "--seed-set", str(fixtures_dir / "barbell_seed.txt"),
        "--alpha", "1/2",
        "--sigma", "1/2",
        "--out", str(tmp_path / "cert.txt"),
    )
    assert code == EXIT_INPUT_ERROR
    assert "cut" in err


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
    graph_file.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
    seed_file = tmp_path / "seed.txt"
    seed = [v for v in range(30, 40) if v not in (31, 35)] + [40]
    seed_file.write_text(" ".join(map(str, seed)) + "\n")
    return ["--graph", str(graph_file), "--seed-set", str(seed_file)]


def test_certify_check_reads_back_ring_certificate(capsys, tmp_path):
    # a certificate whose edges are first walked from their larger endpoint
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
        ("path 30 x 1", "certificate line 5: malformed path line 'path 30 x 1'"),
        ("path 30 99999 1", "certificate line 5: vertex 99999 out of range (n=1000)"),
        ("path 30 -2 1", "certificate line 5: vertex -2 out of range (n=1000)"),
        ("path 30 41 1/0", "certificate line 5: malformed path line 'path 30 41 1/0'"),
    ],
)
def test_certify_check_malformed_certificate_exits_2(capsys, tmp_path, bad_line, message):
    common = write_ring_files(tmp_path)
    cert_file = tmp_path / "cert.txt"
    run(capsys, "certify", *common, "--alpha", "1/64", "--sigma", "1/2", "--out", str(cert_file))
    lines = cert_file.read_text().splitlines()
    lines.insert(4, bad_line)
    cert_file.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "certify", *common, "--check", str(cert_file))
    assert code == EXIT_INPUT_ERROR
    assert err.strip() == f"error: {message}"


def test_certify_check_malformed_header_exits_2(capsys, tmp_path):
    common = write_ring_files(tmp_path)
    cert_file = tmp_path / "cert.txt"
    cert_file.write_text("alpha one\neps-sigma inf\nvol-a 1\nflow-value 1\n")
    code, _, err = run(capsys, "certify", *common, "--check", str(cert_file))
    assert code == EXIT_INPUT_ERROR
    assert "certificate line 1: malformed alpha 'one'" in err
