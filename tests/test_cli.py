import contextlib
import io
import json
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import ring_of_cliques
from localcut.cli import EXIT_INPUT_ERROR, EXIT_NO_IMPROVEMENT, EXIT_OK, run_cli
from localcut.graphio import parse_rational, parse_unsigned


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


@pytest.mark.parametrize(
    "option, value, named",
    [
        ("--volume-cap", "0", "volume_cap"),
        ("--volume-cap", "-3", "volume_cap"),
        ("--volume-cap", "1" + "0" * 400, "volume_cap"),
        ("--r-max", "nan", "r_max"),
        ("--r-max", "inf", "r_max"),
        ("--r-max", "0", "r_max"),
        ("--r-max", "-1", "r_max"),
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
        ("--r-max", "0.00_1"), ("--r-max", "1e999999999"),
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
        # vertex ids follow the seed-file grammar, not int()'s
        ("path +30 41 1", "certificate line 5: malformed path line 'path +30 41 1'"),
        ("path 30 4_1 1", "certificate line 5: malformed path line 'path 30 4_1 1'"),
        ("path 30 \u0664\u0661 1", "certificate line 5: malformed path line 'path 30 \u0664\u0661 1'"),
        ("path 30 --1 1", "certificate line 5: malformed path line 'path 30 --1 1'"),
        ("path 30 -0 1", "certificate line 5: vertex -0 out of range (n=1000)"),
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
        f"alpha 1/64\neps-sigma inf\nvol-a {vol_a}\nflow-value 1\npath 30 41 1\n", encoding="utf-8"
    )
    code, _, err = run(capsys, "certify", *common, "--check", str(cert_file))
    assert code == EXIT_INPUT_ERROR
    assert f"certificate line 3: malformed vol-a {vol_a!r}" in err


@pytest.mark.parametrize("alpha", ["0", "-1/2", "3/2", "1e99999"])
def test_certify_check_alpha_out_of_range_exits_2(capsys, tmp_path, alpha):
    common = write_ring_files(tmp_path)
    cert_file = tmp_path / "cert.txt"
    cert_file.write_text(f"alpha {alpha}\neps-sigma inf\nvol-a 1\nflow-value 1\npath 30 41 1\n")
    code, _, err = run(capsys, "certify", *common, "--check", str(cert_file))
    assert code == EXIT_INPUT_ERROR
    assert f"certificate line 1: malformed alpha '{alpha}'" in err


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
# every rational argument of every subcommand, with the other arguments valid
RATIONAL_ARGV = [
    ("improve", "--sigma", "{}"),
    ("improve", "--sigma", "1/2", "--eps", "{}"),
    ("improve-exact", "--sigma", "{}"),
    ("improve-exact", "--sigma", "1/2", "--eps", "{}"),
    ("flow", "--alpha", "{}", "--sigma", "1/2"),
    ("flow", "--alpha", "1/2", "--sigma", "{}", "--solver", "exact"),
    ("flow", "--alpha", "1/2", "--eps-sigma", "{}"),
    ("certify", "--alpha", "{}", "--sigma", "1/2", "--out", "CERT"),
    ("certify", "--alpha", "1/8", "--sigma", "{}", "--out", "CERT"),
    ("certify", "--alpha", "1/8", "--eps-sigma", "{}", "--out", "CERT"),
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
            try:
                code = run_cli(argv)
            except SystemExit as exc:  # argparse rejects an argument with exit 2
                code = exc.code
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
    with pytest.raises(SystemExit) as exc:
        run_cli([
            "flow",
            "--graph", str(fixtures_dir / "barbell.edgelist"),
            "--seed-set", str(fixtures_dir / "barbell_seed.txt"),
            "--alpha", "1e999999999",
        ])
    assert exc.value.code == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
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
    # a header value (alpha, eps-sigma, flow-value) or a path amount
    index = data.draw(st.sampled_from([0, 1, 3] + list(range(4, len(lines)))))
    key, _, rest = lines[index].partition(" ")
    value = rest.rsplit(" ", 1)[0] + " " + text if key == "path" else text
    mutated = list(lines)
    mutated[index] = f"{key} {value}"
    cert = tmp_path_factory.mktemp("check") / "cert.txt"
    cert.write_text("\n".join(mutated) + "\n")
    code, err = _bounded_run(["certify", *common, "--check", str(cert)])
    if code == EXIT_INPUT_ERROR and err.startswith("error: "):
        assert f"certificate line {index + 1}: malformed" in err
