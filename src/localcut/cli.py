"""Command-line surface.

Subcommands: ``stats``, ``improve``, ``improve-exact``, ``flow``,
``certify``, ``seed``. Exit codes: 0 success, 1 no-improvement (a valid,
documented outcome of the improve commands), 2 input or parameter error.
Decision-bearing numbers are emitted as exact ``{"num": p, "den": q}``
pairs, never floats. The parser is built once per process, and every
option error that needs no file is refused before any file is read.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import certify as cert
from .augmented import epsilon_sigma
from .errors import LocalCutError, NotACertificateError, ParameterError
from .exact_flow import local_flow_exact
from .graphio import load_graph, load_vertex_set, parse_rational, parse_unsigned
from .graphs import conductance
from .improve import local_improve_overlap
from .local_flow import local_flow
from .seeding import appr_push, sweep_cut

# Not used here: the benchmark's span tracer (perfbench/spans.py) patches this name on this module.
from .augmented import build  # noqa: F401

__all__ = ["main", "run_cli"]

EXIT_OK = 0
EXIT_NO_IMPROVEMENT = 1
EXIT_INPUT_ERROR = 2


def _fraction(name: str):
    """Option type: "p/q" or a decimal, parsed exactly, in ``(0, 1]``.

    An out-of-range value raises ParameterError, which argparse lets through to ``run_cli``.
    """

    def parse(text: str) -> Fraction:
        try:
            value = parse_rational(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not 0 < value <= 1:
            raise ParameterError(f"{name} must be in (0, 1], got {value}")
        return value

    return parse


# payloads hold Fractions, each written as an exact {"num": p, "den": q} pair
_to_json = json.JSONEncoder(default=lambda x: {"num": x.numerator, "den": x.denominator}).encode


def _cmd_stats(args) -> int:
    g = load_graph(args.graph, args.format)
    payload: dict = {"n": g.n, "m": g.m, "volume": g.total_volume}
    if args.seed_set:
        a = load_vertex_set(args.seed_set, g)
        payload["vol_a"] = a.volume
        if 0 < a.volume < g.total_volume:
            payload["phi_a"] = conductance(g, a)
    if args.json:
        print(_to_json(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return EXIT_OK


def _cmd_improve(args) -> int:
    g = load_graph(args.graph, args.format)
    a = load_vertex_set(args.seed_set, g)
    result = local_improve_overlap(g, a, args.sigma, args.solver)
    payload = {
        "improved": result.improved,
        "set": list(result.cut.ids),
        "phi": result.phi,
        "vol": result.cut.volume,
        "solver": result.solver,
        "alpha_trace": [
            {"alpha": alpha, "outcome": outcome} for alpha, outcome in result.alpha_trace
        ],
    }
    if args.instrument:
        payload["touched_volume"] = result.touched_volume
        payload["phases"] = result.phases
    print(_to_json(payload))
    return EXIT_OK if result.improved else EXIT_NO_IMPROVEMENT


def _cmd_flow(args) -> int:
    g = load_graph(args.graph, args.format)
    a = load_vertex_set(args.seed_set, g)
    eps = epsilon_sigma(args.sigma, g, a)
    run = local_flow if args.solver == "approx" else local_flow_exact
    res = run(g, a, args.alpha, eps)
    payload = {
        "flow_value": res.value,
        "cut": list(res.cut.ids),
        "exact": res.exact,
        "full_flow": res.full_flow,
        "touched_volume": res.stats.touched_volume,
        "phases": res.stats.phases,
    }
    if 0 < res.cut.volume < g.total_volume:
        payload["phi"] = conductance(g, res.cut)
    print(_to_json(payload))
    return EXIT_OK


def _cmd_certify(args) -> int:
    if args.check is not None:
        for option in ("alpha", "sigma"):
            if getattr(args, option) is not None:
                raise ParameterError(
                    f"--{option} is not allowed with --check: "
                    "the certificate states its own alpha and eps-sigma"
                )
        # opened first, so a bad path costs no parse; an undecodable byte is
        # kept as a lone surrogate, which no field's grammar accepts, so the
        # reader rejects its line by number
        with open(args.check, "r", encoding="utf-8", errors="surrogateescape") as fh:
            g = load_graph(args.graph, args.format)
            report = cert.validate_certificate(fh, g, load_vertex_set(args.seed_set, g))
        if report.ok:
            print("certificate valid")
            return EXIT_OK
        for line in report.violations:
            print(f"violation: {line}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.alpha is None:
        raise ParameterError("writing a certificate needs --alpha")
    if args.sigma is None:
        raise ParameterError("writing a certificate needs --sigma")
    # --out opens last: opened first, a failed run would truncate an old file
    g = load_graph(args.graph, args.format)
    a = load_vertex_set(args.seed_set, g)
    eps = epsilon_sigma(args.sigma, g, a)
    res = local_flow_exact(g, a, args.alpha, eps)
    if not res.full_flow:
        # name the min cut by its value, the max flow's; a cut below vol(A)
        # is never all of V, whose sink arcs carry eps * vol(V - A) >= vol(A)
        raise NotACertificateError(
            f"no full-value flow at alpha={args.alpha}: the minimum cut has value "
            f"{res.value} < vol(A) = {a.volume}; certificates exist only when "
            "the demand routes fully"
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        edges = cert.write_certificate(fh, res.flow)
    print(f"wrote certificate with {edges} edges to {args.out}")
    return EXIT_OK


def _cmd_seed(args) -> int:
    seeds = []
    for tok in filter(None, (tok.strip() for tok in args.seed.split(","))):
        try:
            seeds.append(parse_unsigned(tok))
        except ValueError:
            raise ParameterError(f"bad seed vertex {tok!r} in --seed {args.seed!r}") from None
    if not seeds:
        raise ParameterError("no seed vertices given")

    # grammar only, for the options given: appr_push holds the defaults and
    # checks the ranges against the graph
    params = {}
    grammars = (("beta", lambda text: float(parse_rational(text))), ("volume_cap", parse_unsigned))
    for name, parse in grammars:
        text = getattr(args, name)
        if text is None:
            continue
        try:
            params[name] = parse(text)
        except ValueError as exc:
            raise ParameterError(f"bad {name} in --{name.replace('_', '-')}: {exc}") from None
    g = load_graph(args.graph, args.format)

    def expand(v: int) -> dict:
        scores, _ = appr_push(g, v, **params)
        out = sweep_cut(g, scores)
        return {"seed": v, "set": list(out.ids), "vol": out.volume, "phi": conductance(g, out)}

    results = [expand(v) for v in seeds]
    for payload in results:
        print(_to_json(payload))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localcut",
        description="Flow-based local graph clustering and cut improvement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p: argparse.ArgumentParser, seed_set: bool = True) -> None:
        p.add_argument("--graph", required=True, help="path to the graph file")
        p.add_argument(
            "--format", default="edgelist", choices=("edgelist", "metis"),
            help="graph file format",
        )
        if seed_set:
            p.add_argument("--seed-set", required=True, help="path to the seed vertex file")

    # every sink factor comes from sigma, through epsilon_sigma
    sigma = {"type": _fraction("sigma"), "help": "overlap parameter in (0, 1]"}

    p_stats = sub.add_parser("stats", help="graph and seed-set statistics")
    p_stats.set_defaults(run=_cmd_stats)
    add_graph_args(p_stats, seed_set=False)
    p_stats.add_argument("--seed-set", help="optional seed set for vol(A), phi(A)")
    p_stats.add_argument("--json", action="store_true", help="emit JSON")

    for name, solver, help_text in (
        ("improve", "approx", "cut-quotient search improvement with the approximate solver"),
        ("improve-exact", "exact", "cut-quotient search improvement with the exact solver"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=_cmd_improve, solver=solver)
        add_graph_args(p)
        p.add_argument("--sigma", required=True, **sigma)
        p.add_argument("--instrument", action="store_true",
                       help="include locality counters in the output: the Dinic "
                       "phases the search ran (warm-started probes count only "
                       "their own) and the largest volume a probe's flow opened")

    p_flow = sub.add_parser("flow", help="single localized flow run at a fixed alpha")
    p_flow.set_defaults(run=_cmd_flow)
    add_graph_args(p_flow)
    p_flow.add_argument("--alpha", type=_fraction("alpha"), required=True)
    p_flow.add_argument("--sigma", required=True, **sigma)
    p_flow.add_argument("--solver", default="approx", choices=("approx", "exact"))

    p_cert = sub.add_parser("certify", help="write or validate a routing certificate")
    p_cert.set_defaults(run=_cmd_certify)
    add_graph_args(p_cert)
    # both required with --out and refused with --check, by _cmd_certify
    p_cert.add_argument("--alpha", type=_fraction("alpha"))
    p_cert.add_argument("--sigma", **sigma)
    action = p_cert.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", help="write a certificate to this path")
    action.add_argument("--check", help="validate the certificate at this path")

    p_seed = sub.add_parser("seed", help="expand seed vertices by push + sweep")
    p_seed.set_defaults(run=_cmd_seed)
    add_graph_args(p_seed, seed_set=False)
    p_seed.add_argument("--seed", required=True,
                        help="seed vertex id, or comma-separated ids")
    # read by _cmd_seed in the rational and vertex-id grammars
    p_seed.add_argument("--beta", help="teleport probability in (0, 1) (default 1/10)")
    p_seed.add_argument("--volume-cap", help="sets only the push threshold "
                        "1/(10 * volume_cap), not the output's volume (default m)")
    # any single-dash value but "-h" ("-1/2", "-1e-3", "-inf") reaches its option's grammar
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-[^-]")
    return parser


_PARSER = _build_parser()


def run_cli(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch; return the exit code, argparse's 2 and ``--help``'s 0 too."""
    try:
        args = _PARSER.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # only argparse exits: a usage error or --help
        return exc.code
    except (LocalCutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
