"""Command-line surface.

Subcommands: ``stats``, ``improve``, ``improve-exact``, ``flow``,
``certify``, ``seed``. Exit codes: 0 success, 1 no-improvement (a valid,
documented outcome of the improve commands), 2 input or parameter error.
Decision-bearing numbers are emitted as exact ``{"num": p, "den": q}``
pairs, never floats.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import certify as cert
from .augmented import build, epsilon_sigma
from .errors import LocalCutError, NotACertificateError, ParameterError
from .exact_flow import local_flow_exact
from .graphio import load_graph, load_vertex_set, parse_rational, parse_unsigned
from .graphs import conductance
from .improve import local_improve_overlap
from .local_flow import local_flow
from .seeding import ApprConfig, appr_push, sweep_cut

__all__ = ["main", "run_cli"]

EXIT_OK = 0
EXIT_NO_IMPROVEMENT = 1
EXIT_INPUT_ERROR = 2


def _fraction(text: str) -> Fraction:
    """Parse "p/q" or a decimal string exactly, within :func:`parse_rational`'s bounds."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _frac_json(x: Fraction | None) -> dict | None:
    if x is None:
        return None
    return {"num": x.numerator, "den": x.denominator}


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

    p_stats = sub.add_parser("stats", help="graph and seed-set statistics")
    p_stats.add_argument("--graph", required=True)
    p_stats.add_argument("--format", default="edgelist", choices=("edgelist", "metis"))
    p_stats.add_argument("--seed-set", help="optional seed set for vol(A), phi(A)")
    p_stats.add_argument("--json", action="store_true", help="emit JSON")

    for name, help_text in (
        ("improve", "cut-quotient search improvement with the approximate solver"),
        ("improve-exact", "cut-quotient search improvement with the exact solver"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_graph_args(p)
        p.add_argument("--sigma", type=_fraction, required=True,
                       help="overlap parameter in (0, 1]")
        p.add_argument("--eps", type=_fraction, default=Fraction(1, 5),
                       help="stopping width of the search's fallback bisection (default 1/5)")
        p.add_argument("--human", action="store_true", help="human-readable output")
        p.add_argument("--instrument", action="store_true",
                       help="include locality counters in the output: the Dinic "
                       "phases the search ran (warm-started probes count only "
                       "their own) and the largest volume a probe's flow opened")

    p_flow = sub.add_parser("flow", help="single localized flow run at a fixed alpha")
    add_graph_args(p_flow)
    p_flow.add_argument("--alpha", type=_fraction, required=True)
    p_flow.add_argument("--sigma", type=_fraction, help="overlap parameter giving eps")
    p_flow.add_argument("--eps-sigma", type=_fraction,
                        help="sink factor, overrides --sigma")
    p_flow.add_argument("--solver", default="approx", choices=("approx", "exact"))

    p_cert = sub.add_parser("certify", help="write or validate a routing certificate")
    add_graph_args(p_cert)
    p_cert.add_argument("--alpha", type=_fraction)
    p_cert.add_argument("--sigma", type=_fraction)
    p_cert.add_argument("--eps-sigma", type=_fraction)
    p_cert.add_argument("--out", help="write a certificate to this path")
    p_cert.add_argument("--check", help="validate the certificate at this path")

    p_seed = sub.add_parser("seed", help="expand seed vertices by push + sweep")
    p_seed.add_argument("--graph", required=True)
    p_seed.add_argument("--format", default="edgelist", choices=("edgelist", "metis"))
    p_seed.add_argument("--seed", required=True,
                        help="seed vertex id, or comma-separated ids")
    # read by _cmd_seed in the rational and vertex-id grammars
    p_seed.add_argument("--beta", default="0.1")
    p_seed.add_argument("--r-max")
    p_seed.add_argument("--volume-cap")
    return parser


def _resolve_eps(args, g, a):
    if getattr(args, "eps_sigma", None) is not None:
        return args.eps_sigma
    if getattr(args, "sigma", None) is not None:
        return epsilon_sigma(args.sigma, g, a)
    raise ParameterError("pass --sigma or --eps-sigma")


def _cmd_stats(args) -> int:
    g = load_graph(args.graph, args.format)
    payload: dict = {"n": g.n, "m": g.m, "volume": g.total_volume}
    if args.seed_set:
        a = load_vertex_set(args.seed_set, g)
        payload["vol_a"] = a.volume
        payload["phi_a"] = _frac_json(conductance(g, a))
    if args.json:
        print(json.dumps(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return EXIT_OK


def _cmd_improve(args, solver: str) -> int:
    g = load_graph(args.graph, args.format)
    a = load_vertex_set(args.seed_set, g)
    result = local_improve_overlap(g, a, args.sigma, solver, eps=args.eps)
    payload = {
        "improved": result.improved,
        "set": list(result.cut.ids),
        "phi": _frac_json(result.phi),
        "vol": result.cut.volume,
        "solver": result.solver,
        "alpha_trace": [
            {"alpha": _frac_json(alpha), "outcome": outcome}
            for alpha, outcome in result.alpha_trace
        ],
    }
    if args.instrument:
        payload["touched_volume"] = result.touched_volume
        payload["phases"] = result.phases
    if args.human:
        if result.improved:
            print(f"set: {list(result.cut.ids)}")
            print(f"phi: {result.phi} vol: {result.cut.volume}")
        else:
            print("no improvement: the seed set routes its full demand at alpha=1")
    else:
        print(json.dumps(payload))
    return EXIT_OK if result.improved else EXIT_NO_IMPROVEMENT


def _cmd_flow(args) -> int:
    g = load_graph(args.graph, args.format)
    a = load_vertex_set(args.seed_set, g)
    eps = _resolve_eps(args, g, a)
    run = local_flow if args.solver == "approx" else local_flow_exact
    res = run(g, a, args.alpha, eps)
    value = res.value
    payload = {
        "flow_value": _frac_json(value),
        "cut": list(res.cut.ids),
        "exact": res.exact,
        "full_flow": res.full_flow,
        "touched_volume": res.stats.touched_volume,
        "phases": res.stats.phases,
    }
    if not res.full_flow and len(res.cut):
        payload["phi"] = _frac_json(conductance(g, res.cut))
    print(json.dumps(payload))
    return EXIT_OK


def _cmd_certify(args) -> int:
    g = load_graph(args.graph, args.format)
    a = load_vertex_set(args.seed_set, g)
    if args.check:
        # an undecodable byte is kept as a lone surrogate, which no field's
        # grammar accepts, so the reader rejects its line by number
        with open(args.check, "r", encoding="utf-8", errors="surrogateescape") as fh:
            report = cert.validate_certificate(fh, g, a)
        if report.ok:
            print("certificate valid")
            return EXIT_OK
        for line in report.violations:
            print(f"violation: {line}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if not args.out:
        raise ParameterError("pass --out to write or --check to validate")
    if args.alpha is None:
        raise ParameterError("writing a certificate needs --alpha")
    eps = _resolve_eps(args, g, a)
    res = local_flow_exact(g, a, args.alpha, eps)
    if not res.full_flow:
        raise NotACertificateError(
            f"no full-value flow at alpha={args.alpha}: a cut of conductance "
            f"{conductance(g, res.cut)} exists; certificates exist only when "
            "the demand routes fully"
        )
    ag = build(g, a, args.alpha, eps)
    pd = cert.decompose_paths(res.flow)
    with open(args.out, "w", encoding="utf-8") as fh:
        cert.write_certificate(fh, ag, pd)
    print(f"wrote certificate with {len(pd.paths)} paths to {args.out}")
    return EXIT_OK


def _cmd_seed(args) -> int:
    g = load_graph(args.graph, args.format)
    seeds = []
    for tok in filter(None, (tok.strip() for tok in args.seed.split(","))):
        try:
            seeds.append(parse_unsigned(tok))
        except ValueError:
            raise ParameterError(f"bad seed vertex {tok!r} in --seed {args.seed!r}") from None
    if not seeds:
        raise ParameterError("no seed vertices given")

    def option(name: str, parse):
        text = getattr(args, name)
        if text is None:
            return None
        try:
            return parse(text)
        except ValueError as exc:
            raise ParameterError(f"bad {name} in --{name.replace('_', '-')}: {exc}") from None

    def real(text: str) -> float:
        return float(parse_rational(text))

    cfg = ApprConfig(
        beta=option("beta", real),
        r_max=option("r_max", real),
        volume_cap=option("volume_cap", parse_unsigned),
    )

    def expand(v: int) -> dict:
        scores = appr_push(g, v, cfg)
        out = sweep_cut(g, scores)
        return {
            "seed": v,
            "set": list(out.ids),
            "vol": out.volume,
            "phi": _frac_json(conductance(g, out)),
        }

    results = [expand(v) for v in seeds]
    for payload in results:
        print(json.dumps(payload))
    return EXIT_OK


def run_cli(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "improve":
            return _cmd_improve(args, "approx")
        if args.command == "improve-exact":
            return _cmd_improve(args, "exact")
        if args.command == "flow":
            return _cmd_flow(args)
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "seed":
            return _cmd_seed(args)
        raise ParameterError(f"unknown command {args.command!r}")
    except LocalCutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
