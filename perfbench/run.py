"""localcut benchmark: one workload per process, timed or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload planted --seed 1 --seconds 35 --trace 0

Workloads: ``planted``, ``ring``, ``cli``, which ``BENCHMARK.json`` lists,
and ``planted_exact``, which it does not: its multi-second calls read too
unsteadily on a shared host to gate changes (see ``perfbench/notes.json``
for why each workload exists and which layers it loads).

``--trace 0`` sets the workload up several times, spread across the timed
window, or before and after it where memory allows only one set-up at a
time (``setup_s`` is the fastest), repeats its
rounds until ``--seconds`` have passed and reports the end-to-end metrics;
latencies are each input's fastest call.
``--trace 1`` sets up once with span wrappers installed, runs a fixed
number of rounds once untraced and once traced, alternating, and reports
per-layer self times and counters plus the tracing overhead; spans go to
``perfbench/out/<workload>-s<seed>.spans.npz``. ``--toy`` shrinks every
instance; the smoke test uses it.

The program is imported from ``src/`` of the checkout this file sits in.
Every operation's output is checked outside its timed interval. The run
prints a human-readable report, then, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a copy of the
report, with the machine record and output digest, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("planted", "planted_exact", "ring", "cli")
# the paper's claim: a 10x larger ring may not make a local query 2x slower
LOCALITY_LIMIT = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "p50_s": "s",
    "phi_ratio_mean": "ratio",
    "peak_rss_mb": "MB",
}

# the original per-workload names of p50_s, printed next to it in the report
ALIASES = {
    "planted": {"p50_s": "approx_p50_s"},
    "planted_exact": {"p50_s": "exact_p50_s"},
    "ring": {"p50_s": "approx_p50_s"},
    "cli": {"p50_s": "cli_p50_s"},
}


def layer_unit(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "overhead", "per_vol_a")):
        return "ratio"
    return "count"


class Tally:
    """Latencies, failures, digests and quality ratios of one pass."""

    def __init__(self) -> None:
        self.latency: dict[str, dict[str, list[float]]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: Counter = Counter()
        self.phi_ratio: dict[str, object] = {}
        self.digest: dict[str, str] = {}
        self.op_seconds = 0.0

    def record(self, op, seconds: float, outcome, error: BaseException | None) -> None:
        self.attempted += 1
        self.op_seconds += seconds
        if error is not None:
            self.failed += 1
            where = traceback.extract_tb(error.__traceback__)[-1]
            self.errors[
                f"{op.key.rstrip('0123456789')}: {type(error).__name__} "
                f"at {os.path.basename(where.filename)}:{where.lineno}"
            ] += 1
            self.digest.setdefault(op.key, f"{op.key}|raised {type(error).__name__}")
            return
        self.digest.setdefault(op.key, outcome.digest)
        if outcome.problems:
            self.failed += 1
            self.wrong.extend(outcome.problems)
            return
        self.latency.setdefault(op.kind, {}).setdefault(op.key, []).append(seconds)
        if outcome.phi_ratio is not None:
            self.phi_ratio.setdefault(op.key, outcome.phi_ratio)

    def best(self, kind: str) -> list[float]:
        """Per input, the fastest of its repeats: the machine's noise only adds time."""
        return [min(v) for v in self.latency.get(kind, {}).values()]

    def digest_hex(self) -> str:
        text = "\n".join(self.digest[k] for k in sorted(self.digest))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_rounds(rounds, tally: Tally, *, seconds=None, count=None, tracer=None, first=0, between=None) -> None:
    """Run rounds ``first``, ``first + 1``, ... until ``seconds`` pass or ``count`` are done.

    Round ``r`` is ``rounds[r % len(rounds)]``. Inputs are prepared and
    outputs checked outside the timed interval (with a tracer, paused, and
    spans carry the round number as their query id). ``between(elapsed)``
    runs before every round but the first.
    """
    t0 = perf_counter()
    i = 0
    while True:
        if count is not None and i >= count:
            break
        elapsed = perf_counter() - t0
        if seconds is not None and i > 0 and elapsed >= seconds:
            break
        if between is not None and i > 0:
            between(elapsed)
        r = first + i
        for op in rounds[r % len(rounds)]:
            if tracer is not None:
                tracer.qid = r
            with untraced(tracer):
                inputs = op.prepare(r)
            error = outcome = None
            start = perf_counter()
            try:
                result = op.run(inputs)
            except Exception as exc:  # counted as a failed operation, never fatal
                seconds_taken = perf_counter() - start
                error = exc
            else:
                seconds_taken = perf_counter() - start
                with untraced(tracer):
                    outcome = op.check(result, inputs)
            tally.record(op, seconds_taken, outcome, error)
        i += 1


def untraced(tracer):
    return contextlib.nullcontext() if tracer is None else tracer.paused()


def locality(tally: Tally) -> float | None:
    """Median best big-ring call / median best small-ring call; >= 2 is a wrong output."""
    main, small = tally.best("main"), tally.best("small")
    if not (main and small):
        return None
    ratio = statistics.median(main) / statistics.median(small)
    if ratio >= LOCALITY_LIMIT:
        tally.wrong.append(f"locality_ratio {ratio:.3f} >= {LOCALITY_LIMIT}: cost grows with graph size")
    return ratio


def machine_record(workload: str, seed: int, trace: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method); the single value for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(wl, seed: int, seconds: float, report: dict) -> tuple[Tally, dict]:
    from localcut.cli import run_cli
    from localcut.improve import local_improve_overlap

    setups: list[float] = []

    def set_up():
        gc.collect()
        start = perf_counter()
        state = wl.setup(seed)
        setups.append(perf_counter() - start)
        return state

    repeats = wl.sizes.setup_repeats
    if wl.sizes.spread_setups:
        state = set_up()
        due = [seconds * j / repeats for j in range(1, repeats)]
    else:
        # one set-up in memory at a time: half run before the rounds, each
        # freed before the next, the rest after the rounds are freed
        for _ in range(repeats - repeats // 2):
            state = None
            state = set_up()
        due = [seconds] * (repeats // 2)  # never due inside the window

    def between(elapsed: float) -> None:
        if due and elapsed >= due[0]:
            del due[0]
            set_up()  # timed, then discarded

    rounds = wl.rounds(state, {"improve": local_improve_overlap, "cli": run_cli})
    del state
    tally = Tally()
    run_rounds(rounds, tally, seconds=seconds, between=between)
    del rounds
    for _ in due:
        set_up()
    main = tally.best("main")
    ratios = list(tally.phi_ratio.values())
    metrics = {
        "setup_s": min(setups),
        "p50_s": statistics.median(main),
        "phi_ratio_mean": float(sum(ratios) / len(ratios)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # reported, not gated: over few inputs its run-to-run spread nears the bound
    report["p90_s"] = quantile(main, 90)
    report["setup_samples_s"] = setups
    report["samples"] = {
        kind: {"inputs": len(v), "calls": sum(map(len, v.values()))}
        for kind, v in tally.latency.items()
    }
    groups: dict[str, list[float]] = {}
    for key, values in tally.latency.get("main", {}).items():
        groups.setdefault(key.rstrip("0123456789"), []).append(min(values))
    report["p50_s_by_operation"] = {g: statistics.median(v) for g, v in sorted(groups.items())}
    ratio = locality(tally)
    if ratio is not None:
        report["locality_ratio"] = ratio
    return tally, metrics


def traced_run(wl, seed: int, report: dict) -> tuple[Tally, dict]:
    """Set up under tracing, then run each round untraced and traced in turn.

    Alternating the two passes round by round, and which goes first,
    exposes both to the same machine load and warm-up, so their ratio is
    the tracing overhead. The untraced pass runs with the wrappers
    installed but switched off.
    """
    import spans

    tracer = spans.Tracer()
    api = spans.install(tracer)
    start = perf_counter()
    state = wl.setup(seed)
    setup_s = perf_counter() - start
    with tracer.paused():
        rounds = wl.rounds(state, api)
    plain, traced = Tally(), Tally()
    for i in range(wl.sizes.traced_rounds):
        for on in (False, True) if i % 2 == 0 else (True, False):
            if on:
                run_rounds(rounds, traced, count=1, tracer=tracer, first=i)
            else:
                with tracer.paused():
                    run_rounds(rounds, plain, count=1, first=i)
    wall = setup_s + traced.op_seconds

    metrics = spans.layer_metrics(tracer)
    metrics["locality_ratio"] = locality(plain) or 0.0
    metrics["trace.overhead"] = traced.op_seconds / plain.op_seconds
    metrics["trace.wall_s"] = wall
    self_sum = tracer.total_self()
    report["trace"] = {
        "spans": len(tracer.name),
        "self_sum_s": self_sum,
        "wall_s": wall,
        "rounds": wl.sizes.traced_rounds,
        "digest_untraced": plain.digest_hex(),
    }
    if self_sum > wall:
        traced.wrong.append(f"span self times {self_sum:.6f} s exceed traced wall {wall:.6f} s")
    if plain.digest_hex() != traced.digest_hex():
        traced.wrong.append("traced outputs differ from untraced outputs")
    tracer.dump(os.path.join(OUT, f"{report['machine']['workload']}-s{seed}.spans.npz"))
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.wrong.extend(plain.wrong)
    traced.errors.update(plain.errors)
    return traced, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny instances, for the smoke test")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "localcut", "__init__.py")):
        print(f"error: no localcut sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    report = {"machine": machine_record(args.workload, args.seed, args.trace)}
    try:
        wl = workloads.make(args.workload, args.toy, workdir)
        if args.trace:
            tally, metrics = traced_run(wl, args.seed, report)
            units = {name: layer_unit(name) for name in metrics}
        else:
            tally, metrics = timed_run(wl, args.seed, args.seconds, report)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report.update(
        attempted=tally.attempted,
        failed=tally.failed,
        error_rate=tally.failed / tally.attempted,
        failures=dict(tally.errors),
        wrong_outputs=tally.wrong[:20],
        digest=tally.digest_hex(),
        digest_queries=len(tally.digest),
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    )
    print(f"# localcut benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for key, value in report["machine"].items():
        print(f"machine.{key}: {value}")
    for name, value in metrics.items():
        alias = ALIASES[args.workload].get(name)
        print(f"{name}: {value:.6g} {units[name]}" + (f"  ({alias})" if alias else ""))
    for key in ("p90_s", "samples", "p50_s_by_operation", "setup_samples_s", "locality_ratio", "trace"):
        if key in report:
            print(f"{key}: {report[key]}")
    print(f"error_rate: {report['error_rate']:.6g} ({tally.failed}/{tally.attempted})")
    for what, n in sorted(tally.errors.items()):
        print(f"failure: {what} x{n}")
    for what in tally.wrong[:20]:
        print(f"wrong output: {what}")
    print(f"digest: {report['digest']} over {report['digest_queries']} distinct operations")
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
