"""Span recording around calls into the program's layers.

The benchmark's traced run installs wrappers on the program's public
functions and methods; nothing inside ``src/`` is edited. Every wrapped
call records a span (name, start, end, parent span, query id) in compact
arrays, and its self time (duration minus the time covered by its child
spans) is accumulated per name as the span closes. Spans stay in memory
until :meth:`Tracer.dump` writes them out when the run ends.

Each name is patched where it is looked up, not where it is defined: a
module that did ``from .flow import bfs_distances`` holds its own binding,
so that binding is the one replaced. The attribute ``localcut.local_flow``
is the re-exported function, so modules are reached through ``importlib``.
"""

from __future__ import annotations

import importlib
import os
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

COUNT_SPAN = "trace.count"


class Tracer:
    """In-memory span store with per-name self time, call and error counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(int)
        self.qid = -1
        self.active = True

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.qid)
        self.end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        t = perf_counter()
        self.end[idx] = t
        self._stack.pop()
        child = self._child.pop()
        dur = t - self.start[idx]
        nid = self.name[idx]
        self.self_s[nid] += dur - child
        self.calls[nid] += 1
        if self._child:
            self._child[-1] += dur

    @contextmanager
    def paused(self):
        """Run benchmark-side work (output checks) without recording spans."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` recording a span per call.

        ``hook(result, args, kwargs)`` updates counters after the call; it
        runs in its own ``trace.count`` span so its cost is charged to the
        tracer, not to the caller's self time.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                tracer.close(idx)
            if hook is not None:
                cidx = tracer.open(COUNT_SPAN)
                try:
                    hook(out, args, kwargs)
                finally:
                    tracer.close(cidx)
            return out

        traced.__wrapped__ = fn
        return traced

    def self_time(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def total_self(self) -> float:
        return sum(self.self_s)

    def dump(self, path: str) -> None:
        """Write every span to a compressed ``.npz`` file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            query=np.frombuffer(self.query, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _count_flow(tracer: Tracer, res, a) -> None:
    """Counters of one localized flow run (approx or exact)."""
    c = tracer.counters
    flow = res.flow.arc_flow
    pairs = len(flow) // 2
    c["flow.arcs"] += pairs
    c["flow.arcs_used"] += sum(1 for f in flow if f > 0)
    if a.volume:
        c["flow.touched_per_vol_a"] = max(
            c["flow.touched_per_vol_a"], res.stats.touched_volume / a.volume
        )


def install(tracer: Tracer) -> dict:
    """Patch every traced name in the ``localcut`` modules.

    Returns traced versions of the two entry points the workloads call
    themselves: ``improve`` (``local_improve_overlap``) and ``cli``
    (``run_cli``).
    """
    graphs, flow, lf, ex, imp, cert, cli = (
        importlib.import_module(f"localcut.{name}")
        for name in ("graphs", "flow", "local_flow", "exact_flow", "improve", "certify", "cli")
    )
    c = tracer.counters

    def patch(owners, attr: str, name: str, hook=None) -> None:
        for owner in owners:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), hook))

    def on_local_flow(res, args, kwargs):
        c["local_flow.phases"] += res.stats.phases
        c["local_flow.exact"] += 1 if res.exact else 0
        _count_flow(tracer, res, args[1])

    def on_exact_flow(res, args, kwargs):
        c["exact_flow.outer_phases"] += res.stats.phases
        _count_flow(tracer, res, args[1])

    def on_improve(res, args, kwargs):
        c["improve.probes"] += len(res.alpha_trace)

    def on_load_graph(res, args, kwargs):
        c["graphio.bytes"] += os.path.getsize(args[0])

    def on_decompose(res, args, kwargs):
        c["certify.paths"] += len(res.paths)

    def on_check(res, args, kwargs):
        c["certify.check_invalid"] += 0 if res.ok else 1

    patch([graphs.Graph], "__init__", "graphs.csr_build")
    patch([flow.FlowState], "open_vertex", "flow.open_vertex")
    patch([flow.FlowState], "check_conservation", "validate.conservation")
    patch([lf, ex], "bfs_distances", "flow.bfs")
    patch([lf], "blocking_flow", "flow.blocking")
    patch([lf, ex], "update_saturated_set", "local_flow.update_saturated")
    patch([lf, ex], "check_label_monotone", "validate.label_monotone")
    patch([lf, ex, imp, cli], "build", "augmented.build")
    patch([ex], "binary_blocking_flow", "exact_flow.binary_blocking")
    patch([ex], "length_hat", "exact_flow.length_hat")
    patch([imp, cli], "local_flow", "local_flow", on_local_flow)
    patch([imp, cli], "local_flow_exact", "exact_flow", on_exact_flow)
    patch([imp, cli], "conductance", "graphs.conductance")
    patch([cli], "local_improve_overlap", "improve", on_improve)
    patch([cli], "load_graph", "graphio.load_graph", on_load_graph)
    patch([cli], "load_vertex_set", "graphio.load_vertex_set")
    patch([cli], "appr_push", "seeding.push")
    patch([cli], "sweep_cut", "seeding.sweep")
    patch([cert], "decompose_paths", "certify.decompose", on_decompose)
    patch([cert], "write_certificate", "certify.write")
    patch([cert], "validate_certificate", "certify.check", on_check)
    return {
        "improve": tracer.wrap("improve", imp.local_improve_overlap, on_improve),
        "cli": tracer.wrap("cli", cli.run_cli),
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values from the recorded spans and counters."""
    t = tracer.self_time
    n = tracer.call_count
    c = tracer.counters
    load_s = t("graphio.load_graph")
    flow_runs = n("local_flow")
    return {
        "graphio.load_s": load_s + t("graphio.load_vertex_set"),
        "graphio.mb_per_s": c["graphio.bytes"] / 1e6 / load_s if load_s else 0.0,
        "graphs.csr_build_s": t("graphs.csr_build"),
        "graphs.conductance_s": t("graphs.conductance"),
        "graphs.conductance_calls": n("graphs.conductance"),
        "augmented.build_s": t("augmented.build"),
        "augmented.build_calls": n("augmented.build"),
        "flow.open_vertex_s": t("flow.open_vertex"),
        "flow.open_vertex_calls": n("flow.open_vertex"),
        "flow.arcs": c["flow.arcs"],
        "flow.arcs_used_ratio": c["flow.arcs_used"] / c["flow.arcs"] if c["flow.arcs"] else 0.0,
        "flow.bfs_s": t("flow.bfs"),
        "flow.bfs_calls": n("flow.bfs"),
        "flow.blocking_s": t("flow.blocking"),
        "flow.blocking_calls": n("flow.blocking"),
        "flow.touched_per_vol_a": c["flow.touched_per_vol_a"],
        "local_flow.calls": flow_runs,
        "local_flow.phases": c["local_flow.phases"],
        "local_flow.self_s": t("local_flow"),
        "local_flow.update_saturated_s": t("local_flow.update_saturated"),
        "local_flow.exact_share": c["local_flow.exact"] / flow_runs if flow_runs else 0.0,
        "validate.conservation_s": t("validate.conservation"),
        "validate.label_monotone_s": t("validate.label_monotone"),
        "exact_flow.self_s": t("exact_flow"),
        "exact_flow.binary_blocking_s": t("exact_flow.binary_blocking"),
        "exact_flow.binary_blocking_calls": n("exact_flow.binary_blocking"),
        "exact_flow.length_hat_s": t("exact_flow.length_hat"),
        "exact_flow.outer_phases": c["exact_flow.outer_phases"],
        "improve.probes": c["improve.probes"],
        "improve.self_s": t("improve"),
        "certify.decompose_s": t("certify.decompose"),
        "certify.paths": c["certify.paths"],
        "certify.write_s": t("certify.write"),
        "certify.check_s": t("certify.check"),
        "certify.check_failed": tracer.errors["certify.check"] + c["certify.check_invalid"],
        "seeding.push_s": t("seeding.push"),
        "seeding.sweep_s": t("seeding.sweep"),
        "cli.self_s": t("cli"),
    }
