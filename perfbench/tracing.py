"""Span tracer for the traced benchmark run, wrapping sgdphaselab from outside.

Nothing in ``src/`` knows about it. ``installed(tracer)`` replaces each layer
function by a recording wrapper in every ``sgdphaselab`` namespace that holds
it (``cli`` and ``asymptotics`` bind names with ``from ... import``), plus the
CLI dispatch table and two methods, and restores the originals on exit.

A span records name, start, end, parent span, thread id and workload-run id,
with the layer's work counts taken at the same boundary. Spans stay in memory.
A span opened on a worker thread with no open span of its own (the sweep pool
of ``stability-map``) takes the innermost open span of the tracing thread as
its parent. Self time is a span's duration minus the union of its children's
intervals, so parallel children are not subtracted twice.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from sgdphaselab import cli, simulate, spectrum


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    run: str
    start: int = 0
    end: int = 0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.grid_calls: list[dict] = []   # bound arguments of each run_se_grid call
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._owner_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (self._owner_stack[-1] if self._owner_stack else None)
        with self._lock:
            rec = Span(len(self.spans), name, parent.id if parent else None,
                       threading.get_ident(), self.run_id)
            self.spans.append(rec)
        stack.append(rec)
        rec.start = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter_ns()
            stack.pop()


# ---------------------------------------------------------------------------
# wrappers


def _wrap(tracer: Tracer, fn, name: str, count=None):
    sig = inspect.signature(fn) if count else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if count:
            count(tracer, span, sig.bind(*args, **kwargs).arguments, result)
        return result
    return wrapper


def _wrap_bisect(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        evals = 0

        def counted(x):
            nonlocal evals
            evals += 1
            return f(x)

        with tracer.span(name) as span:
            result = fn(counted, *args, **kwargs)
        span.counts["f_evals"] = evals
        return result
    return wrapper


def _wrap_mc(tracer: Tracer, fn, name: str):
    """run_mc with its peak traced allocation; tracemalloc's own cost lands in the span."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        a = sig.bind(*args, **kwargs).arguments
        span.counts["run_steps"] = int(a["runs"]) * (len(result.losses) - 1)
        span.counts["peak_alloc_bytes"] = peak
        return result
    return wrapper


def _count_se(tracer, span, a, result):
    span.counts["mode_steps"] = len(a["spectrum"]) * (len(result.losses) - 1)


def _count_grid(tracer, span, a, result):
    cells = len(a["alphas"]) * len(a["betas"])
    steps = int(a["steps"])
    diverged = result["diverged_at"]
    span.counts["cell_mode_steps"] = cells * len(a["spectrum"]) * steps
    span.counts["cell_steps"] = cells * steps
    span.counts["live_cell_steps"] = int(np.where(diverged >= 0, diverged, steps).sum())
    tracer.grid_calls.append(dict(a))


def _count_dense(tracer, span, a, result):
    span.counts["steps"] = len(result.losses) - 1


def _count_uv(tracer, span, a, result):
    # two per-mode (C, J, V) triples advance per step after the first
    span.counts["mode_steps"] = 2 * len(a["ctx"].spectrum) * (int(a["horizon"]) - 1)


def _count_csv(tracer, span, a, result):
    span.counts["bytes"] = os.path.getsize(a["path"])


def _count_svg(tracer, span, a, result):
    span.counts["bytes"] = len(result.encode("utf-8"))


# (module, attribute, span name, counter); the wrapper goes into every
# sgdphaselab namespace that holds the same function object
FUNCTIONS = [
    ("spectrum", "build_power_law", "spectrum.build_power_law", None),
    ("spectrum", "eigendecompose", "spectrum.eigendecompose", None),
    ("spectrum", "build_torus_problem", "spectrum.build_torus_problem", None),
    ("spectrum", "fit_power_law", "spectrum.fit_power_law", None),
    ("simulate", "run_se", "simulate.run_se", _count_se),
    ("simulate", "run_se_grid", "simulate.run_se_grid", _count_grid),
    ("simulate", "run_full_moments", "simulate.run_full_moments", _count_dense),
    ("genfunc", "eval_U1", "genfunc.eval_U1", None),
    ("genfunc", "stability_report", "genfunc.stability_report", None),
    ("genfunc", "solve_divergence", "genfunc.solve_divergence", None),
    ("genfunc", "compute_UV_sequences", "genfunc.compute_UV_sequences", _count_uv),
    ("genfunc", "reconstruct_loss", "genfunc.reconstruct_loss", None),
    ("asymptotics", "loss_asymptote", "asymptotics.loss_asymptote", None),
    ("asymptotics", "blowup_time", "asymptotics.blowup_time", None),
    ("svg", "loglog_chart", "cli.emit.loglog_chart", _count_svg),
    ("svg", "heatmap_chart", "cli.emit.heatmap_chart", _count_svg),
]
SPECIAL = [
    ("numerics", "bisect_monotone", "numerics.bisect_monotone", _wrap_bisect),
    ("simulate", "run_mc", "simulate.run_mc", _wrap_mc),
]
CLI_COMMANDS = ("simulate", "stability-map", "divergence", "asymptotics", "phase-diagram")


def _namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sgdphaselab" or name.startswith("sgdphaselab."))]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer function while the block runs; restore the originals after."""
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    wrappers = [(mod, attr, _wrap(tracer, getattr(sys.modules["sgdphaselab." + mod], attr), name, count))
                for mod, attr, name, count in FUNCTIONS]
    wrappers += [(mod, attr, make(tracer, getattr(sys.modules["sgdphaselab." + mod], attr), name))
                 for mod, attr, name, make in SPECIAL]
    try:
        for mod, attr, wrapper in wrappers:
            original = getattr(sys.modules["sgdphaselab." + mod], attr)
            for ns in _namespaces():
                for key, value in list(vars(ns).items()):
                    if value is original:
                        patch(ns, key, wrapper)
        create = vars(spectrum.FeatureProblem)["create"]
        patch(spectrum.FeatureProblem, "create",
              classmethod(_wrap(tracer, create.__func__, "spectrum.FeatureProblem.create")))
        patch(simulate.LossTrajectory, "save_csv",
              _wrap(tracer, simulate.LossTrajectory.save_csv, "cli.emit.save_csv", _count_csv))
        for command in CLI_COMMANDS:
            undo.append((cli._DISPATCH, command, cli._DISPATCH[command]))
            cli._DISPATCH[command] = _wrap(tracer, cli._DISPATCH[command], "cli." + command.replace("-", "_"))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, distinct threads, summed wall and self seconds, and
    summed counts (peaks: max)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    agg: dict[str, dict] = {}
    for s in spans:
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ()) if b > s.start and a < s.end]
        wall = s.end - s.start
        entry = agg.setdefault(s.name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "threads": set()})
        entry["calls"] += 1
        entry["threads"].add(s.thread)
        entry["wall_s"] += wall * 1e-9
        entry["self_s"] += (wall - _union_ns(clipped)) * 1e-9
        for key, value in s.counts.items():
            entry[key] = max(entry.get(key, 0), value) if key.startswith("peak") else entry.get(key, 0) + value
    for entry in agg.values():
        entry["threads"] = len(entry["threads"])
    return agg


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, threads: int, serial_grid_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced workload iteration (0 for a layer it does not run)."""
    agg = aggregate(tracer.spans)

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    m: dict[str, float] = {}
    builds = ("spectrum.build_power_law", "spectrum.eigendecompose",
              "spectrum.FeatureProblem.create", "spectrum.build_torus_problem")
    m["spectrum.build.calls"] = sum(get(n, "calls") for n in builds)
    m["spectrum.build.self_s"] = sum(get(n, "self_s") for n in builds)
    m["spectrum.fit_power_law.self_s"] = get("spectrum.fit_power_law", "self_s")

    se = "simulate.run_se"
    m[se + ".calls"] = get(se, "calls")
    m[se + ".self_s"] = get(se, "self_s")
    m[se + ".mode_steps"] = get(se, "mode_steps")
    m[se + ".ns_per_mode_step"] = _ratio(get(se, "self_s") * 1e9, get(se, "mode_steps"))

    grid = "simulate.run_se_grid"
    grid_spans = [s for s in tracer.spans if s.name == grid]
    busy = get(grid, "wall_s")
    grid_wall = (max(s.end for s in grid_spans) - min(s.start for s in grid_spans)) * 1e-9 if grid_spans else 0.0
    m[grid + ".calls"] = get(grid, "calls")
    m[grid + ".busy_s"] = busy
    m[grid + ".cell_mode_steps"] = get(grid, "cell_mode_steps")
    m[grid + ".ns_per_cell_mode_step"] = _ratio(busy * 1e9, get(grid, "cell_mode_steps"))
    m[grid + ".live_cell_frac"] = _ratio(get(grid, "live_cell_steps"), get(grid, "cell_steps"))
    m["cli.sweep.parallel_eff"] = _ratio(busy, threads * grid_wall)
    m["cli.sweep.speedup_1thread"] = _ratio(serial_grid_s, grid_wall)

    mc = "simulate.run_mc"
    m[mc + ".self_s"] = get(mc, "self_s")
    m[mc + ".run_steps"] = get(mc, "run_steps")
    m[mc + ".ns_per_run_step"] = _ratio(get(mc, "self_s") * 1e9, get(mc, "run_steps"))
    m[mc + ".peak_alloc_mb"] = get(mc, "peak_alloc_bytes") / 2**20

    dense = "simulate.run_full_moments"
    m[dense + ".self_s"] = get(dense, "self_s")
    m[dense + ".steps"] = get(dense, "steps")
    m[dense + ".ms_per_step"] = _ratio(get(dense, "self_s") * 1e3, get(dense, "steps"))

    for name in ("genfunc.eval_U1", "genfunc.stability_report", "genfunc.solve_divergence",
                 "asymptotics.loss_asymptote"):
        m[name + ".calls"] = get(name, "calls")
        m[name + ".self_s"] = get(name, "self_s")
    m["genfunc.compute_UV_sequences.self_s"] = get("genfunc.compute_UV_sequences", "self_s")
    m["genfunc.compute_UV_sequences.mode_steps"] = get("genfunc.compute_UV_sequences", "mode_steps")
    m["genfunc.reconstruct_loss.self_s"] = get("genfunc.reconstruct_loss", "self_s")
    m["numerics.bisect_monotone.calls"] = get("numerics.bisect_monotone", "calls")
    m["numerics.bisect_monotone.f_evals"] = get("numerics.bisect_monotone", "f_evals")
    m["asymptotics.blowup_time.self_s"] = get("asymptotics.blowup_time", "self_s")

    for command in CLI_COMMANDS:
        name = "cli." + command.replace("-", "_")
        m[name + ".wall_s"] = get(name, "wall_s")
        m[name + ".self_s"] = get(name, "self_s")
    emits = ("cli.emit.save_csv", "cli.emit.loglog_chart", "cli.emit.heatmap_chart")
    m["cli.emit.self_s"] = sum(get(n, "self_s") for n in emits)
    m["cli.emit.bytes"] = sum(get(n, "bytes") for n in emits)
    return m


def serial_grid_seconds(tracer: Tracer) -> float:
    """Re-run the traced sweep's whole grid on one thread, untraced: the serial baseline."""
    if not tracer.grid_calls:
        return 0.0
    calls = sorted(tracer.grid_calls, key=lambda a: float(a["alphas"][0]))
    first = calls[0]
    alphas = np.concatenate([np.asarray(a["alphas"], dtype=float) for a in calls])
    start = time.perf_counter()
    simulate.run_se_grid(first["spectrum"], alphas, first["betas"], first["gamma"],
                         first["tau1"], first["tau2"], first["steps"])
    return time.perf_counter() - start
