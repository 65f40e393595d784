"""The benchmark's workloads: the commands each one issues and the checks on their outputs.

Each workload is a closed loop: one process issues its commands one after
another. Three drive the CLI in-process through ``sgdphaselab.cli.main``;
``oracle`` calls the library through its module attributes, so the traced
run's wrappers see every call.

One checked item is one grid cell, phase cell, trajectory, report or oracle
point. Deterministic outputs are compared with values recorded at the commit
that defined the benchmark (``reference.json``, written by ``record.py``)
within ``RTOL`` relative; statistical and analytic outputs are checked against
the repository's own contracts.
"""

from __future__ import annotations

import json
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from sgdphaselab import cli, genfunc, simulate, spectrum

WORKLOADS = ("stability-sweep", "long-horizon", "feature-validation", "oracle")
PROFILES = ("full", "smoke")
RTOL = 1e-10          # deterministic values and the generating-function oracle
MC_Z_LIMIT = 4.0      # Monte-Carlo mean vs exact moments, in standard errors
TRAJECTORY_STRIDE = 10  # reference keeps every tenth loss of a long trajectory
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# README presets. The smoke profile appends size flags (argparse keeps the last).
PRESETS = {
    "stability-sweep": [
        ("stability-map", ["--nu", "1.5", "--kappa", "3", "--modes", "200", "--batch", "10", "--plot"]),
        ("phase-diagram", ["--alpha", "0.2", "--gamma", "0.1"]),
    ],
    "long-horizon": [
        ("divergence", ["--nu", "0.75", "--kappa", "0.375", "--modes", "50000",
                        "--alpha", "0.08", "--gamma", "1"]),
        ("asymptotics", ["--nu", "1.5", "--kappa", "3", "--modes", "16000",
                         "--alpha", "0.3", "--gamma", "1", "--beta", "0.5"]),
    ],
    # alpha * lambda_max stays below 0.25 for every seed's 32 x 48 Gaussian features
    "feature-validation": [
        ("simulate", ["--random-features", "32,48", "--regime", "mc,moments", "--batch", "8",
                      "--beta", "0.3", "--alpha", "0.05", "--steps", "500", "--runs", "1000"]),
    ],
}
SMOKE_FLAGS = {
    "stability-map": ["--modes", "20", "--grid-alpha", "0.1:4:6", "--grid-beta", "0:0.95:4", "--steps", "100"],
    "phase-diagram": ["--modes", "20"],
    "divergence": ["--modes", "5000", "--steps", "300"],
    "asymptotics": ["--modes", "1000", "--steps", "500"],
    "simulate": ["--steps", "100", "--runs", "100"],
}
# oracle: (modes, horizon T, points) on the nu = 1.5, kappa = 3 power law
ORACLE_SIZES = {"full": (2000, 5000, 4), "smoke": (100, 200, 2)}

# Spans that must be non-empty in a traced run, per workload: a wrapper that
# no longer sees its layer fails the run instead of reporting zeros.
REQUIRED_SPANS = {
    "stability-sweep": (
        "spectrum.build_power_law", "simulate.run_se_grid", "genfunc.eval_U1",
        "genfunc.stability_report", "numerics.bisect_monotone", "asymptotics.loss_asymptote",
        "cli.stability_map", "cli.phase_diagram", "cli.emit.heatmap_chart",
    ),
    "long-horizon": (
        "spectrum.build_power_law", "spectrum.fit_power_law", "simulate.run_se",
        "genfunc.eval_U1", "genfunc.solve_divergence", "numerics.bisect_monotone",
        "asymptotics.loss_asymptote", "asymptotics.blowup_time",
        "cli.divergence", "cli.asymptotics", "cli.emit.save_csv",
    ),
    "feature-validation": (
        "spectrum.FeatureProblem.create", "spectrum.eigendecompose", "simulate.run_mc",
        "simulate.run_full_moments", "cli.simulate", "cli.emit.save_csv",
    ),
    "oracle": (
        "spectrum.build_power_law", "simulate.run_se", "genfunc.eval_U1",
        "genfunc.compute_UV_sequences", "genfunc.reconstruct_loss",
    ),
}


@dataclass
class Command:
    """One step of a workload: ``run`` does the work, ``check`` judges its outputs."""

    name: str
    run: Callable[[], bool]
    check: Callable[[dict | None], "CheckResult"]
    items: int  # items the command owns, so a failed command fails all of them


@dataclass
class CheckResult:
    items: list[tuple[str, bool]]
    digests: dict[str, str] = field(default_factory=dict)


def load_reference(profile: str) -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))[profile]


def cli_argv(workload: str, profile: str, seed: int) -> list[tuple[str, list[str]]]:
    out = []
    for command, argv in PRESETS[workload]:
        argv = [command, *argv]
        if command == "simulate":
            argv += ["--seed", str(seed)]
        if profile == "smoke":
            argv += SMOKE_FLAGS[command]
        out.append((command, argv))
    return out


def build(workload: str, seed: int, profile: str, out: Path, ref: dict) -> list[Command]:
    """The commands of one workload iteration, writing under ``out``; ``ref`` is
    the recorded reference of the workload (empty when its inputs depend on the seed)."""
    if workload == "oracle":
        return [_oracle_command(seed, profile)]
    commands = []
    for name, argv in cli_argv(workload, profile, seed):
        out_dir = out / name
        commands.append(Command(name, _cli_runner([*argv, "--out", str(out_dir)]),
                                _CHECKS[name](out_dir, argv), _item_count(ref.get(name))))
    return commands


def _cli_runner(argv: list[str]) -> Callable[[], bool]:
    def run() -> bool:
        try:
            return cli.main(argv) == 0
        except Exception:  # a raising command fails all of its items; the workload goes on
            traceback.print_exc(file=sys.stderr)
            return False
    return run


# ---------------------------------------------------------------------------
# value extraction, shared by the checks and by record.py


def _close(a, b) -> bool:
    if isinstance(a, (str, bool)) or a is None or isinstance(b, (str, bool)) or b is None:
        return a == b
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def matches(actual, ref) -> bool:
    """Recursive comparison: equal structure, numbers within RTOL relative."""
    if isinstance(ref, dict):
        return isinstance(actual, dict) and actual.keys() == ref.keys() and all(
            matches(actual[k], ref[k]) for k in ref)
    if isinstance(ref, list):
        return isinstance(actual, list) and len(actual) == len(ref) and all(
            matches(a, r) for a, r in zip(actual, ref))
    return _close(actual, ref)


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def _trajectory(path: Path) -> tuple[np.ndarray, np.ndarray | None]:
    rows = _csv_rows(path)
    loss = np.array([float(r[1]) for r in rows])
    err = None if rows and rows[0][2] == "" else np.array([float(r[2]) for r in rows])
    return loss, err


def _compact(losses: np.ndarray) -> dict:
    return {"length": int(losses.size), "sampled": losses[::TRAJECTORY_STRIDE].tolist(),
            "final": float(losses[-1])}


def _digests(out_dir: Path) -> dict[str, str]:
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    return {f["path"]: f["sha256"] for f in manifest["files"]}


def extract(command: str, out_dir: Path) -> dict:
    """The deterministic values of one CLI command's artifacts, plus their digests."""
    if command == "stability-map":
        values = {"cells": [[float(x) for x in r] for r in _csv_rows(out_dir / "stability_map.csv")]}
    elif command == "phase-diagram":
        values = {"cells": [[float(r[0]), float(r[1]), r[2], float(r[3]), float(r[4])]
                            for r in _csv_rows(out_dir / "phase_diagram.csv")]}
    elif command == "divergence":
        values = {"trajectory": _compact(_trajectory(out_dir / "trajectory_se.csv")[0]),
                  "report": json.loads((out_dir / "divergence_report.json").read_text(encoding="utf-8"))}
    elif command == "asymptotics":
        values = {"report": json.loads((out_dir / "asymptote_report.json").read_text(encoding="utf-8"))}
    else:
        raise ValueError(f"no recorded values for {command!r}")
    values["digests"] = _digests(out_dir)
    return values


# ---------------------------------------------------------------------------
# checks


def _check_recorded(command: str):
    """Items of a command whose values are all recorded: one per grid cell, or one
    per trajectory or report. A grid cell's verdict is its final loss being finite,
    and matches() keeps inf equal to inf only."""
    def factory(out_dir: Path, argv: list[str]):
        def check(ref: dict | None) -> CheckResult:
            actual = extract(command, out_dir)
            if "cells" in ref:
                cells = actual["cells"]
                items = [(f"{command}:a={want[0]!r},b={want[1]!r}", i < len(cells) and matches(cells[i], want))
                         for i, want in enumerate(ref["cells"])]
            else:
                items = [(f"{command}:{key}", matches(actual[key], ref[key])) for key in ref if key != "digests"]
            return CheckResult(items, actual["digests"])
        return check
    return factory


def _phase_cell_needs_constant(nu: float, zeta: float, phase: str, cfg: cli.ExperimentConfig) -> bool:
    """Signal- or noise-dominated cell with U~(1) < 1: the analysis promises a finite constant."""
    if phase not in ("signal_dominated", "noise_dominated"):
        return False
    spec = spectrum.build_power_law(
        spectrum.PowerLawSpec(cfg.Lambda, nu, cfg.K, zeta * nu, cfg.modes, cfg.c0_mode))
    ctx = genfunc.GenFuncContext(spec, cfg.alpha, cfg.beta, cfg.gamma or 0.1, cfg.tau2)
    return not ctx.violations() and genfunc.eval_U1(ctx) < 1.0


def _check_phase_diagram(out_dir: Path, argv: list[str]):
    def check(ref: dict | None) -> CheckResult:
        actual = extract("phase-diagram", out_dir)
        cells = actual["cells"]
        cfg = cli.parse_config(argv)
        items = []
        for i, want in enumerate(ref["cells"]):
            item = f"phase-diagram:nu={want[0]!r},zeta={want[1]!r}"
            if i >= len(cells):
                items.append((item, False))
                continue
            got = cells[i]
            ok = matches(got[:4], want[:4])
            if _phase_cell_needs_constant(want[0], want[1], want[2], cfg):
                constant = got[4]
                ok = ok and math.isfinite(constant) and constant > 0.0
                # a non-finite recorded constant is a known defect; a fix may change it
                if math.isfinite(want[4]):
                    ok = ok and _close(constant, want[4])
            else:
                ok = ok and _close(got[4], want[4])
            items.append((item, ok))
        return CheckResult(items, actual["digests"])
    return check


def _check_simulate(out_dir: Path, argv: list[str]):
    """MC mean within MC_Z_LIMIT standard errors of the dense moments at every step."""
    def check(ref: dict | None) -> CheckResult:
        cfg = cli.parse_config(argv)
        mc, mc_err = _trajectory(out_dir / "trajectory_mc.csv")
        dense, _ = _trajectory(out_dir / "trajectory_moments.csv")
        n = cfg.steps + 1
        dense_ok = (dense.size == n and bool(np.all(np.isfinite(dense)))
                    and bool(np.all(dense > 0.0)) and dense[-1] < dense[0])
        mc_ok = mc.size == n and dense.size == n and bool(np.all(np.isfinite(mc)))
        if mc_ok:
            z = np.abs(mc[1:] - dense[1:]) / mc_err[1:]
            mc_ok = bool(np.all(mc_err[1:] > 0.0)) and float(z.max()) <= MC_Z_LIMIT
        return CheckResult([("simulate:moments", dense_ok), ("simulate:mc", mc_ok)],
                           _digests(out_dir))
    return check


_CHECKS = {
    "stability-map": _check_recorded("stability-map"),
    "phase-diagram": _check_phase_diagram,
    "divergence": _check_recorded("divergence"),
    "asymptotics": _check_recorded("asymptotics"),
    "simulate": _check_simulate,
}


def _item_count(recorded: dict | None) -> int:
    if recorded is None:
        return 2  # simulate: the Monte-Carlo and the dense trajectory
    return len(recorded["cells"]) if "cells" in recorded else len(recorded) - 1  # minus digests


# ---------------------------------------------------------------------------
# oracle: reconstruct_loss against run_se on one power-law spectrum


def _oracle_points(seed: int, count: int) -> list[tuple[float, float, float, float]]:
    """(alpha fraction of 2(1+beta)/lambda_max, beta, gamma, tau), drawn as acceptance 02 does."""
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.1, 0.7), rng.uniform(-0.4, 0.8), rng.uniform(0.0, 0.5), rng.uniform(0.3, 1.0))
            for _ in range(count)]


def _oracle_command(seed: int, profile: str) -> Command:
    modes, horizon, count = ORACLE_SIZES[profile]
    points = _oracle_points(seed, count)
    results: list[tuple] = []

    def run() -> bool:
        spec = spectrum.build_power_law(spectrum.PowerLawSpec(1.0, 1.5, 1.0, 3.0, modes))
        for frac, beta, gamma, tau in points:
            alpha = frac * 2.0 * (1.0 + beta) / spec.lambda_max
            ctx = genfunc.GenFuncContext(spec, alpha, beta, gamma, tau)
            if genfunc.eval_U1(ctx) >= 0.98:
                gamma *= 0.1
                ctx = genfunc.GenFuncContext(spec, alpha, beta, gamma, tau)
            oracle = genfunc.reconstruct_loss(ctx, horizon)
            sim = simulate.run_se(spec, simulate.SGDParams(
                alpha=alpha, beta=beta, gamma=gamma, tau2=tau, steps=horizon))
            results.append((oracle, sim))
        return True

    def check(ref: dict | None) -> CheckResult:
        items = []
        for i in range(count):
            ok = False
            if i < len(results):
                oracle, sim = results[i]
                a, b = oracle.losses, sim.losses
                ok = (a.size == b.size == horizon + 1 and sim.diverged_at is None
                      and bool(np.all(np.isfinite(b)))
                      and float(np.max(np.abs(a - b) / np.abs(b))) <= RTOL)
            items.append((f"oracle:point{i}", ok))
        return CheckResult(items)

    return Command("oracle", run, check, count)
