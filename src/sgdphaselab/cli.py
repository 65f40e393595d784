"""Command-line front end: presets, sweeps, and CSV/JSON/SVG artifacts.

Commands
--------
simulate       loss trajectories (se / noiseless / mc / moments regimes)
stability-map  (alpha, beta) sweep with the analytic boundary column
divergence     r_L, t_div, blow-up analysis plus the simulated trajectory
asymptotics    power-law loss asymptote report with an empirical slope check
phase-diagram  phase grid over (zeta, 1/nu)
fit            power-law exponents fitted to a spectrum
se-error       quadratic SE-approximation error of the exact noise term

Each command computes its files; once it has returned, they are written to
``--out`` with a manifest of their sha256 checksums. A failed run writes no
file and creates no directory, and an ``--out`` that cannot be a writable
directory is refused before any computation.
Exit codes: 0 success, 2 validation error, 3 analysis-domain error, 4 out of memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, svg
from .asymptotics import PhaseLabel, blowup_time, classify_phase, loss_asymptote
from .errors import AnalysisDomainError, ValidationError
from .genfunc import GenFuncContext, eval_U1, solve_divergence, stability_report
from .simulate import SGDParams, run_full_moments, run_mc, run_noiseless, run_se, run_se_grid, se_fit_error
from .serialize import json_ready
from .spectrum import (
    FeatureProblem,
    PowerLawFit,
    PowerLawSpec,
    Spectrum,
    build_power_law,
    build_torus_problem,
    eigendecompose,
    fit_power_law,
    load_spectrum_csv,
)

REGIMES = ("se", "noiseless", "mc", "moments")


def _key(default, **argparse_kwargs):
    """A config key's default; the kwargs (help, metavar, choices) go to its flag."""
    return field(default=default, metadata=argparse_kwargs)


@dataclass
class ExperimentConfig:
    """Every CLI key: ``--flag`` is the name with ``_`` as ``-``, and a config
    file sets the same name. The type picks the parser (``_PARSERS``)."""

    command: str
    # problem source (exactly one)
    nu: float | None = None
    kappa: float | None = None
    Lambda: float = 1.0
    K: float = 1.0
    modes: int = 200
    c0_mode: str = _key("differenced", choices=("differenced", "pointwise"))
    csv: str | None = _key(None, help="spectrum CSV path (k,lambda,lambda_c)")
    torus: int | None = _key(None, metavar="N", help="1-D torus grid size")
    kernel_scale: float = 0.35
    random_features: tuple[int, int] | None = _key(None, metavar="d,N")
    # SGD parameters
    alpha: float = 0.5
    beta: float = 0.0
    gamma: float | None = None
    batch: int | None = None
    dataset_size: float | None = None
    tau1: float = 1.0
    tau2: float = 1.0
    steps: int | None = None  # None until parse_config resolves the command's horizon
    runs: int = 1000
    seed: int = 0
    regime: str = _key("se", help="comma list of: " + ",".join(REGIMES))
    # sweep grids
    grid_alpha: tuple[float, float, int] | None = _key(None, metavar="lo:hi:n")
    grid_beta: tuple[float, float, int] | None = _key(None, metavar="lo:hi:n")
    batch_list: list[int] | None = _key(None, metavar="b1,b2,...")
    full_scale: bool = False
    # output
    out: str = _key("out", help="output directory")
    plot: bool = False
    tail_start: int | None = None

    def sgd_params(self) -> SGDParams:
        return SGDParams(
            alpha=self.alpha, beta=self.beta, gamma=self.gamma, batch=self.batch,
            tau1=self.tau1, tau2=self.tau2, steps=self.steps,
        )

    def echo(self) -> dict:
        return json_ready(self.__dict__)


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return text.lower() == "true"


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid spec is not of the form lo:hi:n")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1 or hi < lo:
        raise ValueError("grid spec needs hi >= lo and n >= 1")
    return lo, hi, n


def _parse_dims(text: str) -> tuple[int, int]:
    d, n = (int(x) for x in text.split(","))
    return d, n


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


# field type (without "| None") -> parser of the string a flag or a config file gives
_PARSERS = {
    "float": float, "int": int, "str": str, "bool": _parse_bool,
    "tuple[float, float, int]": _parse_grid, "tuple[int, int]": _parse_dims, "list[int]": _parse_ints,
}
_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
_VALUE_FLAGS = {"--" + name.replace("_", "-") for name, f in _FIELDS.items() if f.type != "bool"}


def _parse_value(key: str, text: str):
    try:
        return _PARSERS[_FIELDS[key].type.removesuffix(" | None")](text)
    except ValueError as exc:
        raise ValidationError(f"bad value {text!r} for {key}: {exc}") from None


def _read_config_file(path: str) -> dict[str, str]:
    """Flat key = value file, a TOML-compatible subset: no sections, no nesting."""
    values: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = re.match(r'(?:[^"#]|"[^"]*(?:"|$))*', raw).group().strip()  # "#" outside quotes: comment
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key not in _FIELDS:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        if val.startswith('"'):
            if not re.fullmatch(r'"[^"]*"', val):
                raise ValidationError(f"{path}:{lineno}: unterminated quoted value in {raw!r}")
            val = val[1:-1]
        values[key] = val
    return values


def _build_argparser() -> argparse.ArgumentParser:
    # flags keep their strings (absent ones stay out of the namespace) for _parse_value
    p = argparse.ArgumentParser(
        prog="sgdphaselab",
        description="Mini-batch SGD with momentum on quadratic problems: simulate and analyze.",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("command", nargs="?", choices=COMMANDS, default=None)
    p.add_argument("--config", help="flat key = value config file; flags override it")
    for f in fields(ExperimentConfig)[1:]:  # [0] is the positional command
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            p.add_argument(flag, action="store_const", const="true", **f.metadata)
        else:
            p.add_argument(flag, **f.metadata)
    return p


def parse_config(argv: list[str]) -> ExperimentConfig:
    """Merge flags over an optional config file into a validated ExperimentConfig."""
    argv = list(argv)  # argparse takes "-0.5:0.9:4" or "-1e-3" for a flag: glue it on with "="
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in _VALUE_FLAGS and re.match(r"-\.?\d", argv[i]):
            argv[i - 1 : i + 1] = [argv[i - 1] + "=" + argv[i]]
    given = vars(_build_argparser().parse_args(argv))
    texts = _read_config_file(given.pop("config")) if "config" in given else {}
    texts.update((key, text) for key, text in given.items() if text is not None)
    command = texts.pop("command", None)
    if command not in COMMANDS:
        raise ValidationError(f"missing or unknown command {command!r}; choose from {COMMANDS}")
    values = {key: _parse_value(key, text) for key, text in texts.items()}
    if "steps" not in values:
        reduced_map = command == "stability-map" and not values.get("full_scale", False)
        values["steps"] = 1000 if reduced_map else 10_000
    cfg = ExperimentConfig(command=command, **values)

    sources = [cfg.nu is not None or cfg.kappa is not None, cfg.csv is not None,
               cfg.torus is not None, cfg.random_features is not None]
    if sum(sources) > 1:
        raise ValidationError("conflicting problem sources: give exactly one of "
                              "power-law (--nu/--kappa), --csv, --torus, --random-features")
    cfg.sgd_params()  # SGDParams rejects alpha, beta, gamma, batch, taus and steps out of range
    if cfg.runs < 1 or cfg.modes < 2:
        raise ValidationError("runs and modes must be positive (modes >= 2)")
    if not 0 <= cfg.seed < 2**64:  # the Philox key of run_mc
        raise ValidationError(f"--seed must be an integer in [0, 2^64), got {cfg.seed}")
    if not 0.0 < cfg.kernel_scale < math.inf:
        raise ValidationError(f"--kernel-scale must be finite and positive, got {cfg.kernel_scale}")
    regimes = cfg.regime.split(",")
    for r in regimes:
        if r not in REGIMES:
            raise ValidationError(f"unknown regime {r!r}; choose from {REGIMES}")
    for key, items in (("regime", regimes), ("batch-list", cfg.batch_list or [])):
        if len(set(items)) < len(items):  # each run writes trajectory_<item>.csv
            raise ValidationError(f"--{key} repeats a value: {items}")
    if cfg.batch_list and regimes != ["se"]:
        raise ValidationError(f"--batch-list runs the se regime per batch size; --regime {cfg.regime} cannot join it")
    for key, value, deaf in (("gamma", cfg.gamma, ("mc",)), ("dataset-size", cfg.dataset_size, ("mc", "moments"))):
        clash = [r for r in deaf if r in regimes]
        if value is not None and clash:
            raise ValidationError(f"--{key} does not reach the {clash[0]} regime, which runs on the problem's samples")
    return cfg


# ---------------------------------------------------------------------------
# problem construction


def _periodic_kernel(n: int, scale: float) -> np.ndarray:
    """Exponential kernel on the circle; strictly PSD and well conditioned."""
    x = 2.0 * np.pi * np.arange(n) / n
    return np.exp(-np.abs(2.0 * np.sin(x / 2.0)) / scale)


def _build_problem(cfg: ExperimentConfig) -> tuple[Spectrum, FeatureProblem | None]:
    """The configured source's spectrum, and its feature problem for --torus and --random-features."""
    if cfg.csv is not None:
        return load_spectrum_csv(cfg.csv), None
    if cfg.torus is not None:
        if cfg.torus < 1:
            raise ValidationError("--torus needs a positive grid size")
        w0 = np.random.default_rng(cfg.seed).normal(size=cfg.torus)
        torus = build_torus_problem((cfg.torus,), _periodic_kernel(cfg.torus, cfg.kernel_scale), w0=w0)
        return torus.spectrum(), torus.feature_problem
    if cfg.random_features is not None:
        d, n = cfg.random_features
        if d < 1 or n < 1:
            raise ValidationError("--random-features dimensions must be positive")
        rng = np.random.default_rng(cfg.seed)
        problem = FeatureProblem.create(rng.normal(size=(d, n)), np.zeros(d), rng.normal(size=d))
        return eigendecompose(problem).spectrum, problem
    if cfg.nu is None or cfg.kappa is None:
        raise ValidationError("power-law source needs both --nu and --kappa")
    return build_power_law(PowerLawSpec(cfg.Lambda, cfg.nu, cfg.K, cfg.kappa, cfg.modes, cfg.c0_mode)), None


def _features(problem: FeatureProblem | None) -> FeatureProblem:
    if problem is None:
        raise ValidationError("this command needs an explicit feature problem: --torus or --random-features")
    return problem


def _se_params(cfg: ExperimentConfig, spectrum: Spectrum, **changes) -> SGDParams:
    """An SE run's parameters: gamma resolved against the dataset size, no batch."""
    params = cfg.sgd_params().with_(**changes)
    n = cfg.dataset_size if cfg.dataset_size is not None else spectrum.dataset_size
    return params.with_(gamma=params.resolve_gamma(n), batch=None)


# ---------------------------------------------------------------------------
# emission


def _json(obj) -> str:
    return json.dumps(json_ready(obj), indent=2, sort_keys=True) + "\n"


def _trajectory_files(name: str, cfg: ExperimentConfig, traj, spectrum: Spectrum) -> list:
    """``trajectory_<name>.csv``, written by ``traj.save_csv``, and its ``.meta.json`` sidecar."""
    doc = {
        "parameters": traj.metadata,
        "seed": cfg.seed,
        "diverged": traj.diverged_at is not None,
        "diverged_at": traj.diverged_at,
    }
    if "tail_estimates" in spectrum.meta:
        doc["truncation_tail_estimate"] = spectrum.meta["tail_estimates"]
    return [(f"trajectory_{name}.csv", traj.save_csv), (f"trajectory_{name}.meta.json", _json(doc))]


def _check_out(out: Path) -> None:
    """``--out`` must be a writable directory or creatable in one; nothing is created here."""
    base = next(d for d in (out, *out.parents) if os.path.lexists(d))  # a dangling link blocks too
    if not (base.is_dir() and os.access(base, os.W_OK)):
        raise ValidationError(f"--out {out}: {base} is not a writable directory")


def _emit(cfg: ExperimentConfig, files: list, start: float) -> None:
    """Write a finished command's files into ``--out``, then ``manifest.json`` with their checksums.

    Each file is ``(name, content)``: the text, or a writer called with the file's path.
    """
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    listed = []
    for name, content in files:
        p = out / name
        if callable(content):
            content(p)
        else:
            p.write_text(content, encoding="utf-8")
        data = p.read_bytes()
        listed.append({"path": name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)})
    (out / "manifest.json").write_text(_json({
        "tool": "sgdphaselab",
        "version": __version__,
        "command": cfg.command,
        "config": cfg.echo(),
        "seed": cfg.seed,
        "wall_time_s": time.monotonic() - start,
        "files": listed,
    }), encoding="utf-8")


def _positive_series(losses: np.ndarray):
    t = np.arange(len(losses))
    keep = (t >= 1) & (losses > 0)
    return t[keep], losses[keep]


# ---------------------------------------------------------------------------
# commands


def _cmd_simulate(cfg: ExperimentConfig) -> list:
    spectrum, problem = _build_problem(cfg)
    # (file name, plot label, x scale, trajectory) per run
    if cfg.batch_list:  # SE runs per batch size, each with its gamma, plotted against the budget b*t
        runs = [(f"se_b{b}", f"b={b}", b, run_se(spectrum, _se_params(cfg, spectrum, batch=int(b), gamma=None)))
                for b in cfg.batch_list]
        chart, title, xlabel = "budget_scaling.svg", "loss vs compute budget b*t", "b*t"
    else:
        regimes = {
            "se": lambda: run_se(spectrum, _se_params(cfg, spectrum)),
            "noiseless": lambda: run_noiseless(spectrum, cfg.sgd_params()),
            "mc": lambda: run_mc(_features(problem), cfg.sgd_params(), cfg.runs, cfg.seed),
            "moments": lambda: run_full_moments(_features(problem), cfg.sgd_params()),
        }
        runs = [(regime, regime, 1, regimes[regime]()) for regime in cfg.regime.split(",")]
        chart, title, xlabel = "trajectories.svg", "loss trajectories", "t"
    files, series = [], []
    for name, label, scale, traj in runs:
        files += _trajectory_files(name, cfg, traj, spectrum)
        ts, ls = _positive_series(traj.losses)
        if ts.size:
            series.append((label, scale * ts, ls))
    if cfg.plot and series:
        files.append((chart, svg.loglog_chart(series, title=title, xlabel=xlabel)))
    return files


def _stability_grids(cfg: ExperimentConfig):
    ga, gb = ((0.04, 4.0, 100), (0.0, 0.98, 50)) if cfg.full_scale else ((0.1, 4.0, 40), (0.0, 0.95, 20))
    alphas, betas = np.linspace(*(cfg.grid_alpha or ga)), np.linspace(*(cfg.grid_beta or gb))
    try:  # the grid's corners lie in the SGD domain: alpha > 0, -1 < beta < 1
        for k in (0, -1):
            SGDParams(float(alphas[k]), float(betas[k]))
    except ValidationError as exc:
        raise ValidationError(f"--grid-alpha/--grid-beta: {exc}") from None
    return alphas, betas


def _cmd_stability_map(cfg: ExperimentConfig) -> list:
    alphas, betas = _stability_grids(cfg)
    spectrum, _ = _build_problem(cfg)
    gamma = _se_params(cfg, spectrum).gamma

    u1 = np.full((alphas.size, betas.size), math.nan)
    boundary = np.empty(betas.size)
    for j, beta in enumerate(betas):
        # the critical alpha does not depend on the context's alpha, but that must lie in beta's window
        in_window = min(alphas[0], (1.0 + beta) / spectrum.lambda_max)
        rep = stability_report(_analysis_context(cfg, spectrum, in_window, beta, gamma))
        boundary[j] = rep.alpha_eff_critical * (1.0 - beta) if rep.valid else math.nan
        for i, alpha in enumerate(alphas):
            ctx = _analysis_context(cfg, spectrum, alpha, beta, gamma)
            if not ctx.violations():
                u1[i, j] = eval_U1(ctx)

    grid = run_se_grid(spectrum, alphas, betas, gamma, cfg.tau1, cfg.tau2, cfg.steps)
    final, diverged = grid["final_loss"], grid["diverged_at"]

    lines = ["alpha,beta,final_loss,predicted_U1,predicted_boundary"]
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate(betas):
            fl = final[i, j] if diverged[i, j] < 0 else math.inf
            lines.append(
                f"{_csv_float(alpha)},{_csv_float(beta)},{_csv_float(fl)},"
                f"{_csv_float(u1[i, j])},{_csv_float(boundary[j])}"
            )
    files = [("stability_map.csv", "\n".join(lines) + "\n")]
    if cfg.plot:
        cells = np.where(diverged >= 0, math.nan, final)
        pts = [(boundary[j], betas[j]) for j in range(betas.size) if math.isfinite(boundary[j])]
        files.append(("stability_map.svg", svg.heatmap_chart(
            alphas, betas, cells, boundary=pts,
            title="final loss over (alpha, beta); dark = diverged",
        )))
    return files


def _analysis_context(cfg: ExperimentConfig, spectrum: Spectrum, alpha, beta, gamma: float) -> GenFuncContext:
    """A command's analysis point: genfunc takes tau2 as its tau and fixes tau1 = 1."""
    if cfg.tau1 != 1.0:
        raise AnalysisDomainError(f"tau1 = {cfg.tau1!r}: the generating-function analysis needs tau1 = 1")
    return GenFuncContext(spectrum, float(alpha), float(beta), gamma, cfg.tau2)


def _csv_float(x: float) -> str:
    return repr(float(x))  # "nan", "inf" and "-inf" for the non-finite values


def _fit_for(cfg: ExperimentConfig, spectrum: Spectrum):
    tail = cfg.tail_start if cfg.tail_start is not None else max(1, len(spectrum) // 4)
    return fit_power_law(spectrum, tail)


def _cmd_divergence(cfg: ExperimentConfig) -> list:
    spectrum, _ = _build_problem(cfg)
    params = _se_params(cfg, spectrum)
    ctx = _analysis_context(cfg, spectrum, cfg.alpha, cfg.beta, params.gamma)
    div = solve_divergence(ctx)
    report = div.as_dict()
    fit = _fit_for(cfg, spectrum)
    report["fit"] = fit.as_dict()
    try:
        blow = blowup_time(ctx, fit, div)
        report["blowup"] = blow.as_dict()
    except AnalysisDomainError as exc:
        report["blowup"] = {"not_applicable": str(exc)}

    traj = run_se(spectrum, params)
    files = [*_trajectory_files("se", cfg, traj, spectrum), ("divergence_report.json", _json(report))]
    if cfg.plot:
        ts, ls = _positive_series(traj.losses)
        times = (("t_div", div.t_div), ("t_blowup", report["blowup"].get("t_blowup", math.inf)))
        markers = [(name, t, float(np.interp(t, ts, ls))) for name, t in times if t < len(traj.losses)]
        files.append(("divergence.svg", svg.loglog_chart(
            [("se", ts, ls)],
            guides=[(-fit.zeta, 1.0, traj.losses[0], "early branch slope")],
            markers=markers, title="divergent trajectory",
        )))
    return files


def _cmd_asymptotics(cfg: ExperimentConfig) -> list:
    spectrum, _ = _build_problem(cfg)
    params = _se_params(cfg, spectrum)
    ctx = _analysis_context(cfg, spectrum, cfg.alpha, cfg.beta, params.gamma)
    fit = _fit_for(cfg, spectrum)
    report = loss_asymptote(ctx, fit)
    doc = report.as_dict()
    doc["fit"] = fit.as_dict()

    # empirical check of the pointwise power-law form: simulate and fit the
    # last-decade slope rather than asserting the asymptote holds
    traj = run_se(spectrum, params)
    t = np.arange(len(traj.losses))
    window = (t >= max(1, cfg.steps // 10)) & (traj.losses > 0)
    if traj.diverged_at is None and np.count_nonzero(window) >= 8:
        slope, level = np.polyfit(np.log(t[window]), np.log(traj.losses[window]), 1)
        doc["empirical"] = {
            "slope": slope,
            "predicted_exponent": report.exponent,
            "slope_gap": slope - report.exponent,
            "window_start": int(t[window][0]),
            "window_end": int(t[window][-1]),
        }
    else:
        doc["empirical"] = {"note": "trajectory diverged or window too short"}
    files = [("asymptote_report.json", _json(doc))]
    if cfg.plot:
        ts, ls = _positive_series(traj.losses)
        t_ref = float(ts[-1])
        files.append(("asymptotics.svg", svg.loglog_chart(
            [("se", ts, ls)],
            guides=[(report.exponent, t_ref, report.constant * t_ref**report.exponent,
                     f"slope {report.exponent:.3g}")],
            title="loss vs analytic asymptote",
        )))
    return files


def _cmd_phase_diagram(cfg: ExperimentConfig) -> list:
    grid = np.linspace(0.125, 3.0, 24)  # both axes: 1/nu and zeta
    lines = ["nu,zeta,phase,exponent,constant"]
    for inv_nu in grid:
        nu = 1.0 / inv_nu
        for zeta in grid:
            phase = classify_phase(nu, zeta)
            branches = {PhaseLabel.SIGNAL_DOMINATED: -zeta, PhaseLabel.NOISE_DOMINATED: 1.0 / nu - 2.0}
            exponent = constant = math.nan
            if phase in branches:
                exponent = branches[phase]
                spec = build_power_law(
                    PowerLawSpec(cfg.Lambda, nu, cfg.K, zeta * nu, cfg.modes, cfg.c0_mode)
                )
                # --gamma, else --batch against the dataset size (1/b on these infinite spectra), else 0.1
                gamma = 0.1 if cfg.gamma is None and cfg.batch is None else _se_params(cfg, spec).gamma
                ctx = _analysis_context(cfg, spec, cfg.alpha, cfg.beta, gamma)
                if not ctx.violations() and eval_U1(ctx) < 1.0:
                    # the spectrum is an exact power law, so its exponents are known
                    fit = PowerLawFit(cfg.Lambda, nu, cfg.K, zeta * nu, 1, 0.0, 0.0)
                    try:
                        constant = loss_asymptote(ctx, fit).constant
                    except AnalysisDomainError:
                        constant = math.nan
            lines.append(
                f"{_csv_float(nu)},{_csv_float(zeta)},{phase.value},"
                f"{_csv_float(exponent)},{_csv_float(constant)}"
            )
    return [("phase_diagram.csv", "\n".join(lines) + "\n")]


def _cmd_fit(cfg: ExperimentConfig) -> list:
    spectrum, _ = _build_problem(cfg)
    fit = _fit_for(cfg, spectrum)
    doc = fit.as_dict()
    doc["modes"] = len(spectrum)
    doc["phase"] = classify_phase(fit.nu, fit.zeta).value
    files = [("power_law_fit.json", _json(doc))]
    if cfg.plot:
        k = np.arange(1, len(spectrum) + 1, dtype=float)
        files.append(("spectrum_fit.svg", svg.loglog_chart(
            [("lambda_k", k, spectrum.lambdas),
             ("S_k", k, spectrum.partial_weight_sums())],
            guides=[(-fit.nu, 1.0, fit.Lambda, f"slope -{fit.nu:.3g}"),
                    (-fit.kappa, 1.0, fit.K, f"slope -{fit.kappa:.3g}")],
            title="spectrum power-law fit", xlabel="k", ylabel="value",
        )))
    return files


def _cmd_se_error(cfg: ExperimentConfig) -> list:
    problem = _features(_build_problem(cfg)[1])
    report = se_fit_error(problem, problem.initial_second_moment(), cfg.tau1, cfg.tau2)
    return [("se_error.json", _json(report.as_dict()))]


_DISPATCH = {
    "simulate": _cmd_simulate,
    "stability-map": _cmd_stability_map,
    "divergence": _cmd_divergence,
    "asymptotics": _cmd_asymptotics,
    "phase-diagram": _cmd_phase_diagram,
    "fit": _cmd_fit,
    "se-error": _cmd_se_error,
}


COMMANDS = tuple(_DISPATCH)


def main(argv: list[str] | None = None) -> int:
    """Parse the flags, run the command and emit its files; returns the process exit code."""
    start = time.monotonic()
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        _check_out(Path(cfg.out))
        files = _DISPATCH[cfg.command](cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AnalysisDomainError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        detail = " ".join(str(exc).split())
        print(f"error: out of memory{': ' + detail if detail else ''}", file=sys.stderr)
        return 4
    _emit(cfg, files, start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
