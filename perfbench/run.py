#!/usr/bin/env python3
"""sgdphaselab benchmark: run one workload, time it, check its outputs, print metrics.

Run from the repository root:

    python3 perfbench/run.py --workload stability-sweep --seed 0 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): stability-sweep,
long-horizon, feature-validation, oracle. Each iteration of a workload runs
in a fresh process (child.py), so every iteration pays set-up the way a CLI
user does. Iterations repeat while the next one should end within
``--seconds``, and at least MIN_ITERATIONS run.

``--trace 0`` prints the end-to-end metrics, as medians over the iterations:
``wall_s`` (first command start to last artifact written), ``setup_s``
(process start to first command, at least SETUP_SAMPLES samples) and
``peak_rss_mb`` (peak resident memory of the iteration's process).
``--trace 1`` alternates untraced and traced iterations and prints the
per-layer metrics of BENCHMARK.json, averaged over the traced iterations,
with ``trace.overhead_frac`` from the two kinds' median wall times.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
``failed`` counts checked items (grid cell, phase cell, trajectory, report,
oracle point) that failed; ``correct`` is false when an item fails that is
not a known failure recorded in reference.json. ``--smoke`` runs tiny sizes,
for the benchmark's own tests. Exits non-zero without a result when the
sources are missing or an iteration cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stability-sweep", "long-horizon", "feature-validation", "oracle")
MIN_ITERATIONS = 2
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s


class BenchError(RuntimeError):
    pass


def _threads() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict[str, str]:
    """Live compute threads never exceed the CPUs: the sweep pool gets one thread
    per CPU and OpenBLAS (numpy's BLAS) one thread in total."""
    env = dict(os.environ)
    env.update(SGDPHASELAB_THREADS=str(_threads()), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else None
    return ref


def environment(args, env: dict[str, str], versions: dict) -> dict:
    return {
        "machine": platform.machine(), "platform": platform.platform(), "cpus": _threads(),
        "python": platform.python_version(), **versions,
        "threads": {k: env[k] for k in ("SGDPHASELAB_THREADS", "OPENBLAS_NUM_THREADS",
                                          "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": _git_sha(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "profile": "smoke" if args.smoke else "full",
    }


class Runner:
    def __init__(self, args, work: Path, env: dict[str, str], deadline: float):
        self.args = args
        self.work = work
        self.env = env
        self.deadline = deadline
        self.count = 0
        self.last_duration = 0.0  # spawn to exit of the latest process, to plan the next

    def spawn(self, traced: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        out = self.work / f"it{self.count}"
        out.mkdir()
        a = self.args
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", a.workload, "--seed", str(a.seed),
               "--profile", "smoke" if a.smoke else "full", "--out", str(out),
               "--run-id", f"{a.workload}:{a.seed}:{self.count}"]
        cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
        with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
            t0 = time.monotonic()
            proc = subprocess.Popen([*cmd, "--t0", repr(t0)], stdout=so, stderr=se, env=self.env, cwd=ROOT)
            try:
                while True:  # wait4, not wait: the rusage of this child alone gives its peak RSS
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.monotonic() > self.deadline:
                        raise BenchError("iteration did not finish within the run limit")
                    time.sleep(0.02)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise
        self.last_duration = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = (out / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchError(f"iteration exited with {proc.returncode}:\n{tail}")
        result = json.loads((out / "result.json").read_text(encoding="utf-8"))
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
        return result


def _summary(name: str, values: list[float], unit: str) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    tail = f"p{100 * (n - 10) / n:.0f}={ordered[n - 11]:.6g}" if n >= 11 else "p_hi=n/a (n<11)"
    samples = " ".join(f"{v:.4g}" for v in values)
    return f"{name:<16} median={statistics.median(ordered):.6g} {unit}  n={n}  {tail}  samples: {samples}"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # stop the running iteration too

    if not (ROOT / "src" / "sgdphaselab" / "__init__.py").is_file():
        print(f"error: no sgdphaselab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    known = set(reference["smoke" if args.smoke else "full"]["known_failures"])

    started = time.monotonic()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    runner = Runner(args, work, env, started + RUN_LIMIT_S)
    try:
        iterations, traced = [], []

        def enough() -> bool:
            if args.trace:
                return bool(iterations and traced)
            return len(iterations) >= MIN_ITERATIONS

        # start another iteration only if it should end within --seconds
        end = started + args.seconds
        while not enough() or time.monotonic() + runner.last_duration <= end:
            if args.trace and len(traced) < len(iterations):
                traced.append(runner.spawn(traced=True))
            else:
                iterations.append(runner.spawn())
        setups = [r["setup_s"] for r in iterations]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(runner.spawn(setup_only=True)["setup_s"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    everything = iterations + traced
    attempted = sum(r["attempted"] for r in everything)
    failed = [item for r in everything for item in r["failed"]]
    correct = set(failed) <= known
    wall = [r["wall_s"] for r in iterations]
    rss = [r["peak_rss_mb"] for r in iterations]
    print(_summary("wall_s", wall, "s"))
    if not args.trace:
        print(_summary("setup_s", setups, "s"))
    print(_summary("peak_rss_mb", rss, "MB"))
    print(f"{'failed_ops_frac':<16} {len(failed) / attempted:.6g} ratio  ({len(failed)} of {attempted} "
          f"items; known failures: {len(set(failed) & known)} distinct)")
    if args.trace:
        print(f"{'span (last traced iteration)':<34} {'calls':>7} {'threads':>7} {'wall_s':>10} {'self_s':>10}")
        for name, e in sorted(traced[-1]["spans"].items()):
            print(f"{name:<34} {e['calls']:>7} {e['threads']:>7} {e['wall_s']:>10.4f} {e['self_s']:>10.4f}")
    print(json.dumps({"environment": environment(args, env, iterations[0]["versions"])}))

    if args.trace:
        metrics_in = {key: statistics.fmean(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
        metrics_in["health.runtime_warnings"] = statistics.fmean(r["runtime_warnings"] for r in everything)
        metrics_in["cli.artifacts_changed"] = statistics.fmean(r["artifacts_changed"] for r in everything)
        metrics_in["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced) / statistics.median(wall) - 1.0)
        metrics_in["failed_ops_frac"] = len(failed) / attempted
        listed = spec["per_layer"]
    else:
        metrics_in = {"wall_s": statistics.median(wall), "setup_s": statistics.median(setups),
                      "peak_rss_mb": statistics.median(rss)}
        listed = spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics_in]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": metrics_in[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
