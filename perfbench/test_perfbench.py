"""The benchmark's own tests: every workload path at smoke sizes, traced and untraced.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_sources():
    bare = ROOT / ".perfbench_work" / "no-sources"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_traced_run_fails_loudly_when_a_layer_records_no_spans(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    monkeypatch.setitem(workloads.REQUIRED_SPANS, "oracle", ("simulate.run_mc",))
    monkeypatch.setattr(sys, "argv", ["child.py", "--workload", "oracle", "--seed", "0", "--profile", "smoke",
                                      "--t0", "0", "--run-id", "t", "--trace", "--out", "unused"])
    import child

    assert child.main() == 1


def _import_tracing():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracing

    return tracing


def test_wrappers_cover_every_namespace_and_are_removed_after():
    tracing = _import_tracing()
    from sgdphaselab import asymptotics, cli, genfunc, numerics, simulate

    originals = (cli.run_se_grid, asymptotics.eval_U1, genfunc.bisect_monotone, cli._DISPATCH["divergence"])
    with tracing.installed(tracing.Tracer("t")):
        assert cli.run_se_grid is simulate.run_se_grid is not originals[0]
        assert asymptotics.eval_U1 is genfunc.eval_U1 is not originals[1]
        assert genfunc.bisect_monotone is numerics.bisect_monotone is not originals[2]
        assert cli._DISPATCH["divergence"] is not originals[3]
    assert (cli.run_se_grid, asymptotics.eval_U1, genfunc.bisect_monotone, cli._DISPATCH["divergence"]) == originals


def test_self_time_subtracts_the_union_of_parallel_children():
    tracing = _import_tracing()
    spans = [tracing.Span(0, "parent", None, 1, "r", 0, 100),
             tracing.Span(1, "child", 0, 2, "r", 10, 60),   # two worker threads overlap
             tracing.Span(2, "child", 0, 3, "r", 40, 80)]
    agg = tracing.aggregate(spans)
    assert agg["parent"]["self_s"] == pytest.approx(30e-9)
    assert agg["child"] == {"calls": 2, "threads": 2, "wall_s": pytest.approx(90e-9),
                            "self_s": pytest.approx(90e-9)}
