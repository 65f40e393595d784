"""One workload iteration in a fresh process; run.py starts it and reads its result file.

``--t0`` is the CLOCK_MONOTONIC time at which the parent started this process,
so ``setup_s`` covers interpreter start, ``import sgdphaselab`` and input
generation. ``wall_s`` runs from the first command's start to the last
command's return; the output checks run after it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
import warnings
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import tracing  # noqa: E402  (tracing and workloads need the source tree on sys.path)
import workloads  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--profile", choices=workloads.PROFILES, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--run-id", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    ref = workloads.load_reference(args.profile).get(args.workload, {})
    commands = workloads.build(args.workload, args.seed, args.profile, args.out, ref)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(args.run_id)
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    result: dict = {"versions": {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version')}"}}

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tracing.installed(tracer) if tracer else nullcontext():
            start = time.monotonic()
            result["setup_s"] = start - args.t0
            if args.setup_only:
                return _write(args.out, result)
            succeeded = [command.run() for command in commands]
            result["wall_s"] = time.monotonic() - start
    result["runtime_warnings"] = sum(issubclass(w.category, RuntimeWarning) for w in caught)

    attempted, failed, changed = 0, [], 0
    for command, ok in zip(commands, succeeded):
        items = []
        if ok:
            try:
                checked = command.check(ref.get(command.name))
                items = checked.items
                recorded = ref.get(command.name, {}).get("digests", {})
                changed += sum(checked.digests.get(f) != d for f, d in recorded.items())
            except Exception:  # unreadable or malformed outputs fail the command's items
                traceback.print_exc(file=sys.stderr)
        if len(items) != command.items:
            items = [(f"{command.name}:all", False)] * command.items
        attempted += len(items)
        failed += [item for item, passed in items if not passed]
    result.update(attempted=attempted, failed=failed, artifacts_changed=changed)

    if tracer:
        agg = tracing.aggregate(tracer.spans)
        missing = [n for n in workloads.REQUIRED_SPANS[args.workload] if n not in agg]
        if missing:
            print(f"error: traced run recorded no spans for {', '.join(missing)}", file=sys.stderr)
            return 1
        threads = int(os.environ.get("SGDPHASELAB_THREADS", "1"))
        result["layers"] = tracing.layer_metrics(tracer, threads, tracing.serial_grid_seconds(tracer))
        result["spans"] = {name: {k: e[k] for k in ("calls", "threads", "wall_s", "self_s")}
                           for name, e in agg.items()}
    return _write(args.out, result)


def _write(out: Path, result: dict) -> int:
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
