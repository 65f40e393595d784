"""Record reference.json: the deterministic outputs of the fixed-input commands.

Run once, from the repository root, at a commit whose outputs are taken as
correct; later commits are checked against it (numbers within 1e-10
relative, artifact digests counted but not gated):

    python3 perfbench/record.py

Items that fail their checks on the recorded outputs themselves are stored
as ``known_failures``: program defects at the recording commit, reported in
``failed`` by every run but not turned into ``correct: false``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the source tree on sys.path)
from sgdphaselab import cli  # noqa: E402

FIXED_INPUT_WORKLOADS = ("stability-sweep", "long-horizon")


def record(profile: str, work: Path) -> dict:
    ref: dict = {}
    for workload in FIXED_INPUT_WORKLOADS:
        ref[workload] = {}
        for name, argv in workloads.cli_argv(workload, profile, seed=0):
            if cli.main([*argv, "--out", str(work / name)]) != 0:
                raise SystemExit(f"{profile} {name} failed; nothing recorded")
            ref[workload][name] = workloads.extract(name, work / name)
    known = []
    for workload in FIXED_INPUT_WORKLOADS:
        for command in workloads.build(workload, 0, profile, work, ref[workload]):
            known += [item for item, ok in command.check(ref[workload][command.name]).items if not ok]
    ref["known_failures"] = known
    return ref


def main() -> int:
    work = ROOT / ".perfbench_work" / "record"
    try:
        doc = {profile: record(profile, work / profile) for profile in workloads.PROFILES}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    for profile in workloads.PROFILES:
        print(f"{profile}: known failures {doc[profile]['known_failures']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
