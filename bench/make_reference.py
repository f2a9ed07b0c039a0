"""Regenerate bench/reference.json: the answers of the reference seed.

Usage (from the repository root):

    python3 bench/make_reference.py

Runs one untraced sweep of every workload on the reference seed, cross-checks
every answer that has an affordable brute-force oracle in tests/oracles.py
(images of at most 4 points, arity at most 3), and writes the answers.
Run it only when an answer is meant to change, and say why in the commit.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_SEED = 0

sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402


def oracle_check(workload: str, answers: dict) -> list[str]:
    """Ids whose answers the oracles confirmed; raises on any disagreement."""
    import oracles
    import workloads

    checked = []
    for q in workloads.build_library(workload, REFERENCE_SEED, tiny=False):
        if q.oracle is None:
            continue
        expected = q.oracle(oracles)
        got = {k: answers[q.qid].get(k) for k in expected}
        if got != expected:
            raise SystemExit(f"{workload} {q.qid}: answer {got} but oracle says {expected}")
        checked.append(q.qid)
    return checked


def main() -> int:
    out = {"seed": REFERENCE_SEED, "oracle_checked": {}, "workloads": {}}
    workdir = ROOT / ".bench_work" / "reference"
    for workload in run.WORKLOADS:
        try:
            sweep = run.run_sweep(workload, REFERENCE_SEED, False, False, workdir)
        finally:
            shutil.rmtree(ROOT / ".bench_work", ignore_errors=True)
        if sweep["problems"]:
            raise SystemExit(f"{workload}: invariants fail: {sweep['problems']}")
        answers = sweep["answers"]
        if workload != "cli-batch":
            out["oracle_checked"][workload] = oracle_check(workload, answers)
        out["workloads"][workload] = answers
        print(f"{workload}: {len(answers)} answers, "
              f"{len(out['oracle_checked'].get(workload, []))} confirmed by oracles")
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
