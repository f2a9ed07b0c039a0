"""Self-tests of the benchmark itself.

Usage (from the repository root):

    python3 bench/selftest.py

1. Smoke: a tiny run of every workload, untraced and traced, must print
   every metric that BENCHMARK.json names, with its unit.
2. A corrupted reference answer must make the run exit nonzero: a fixture
   answer on the reference seed, and a seeded answer on another seed.
3. Determinism: two traced runs on one seed must give identical counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0


def bench(workload: str, trace: int, *extra: str, seed: int = SEED) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    for item in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = bench(item["name"], trace)
            if code != 0 or result is None or not result["correct"]:
                failures.append(f"{item['name']} trace={trace}: exit {code}")
                continue
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    failures.append(f"{item['name']} trace={trace}: {metric['name']} "
                                    f"missing or not in {metric['unit']}")
            print(f"smoke {item['name']} trace={trace}: ok")

    for prefix, seed in (("fx/", SEED), ("sd/", SEED + 1)):
        reference = json.loads((HERE / "reference.json").read_text())
        answers = reference["workloads"]["equalizer-sweep"]
        qid = next(q for q in answers if q.startswith(prefix) and "values" in answers[q])
        answers[qid]["values"] = answers[qid]["values"][:-1]
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as handle:
            json.dump(reference, handle)
        try:
            code, result = bench("equalizer-sweep", 0, "--reference", handle.name, seed=seed)
        finally:
            Path(handle.name).unlink()
        if code == 0 or result is None or result["correct"]:
            failures.append(f"corrupted reference for {qid} on seed {seed} was not caught (exit {code})")
        else:
            print(f"corrupted reference answer for {qid} on seed {seed}: caught, exit {code}")

    counts = []
    for _ in range(2):
        code, result = bench("homotopy-closure", 1)
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"})
    if counts[0] != counts[1]:
        failures.append(f"traced counts differ between runs: {counts}")
    else:
        print(f"determinism: {len(counts[0])} traced counts repeat exactly")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
