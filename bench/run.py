"""digitop benchmark: one workload, closed loop, one caller, no threads.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sweep answers every query of the workload once in a fresh worker
process, so no cache outlives a sweep and peak memory is per process.
Sweeps repeat until ``--seconds`` have passed. On a shared host the same
query runs up to twice as slow from one second to the next, as neighbours
load the machine, so the worker times a fixed pure-Python probe
(``hostspeed``) between queries and scales each query's time to the
reference host speed by the probes next to it. A query's time is the median
of its scaled times over the sweeps. ``run_s`` sums these times;
``query_p50_s`` and ``query_p90_s`` are taken over them, one sample per
distinct query (at least 100 per workload). After each sweep,
``SETUP_REPEATS`` more fresh processes only set up; ``setup_s`` is the median
of all the run's scaled set-up times. ``peak_rss_mb`` is the median over the
sweeps. The unscaled figures are printed too. Every answer is checked:
against the committed reference (in full on the reference seed and for
fixture queries; on other seeds, seeded queries in their label-free
fields), against seed-free invariants, and for equality across sweeps. A
query that fails where the reference answer is exact is a wrong answer.
Human-readable lines come first; the last stdout line is one JSON object.
Any wrong answer prints ``"correct": false`` and exits 1.

With ``--trace 1`` sweeps alternate untraced and traced, and the result
holds the per-layer metrics of the traced sweeps plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("equalizer-sweep", "homotopy-closure", "class-minima", "cli-batch")
SWEEP_TIMEOUT_S = 150
RUN_LIMIT_S = 150  # stop starting sweeps well inside the 180 s a run may take
MIN_SWEEPS = 3  # cli-batch sweeps take ~13 s, so a cli-batch run is ~40 s
SETUP_REPEATS = 3
# answer fields that name points, so they change when a seed relabels an image
LABELLED_FIELDS = ("members", "stdout")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "peak_rss_mb": "MB",
}
COUNT_METRICS = (
    "enumeration.calls", "enumeration.nodes", "enumeration.maps_out",
    "homotopy.calls", "homotopy.class_members", "homotopy.inner_enumerations",
    "spectra.calls", "spectra.pool_maps", "homotopy_spectra.calls",
    "verify.calls", "verify.reports", "fileio.calls", "cli.calls",
)
TIME_METRICS = (
    "enumeration.self_s", "homotopy.self_s", "spectra.self_s", "homotopy_spectra.self_s",
    "verify.self_s", "fileio.self_s", "cli.self_s", "cli.import_s",
)
RATIO_METRICS = ("enumeration.yield", "homotopy.new_share")


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def is_fixture(qid: str) -> bool:
    return qid.startswith("fx/")


def failed(answer: dict) -> bool:
    """A query fails when it raised, gave an inexact answer, or exited wrongly."""
    return "error" in answer or answer.get("exact") is False


def digest(answers: dict) -> str:
    text = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_sweep(workload: str, seed: int, trace: bool, tiny: bool, workdir: Path,
              setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(workdir)]
    if trace:
        cmd.append("--trace")
    if tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    # A bytecode cache of the run's own, whatever the environment says: after
    # the run's first set-up every import, the CLI commands' too, loads
    # compiled modules as an installed package does.
    env = dict(os.environ, PYTHONPATH=f"{HERE}{os.pathsep}{ROOT / 'src'}", PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(workdir / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=SWEEP_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a {workload} sweep took over {SWEEP_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare_reference(answers: dict, reference: dict, seed: int, tiny: bool) -> list[str]:
    """Mismatches against the reference.

    Seeded images are relabelled copies of one catalogue, so on another
    seed than the reference's a seeded answer must still match in every
    field that does not name points. A reference answer that itself failed
    (the known CLI defect) is not compared, so fixing it is no wrong answer.
    """
    problems = []
    on_seed = seed == reference["seed"]
    for qid, ans in answers.items():
        want = reference["answers"].get(qid)
        if want is None:
            if not tiny:
                problems.append(f"{qid}: no reference answer")
            continue
        if failed(want):
            continue
        if failed(ans):
            problems.append(f"{qid}: failed ({ans.get('error', 'inexact')}) where the reference is exact")
            continue
        if not (on_seed or is_fixture(qid)):
            ans = {k: v for k, v in ans.items() if k not in LABELLED_FIELDS}
            want = {k: v for k, v in want.items() if k not in LABELLED_FIELDS}
        if ans != want:
            problems.append(f"{qid}: answer {json.dumps(ans)} differs from reference {json.dumps(want)}")
    return problems


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def median_times(sweeps: list[dict], key: str = "times") -> list[float]:
    """Each query's median time over the sweeps, in query order."""
    return [statistics.median(column) for column in zip(*(s[key] for s in sweeps))]


def hostspeed_scales(sweeps: list[dict]) -> list[float]:
    """Per query and sweep, scaled over raw seconds: the host's speed against the reference."""
    return [t / r for s in sweeps for r, t in zip(s["raw_times"], s["times"]) if r > 0]


def end_to_end(sweeps: list[dict], setups: list[float]) -> dict:
    times = median_times(sweeps)
    return {
        "setup_s": statistics.median(setups),
        "run_s": sum(times),
        "query_p50_s": statistics.median(times),
        "query_p90_s": percentile(times, 0.9),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in sweeps),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    sums = [s["trace"]["sums"] for s in traced]
    problems = []
    counts = {k: sums[0].get(k, 0) for k in COUNT_METRICS}
    for other in sums[1:]:
        if {k: other.get(k, 0) for k in COUNT_METRICS} != counts:
            problems.append("traced counts differ between sweeps")
    metrics = dict(counts)
    # layer times are not bracketed by probes; each sweep's are scaled by its median speed
    speeds = [statistics.median(hostspeed_scales([s])) for s in traced]
    for k in TIME_METRICS:
        metrics[k] = statistics.median(s.get(k, 0.0) * v for s, v in zip(sums, speeds))
    maps_out, nodes = sums[0].get("enumeration.maps_out", 0), counts["enumeration.nodes"]
    metrics["enumeration.yield"] = maps_out / nodes if nodes else 0.0
    inner = sums[0].get("homotopy.class_enum_maps", 0)
    members = counts["homotopy.class_members"]
    metrics["homotopy.new_share"] = members / inner if inner else 0.0
    metrics["trace.overhead_s"] = sum(median_times(traced)) - sum(median_times(untraced))
    return metrics, problems


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in RATIO_METRICS:
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="few, cheap queries and one sweep each: a smoke run")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    args = parser.parse_args()

    if not (ROOT / "src" / "digitop" / "__init__.py").is_file():
        print(f"error: no digitop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        stored = json.loads(args.reference.read_text())
        reference = {"seed": stored["seed"], "answers": stored["workloads"][args.workload]}
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read reference answers: {exc}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / str(os.getpid())
    traced, untraced, setups = [], [], []
    started = time.monotonic()
    min_each = 1 if args.tiny else MIN_SWEEPS
    try:
        while True:
            trace_next = bool(args.trace) and len(traced) < len(untraced)
            sweep_started = time.monotonic()
            sweep = run_sweep(args.workload, args.seed, trace_next, args.tiny, workdir)
            (traced if trace_next else untraced).append(sweep)
            if not trace_next:
                setups.append(sweep["setup_s"])
                setups += [run_sweep(args.workload, args.seed, False, args.tiny, workdir,
                                     setup_only=True)["setup_s"] for _ in range(SETUP_REPEATS)]
            elapsed = time.monotonic() - started
            last = time.monotonic() - sweep_started
            enough = (
                elapsed >= args.seconds
                and len(untraced) >= min_each
                and (not args.trace or len(traced) >= min_each)
            )
            if enough or elapsed + last > RUN_LIMIT_S:
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    sweeps = untraced + traced
    problems = []
    for s in sweeps:
        problems += s["problems"]
        problems += compare_reference(s["answers"], reference, args.seed, args.tiny)
    first = sweeps[0]["answers"]
    if any(s["answers"] != first for s in sweeps[1:]):
        problems.append("answers differ between sweeps")
    answer_digest = digest(first)

    attempted = sum(len(s["times"]) for s in untraced)
    n_failed = sum(sum(failed(a) for a in s["answers"].values()) for s in untraced)
    if args.trace:
        metrics, trace_problems = per_layer(traced, untraced)
        problems += trace_problems
        absent = traced[0]["trace"]["absent"]
        missing = traced[0]["trace"]["missing"]
        if absent or missing:
            print(f"trace: absent layers {absent}; missing attributes {missing}")
    else:
        metrics = end_to_end(untraced, setups)

    failed_ids = sorted({q for s in untraced for q, a in s["answers"].items() if failed(a)})
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced sweeps, answer digest {answer_digest}")
    for name, value in metrics.items():
        print(f"  {name} = {value} {unit_of(name)}")
    if not args.trace:
        print(f"  query samples = {len(untraced[0]['times'])} distinct queries, "
              f"each the median of {len(untraced)} sweeps; setup_s the median of "
              f"{len(setups)} set-ups")
        print(f"  unscaled: run_s = {sum(median_times(untraced, 'raw_times'))} s at "
              f"{statistics.median(hostspeed_scales(untraced))} of the reference host speed")
    print(f"  failed_share = {n_failed / attempted if attempted else 0.0} share "
          f"({n_failed} failed of {attempted} attempted: {', '.join(failed_ids) or 'none'})")
    problems = list(dict.fromkeys(problems))  # each sweep repeats the same findings
    for problem in problems[:20]:
        print(f"WRONG: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1



if __name__ == "__main__":
    sys.exit(main())
