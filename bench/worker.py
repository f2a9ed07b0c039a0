"""One sweep of one workload in a fresh process.

Usage: worker.py WORKLOAD SEED WORKDIR [--trace] [--tiny] [--setup-only]

Times set-up (importing digitop and building the seeded inputs), then
answers every query of the workload once, timing each, and checks the
seed-free invariants. Every time is also scaled to the reference host
speed by the ``hostspeed`` probes taken next to it. Prints one JSON object
on its last stdout line.
With ``--setup-only`` it stops after set-up and prints only its time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
COMMAND_TIMEOUT_S = 120


def timed(spans: list, probe) -> dict:
    """Each query's raw seconds, and its seconds scaled to the reference host speed."""
    raw = [end - start for start, end in spans]
    return {"raw_times": raw, "times": [t * probe.scale(*span) for t, span in zip(raw, spans)]}


def build_inputs(args, workloads) -> list:
    """Set-up: the workload's queries, or its commands and their files."""
    if args.workload != "cli-batch":
        return workloads.build_library(args.workload, args.seed, args.tiny)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    commands = workloads.build_cli(args.seed, workdir, pairs=1 if args.tiny else 7)
    return commands[::3] + commands[-1:] if args.tiny else commands


def library_sweep(args, workloads, tracing, probe, queries) -> dict:
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    spans, answers = [], {}
    probe.take(hostspeed.NEAREST)
    for q in queries:
        probe.maybe()
        start = time.perf_counter()
        try:
            result = q.call()
        except Exception as exc:  # a raising query is a failed query, not a crash
            spans.append((start, time.perf_counter()))
            traceback.print_exc()
            answers[q.qid] = {"error": repr(exc)}
            continue
        spans.append((start, time.perf_counter()))
        answers[q.qid] = q.canon(result)
        del result
    probe.take(hostspeed.NEAREST)
    out = {**timed(spans, probe), "answers": answers}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = {"sums": tracer.layer_sums(), "missing": tracer.missing,
                        "absent": tracer.absent_layers()}
    out["problems"] = (
        workloads.check_invariants(queries, answers)
        + workloads.check_membership(queries, answers)
    )
    return out


def cli_sweep(args, workloads, commands) -> dict:
    workdir = Path(args.workdir)
    probe = hostspeed.process_probe()
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    trace_file = workdir / "trace.json"
    totals: dict = {}
    missing, absent = set(), None
    spans, answers = [], {}
    probe.take(hostspeed.NEAREST)
    for c in commands:
        cmd_env = dict(env, **c.env)
        if args.trace:
            cmd_env["BENCH_TRACE_OUT"] = str(trace_file)
        probe.maybe()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "launcher.py"), *c.argv],
            env=cmd_env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
        )
        spans.append((start, time.perf_counter()))
        answer = {"exit": proc.returncode, "stdout": workloads.normalize_stdout(proc.stdout)}
        if proc.returncode != c.expected_exit or "Traceback" in proc.stderr:
            answer["error"] = f"exit {proc.returncode}, expected {c.expected_exit}"
            if "Traceback" in proc.stderr:
                answer["error"] += ", with a traceback"
        answers[c.qid] = answer
        if args.trace and trace_file.exists():
            record = json.loads(trace_file.read_text())
            trace_file.unlink()
            for key, value in record["sums"].items():
                totals[key] = totals.get(key, 0) + value
            missing.update(record["missing"])
            absent = record["absent"]
    probe.take(hostspeed.NEAREST)
    out = {**timed(spans, probe), "answers": answers}
    if args.trace:
        out["trace"] = {"sums": totals, "missing": sorted(missing), "absent": absent or []}
    out["problems"] = workloads.check_cli(answers, workloads.cli_expectations(workdir))
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up, then exit without answering queries")
    args = parser.parse_args()
    probe = hostspeed.Probe()
    probe.take(hostspeed.NEAREST)
    started = time.perf_counter()
    import workloads  # imports digitop: part of set-up

    inputs = build_inputs(args, workloads)
    setup = (started, time.perf_counter())
    probe.take(hostspeed.NEAREST)
    setup_s = (setup[1] - setup[0]) * probe.scale(*setup)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import spans as tracing

    if args.workload == "cli-batch":
        out = cli_sweep(args, workloads, inputs)
    else:
        out = library_sweep(args, workloads, tracing, probe, inputs)
    out["setup_s"] = setup_s
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out["rss_mb"] = usage / 1024
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
