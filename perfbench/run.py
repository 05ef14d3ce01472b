#!/usr/bin/env python3
"""The rescong benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload warm-divisor-heavy --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the library is imported from
./src.  A run starts WORKERS fresh worker processes one after another.
Each sets up (import, inputs, one untimed warm-up pass), then runs whole
passes over its op list for seconds / WORKERS.  One op is one count
query (warm-divisor-heavy), one CLI round trip (cold-cli) or one sweep
instance checked by all three engines (verify-sweep).

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 the first worker adds one traced pass and the last line holds
the per-layer metrics and the tracing overhead instead.  The correctness
gate (gate.py) runs after the workers; any wrong answer makes the exit
code non-zero.  Set-up time is the median over the workers' set-ups.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import gate
import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKERS = 3
# Each run needs this many ops so that ten samples lie beyond its p90.
MIN_OPS = 100
# A run ends within this many seconds, or fails.
RUN_DEADLINE_S = 170


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def run_worker(workload: str, seed: int, part: int, seconds: float, trace: int, timeout: float):
    """(set-up seconds, result dict) of one worker, or raises RuntimeError."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--part", str(part),
        "--seconds", repr(seconds), "--min-ops", str(math.ceil(MIN_OPS / WORKERS)),
        "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {part} timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker {part} failed (exit {proc.returncode}):\n{ready}{out}{err}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def run_gate(workload: str, seed: int, first: dict) -> gate.GateReport:
    sys.path.insert(0, SRC)
    report = gate.GateReport()
    gate.check_worked_example(report)
    if workload == "warm-divisor-heavy":
        gate.check_counts(report, inputs.warm_queries(seed), first["answers"])
    elif workload == "cold-cli":
        gate.check_cli(report, inputs.cold_argvs(seed), first["answers"])
    else:
        gate.check_sweep(report, first["sweep_instances"])
    return report


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> int:
    setups, results, walls = [], [], []
    deadline = time.perf_counter() + RUN_DEADLINE_S
    for part in range(WORKERS):
        t0 = time.perf_counter()
        setup_s, result = run_worker(
            workload, seed, part, seconds / WORKERS, trace, max(1.0, deadline - t0)
        )
        walls.append(time.perf_counter() - t0)
        setups.append(setup_s)
        results.append(result)

    first = results[0]
    t0 = time.perf_counter()
    report = run_gate(workload, seed, first)
    gate_s = time.perf_counter() - t0
    if not all(r["consistent"] for r in results):
        report.fail("a repeated pass gave different answers than the first pass")
    if workload != "verify-sweep" and len({r["digest"] for r in results}) != 1:
        report.fail("workers disagree on the answers to the same inputs")
    if first["trace"] is not None and not first["trace"]["consistent"]:
        report.fail("the traced pass gave different answers than the untraced passes")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    latencies = sorted(x for r in results for x in r["latencies_ms"])
    # The median pass shrugs off a pass slowed by the rest of the machine.
    passes = [p for r in results for p in r["passes"]]
    ops_per_s = statistics.median(p["ops"] / p["wall_s"] for p in passes)
    beyond_p90 = sum(1 for x in latencies if x > percentile(latencies, 0.9))

    print(
        f"workload={workload} seed={seed} seconds={seconds} trace={trace} "
        f"python={platform.python_version()} nproc={os.cpu_count()} workers={WORKERS}"
    )
    print(
        f"ops: attempted={attempted} failed={failed} passes={len(passes)} "
        f"ops_per_pass={results[0]['passes'][0]['ops']}"
    )
    print("worker wall s: " + ", ".join(f"{w:.1f}" for w in walls) + f"; gate {gate_s:.1f} s")
    print(f"gate: {report.summary()}")
    for failure in report.failures[:10]:
        print(f"GATE FAILURE: {failure}")
    print(f"answers digest: sha256:{first['digest']}")
    end_to_end = {
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (percentile(latencies, 0.9), "ms"),
        "ops_answered_frac": (1.0 - failed / attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
    }
    notes = {
        "ops_per_s": f"median of {len(passes)} passes",
        "latency_p50_ms": f"{len(latencies)} samples",
        "latency_p90_ms": f"{len(latencies)} samples, {beyond_p90} beyond",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
    }
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<18} {value:12.4f} {unit:<6} {notes.get(name, '')}")
    print(f"  {'ops_failed_frac':<18} {failed / attempted:12.4f} ratio")

    metrics = end_to_end
    if trace:
        traced = first["trace"]
        metrics = spans.layer_metrics(traced["agg"], traced["ops_per_s"], ops_per_s)
        print(
            f"traced pass: {traced['agg']['ops']} ops, {traced['agg']['spans_total']} spans "
            f"({traced['agg']['spans_recorded']} written to .perfbench_out/)"
        )
        for name, (value, unit) in metrics.items():
            print(f"  {name:<32} {value:14.4f} {unit}")

    print(
        json.dumps(
            {
                "correct": report.ok,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if report.ok else 1


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in a child run; a summary table and a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in inputs.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            status = 1
            combined["correct"] = False
            continue
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(SRC, "rescong", "__init__.py")):
        print(f"no rescong sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
