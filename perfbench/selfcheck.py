#!/usr/bin/env python3
"""Self-check of the benchmark itself (takes about three minutes).

    python3 perfbench/selfcheck.py

1. The same seed gives byte-identical inputs; another seed other inputs.
2. The gate fails on a deliberately wrong expected count, on a wrong
   answer and on a CLI outcome that differs from the library's.
3. A tiny run of each workload exits 0 and prints all six end-to-end
   metrics with their units; a tiny traced run prints every per-layer
   metric.
4. A whole run with a wrong expected worked-example count exits non-zero.
5. A directory that holds only BENCHMARK.json and perfbench/ makes the
   benchmark exit non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import gate
import inputs
import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(proc: subprocess.CompletedProcess):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_inputs() -> None:
    for name in inputs.WORKLOADS:
        a = json.dumps(inputs.workload_inputs(name, 7)).encode()
        b = json.dumps(inputs.workload_inputs(name, 7)).encode()
        c = json.dumps(inputs.workload_inputs(name, 8)).encode()
        check(a == b and a != c, f"{name}: seed 7 twice gives identical bytes, seed 8 differs")


def check_gate() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    report = gate.GateReport()
    gate.check_worked_example(report)
    check(report.ok, "gate passes the worked example")

    report = gate.GateReport()
    gate.check_worked_example(report, dict(gate.WORKED_EXAMPLE, count=4))
    check(not report.ok, "gate fails when the expected worked-example count is 4")

    query = (360360, 1, 0, (1, 2, 4, 3))
    right = gate.library_outcome(*query).split(":", 1)[1]
    report = gate.GateReport()
    gate.check_counts(report, [query], [right])
    check(report.ok and report.covered["crt"][0] == 1, "gate's CRT check accepts the library count")
    report = gate.GateReport()
    gate.check_counts(report, [query], [str(int(right) + 1)])
    check(not report.ok, "gate's CRT check rejects the library count plus one")

    argv = ["count", "--n", "12", "--s", "2", "--b", "5", "--t", "1,2", "--format", "json"]
    report = gate.GateReport()
    gate.check_cli(report, [argv], ["error"])
    check(not report.ok, "gate rejects a CLI refusal where the library answers")


def check_tiny_runs() -> None:
    names = [m["name"] for m in SPEC["end_to_end"]]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name in inputs.WORKLOADS:
        proc = bench("--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0")
        result = last_json(proc)
        ok = proc.returncode == 0 and result is not None and result["correct"]
        ok = ok and all(result["metrics"].get(m, {}).get("unit") == units[m] for m in names)
        ok = ok and all(f"  {m} " in proc.stdout for m in names)
        check(ok, f"{name}: tiny run prints all six end-to-end metrics with units")
        if not ok:
            print(proc.stdout[-2000:], proc.stderr[-2000:])

    proc = bench("--workload", "cold-cli", "--seed", "1", "--seconds", "1", "--trace", "1")
    result = last_json(proc)
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    ok = proc.returncode == 0 and result is not None
    check(ok and set(result["metrics"]) == layer_names,
          "cold-cli: tiny traced run prints every per-layer metric")


def check_wrong_count_run() -> None:
    saved = dict(gate.WORKED_EXAMPLE)
    gate.WORKED_EXAMPLE["count"] = 4
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run.main(["--workload", "verify-sweep", "--seed", "1", "--seconds", "1"])
    finally:
        gate.WORKED_EXAMPLE.update(saved)
    check(code != 0, "a run whose gate expects count 4 for the worked example exits non-zero")


def check_bare_directory() -> None:
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=out)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "warm-divisor-heavy", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        check(proc.returncode != 0 and last_json(proc) is None,
              "without src/ the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    check_inputs()
    check_gate()
    check_wrong_count_run()
    check_bare_directory()
    check_tiny_runs()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
