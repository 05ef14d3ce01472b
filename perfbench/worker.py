"""One benchmark worker: set up, run timed passes, optionally a traced pass.

Started by run.py, never by hand.  The worker prints READY on stdout
the moment set-up is over (so the parent can time set-up from process
start), then one JSON line with its samples, answers and counters.

A pass is one walk over a workload's fixed op list:

- warm-divisor-heavy: every seeded count query once, in-process;
- cold-cli: every seeded argv once, each a fresh `python -m rescong`;
- verify-sweep: one seeded engine_sweep subsample of SWEEP_CAP instances.

Passes repeat until the worker's share of the run time is spent and it
has done its share of the minimum op count.  Timing whole passes keeps
the cost mix of every pass the same.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

import inputs
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SHIM = os.path.join(ROOT, "perfbench", "traced_cli.py")
CLI_TIMEOUT_S = 60
# A worker stops starting passes after this long, whatever its share.
WORKER_WALL_LIMIT_S = 100.0


@dataclass
class Pass:
    wall_ns: int = 0
    latencies_ns: list = field(default_factory=list)
    answers: list = field(default_factory=list)
    failed: int = 0

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)


def _import_library() -> float:
    """Import the library as the CLI does; returns the import time in ms."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import rescong.cli  # noqa: F401

    return (time.perf_counter() - t0) * 1000.0


class WarmDivisorHeavy:
    rss_who = resource.RUSAGE_SELF

    def __init__(self, seed: int, part: int) -> None:
        self.import_ms = _import_library()
        from rescong import congruence, errors

        self.congruence = congruence
        self.refusals = (errors.DomainError, errors.BudgetExceededError)
        self.queries = inputs.warm_queries(seed)

    def warm_up(self) -> None:
        self.run_pass()

    def run_pass(self, tracer=None) -> Pass:
        congruence = self.congruence
        clock = time.perf_counter_ns
        out = Pass()
        start = clock()
        for n, s, b, t in self.queries:
            if tracer is not None:
                tracer.begin_op(n)
            t0 = clock()
            try:
                inst = congruence.CongruenceInstance(n=n, s=s, b=b, restrictions=t)
                answer = congruence.count_restricted(inst)
            except self.refusals as exc:
                answer = "error:" + type(exc).__name__
                out.failed += 1
            out.latencies_ns.append(clock() - t0)
            out.answers.append(answer)
        out.wall_ns = clock() - start
        return out

    def traced_pass(self, tracer) -> Pass:
        tracer.agg.update(import_ms=self.import_ms, imports=1)
        tracer.install()
        try:
            return self.run_pass(tracer)
        finally:
            tracer.uninstall()


class ColdCli:
    rss_who = resource.RUSAGE_CHILDREN

    def __init__(self, seed: int, part: int) -> None:
        self.argvs = inputs.cold_argvs(seed)
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def _round_trip(self, cmd: list[str], env: dict):
        t0 = time.perf_counter_ns()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        elapsed = time.perf_counter_ns() - t0
        if proc.returncode == 0:
            return elapsed, "count:" + json.loads(proc.stdout)["result"]["count"], False
        if proc.returncode == 1 and proc.stderr.startswith("error:"):
            return elapsed, "error", True
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return elapsed, f"abnormal:{proc.returncode}:{tail[0]}", True

    def warm_up(self) -> None:
        # Compiles the package's bytecode on a fresh checkout, as an
        # installed package would have it, and pages the interpreter in.
        self._round_trip([sys.executable, "-m", "rescong"] + self.argvs[0], self.env)

    def run_pass(self) -> Pass:
        out = Pass()
        start = time.perf_counter_ns()
        for argv in self.argvs:
            elapsed, answer, failed = self._round_trip(
                [sys.executable, "-m", "rescong"] + argv, self.env
            )
            out.latencies_ns.append(elapsed)
            out.answers.append(answer)
            out.failed += failed
        out.wall_ns = time.perf_counter_ns() - start
        return out

    def traced_pass(self, tracer) -> Pass:
        # Each round trip runs under traced_cli.py, which wraps the library
        # inside the child and leaves its spans and sums in a file.
        os.makedirs(OUT_DIR, exist_ok=True)
        out = Pass()
        parts = []
        start = time.perf_counter_ns()
        for i, argv in enumerate(self.argvs):
            path = os.path.join(OUT_DIR, f"child-{os.getpid()}-{i}.json")
            env = dict(self.env, PERFBENCH_AGG=path)
            elapsed, answer, failed = self._round_trip([sys.executable, SHIM] + argv, env)
            out.latencies_ns.append(elapsed)
            out.answers.append(answer)
            out.failed += failed
            with open(path) as fh:
                child = json.load(fh)
            os.remove(path)
            parts.append(child["agg"])
            tracer.spans.extend(tuple(span[:5]) + (i,) for span in child["spans"])
        out.wall_ns = time.perf_counter_ns() - start
        tracer.agg = spans.merge_aggregates(parts)
        return out


class VerifySweep:
    rss_who = resource.RUSAGE_SELF

    def __init__(self, seed: int, part: int) -> None:
        self.import_ms = _import_library()
        from rescong import oracle, verification

        self.oracle = oracle
        self.verification = verification
        self.seeds = inputs.sweep_seeds(seed, part, 64)
        self.next_seed = 0
        self.first_instances: list | None = None

    def _config(self, seed: int, cap: int):
        return self.verification.SweepConfig(
            max_n=inputs.SWEEP_MAX_N,
            s_values=inputs.SWEEP_S,
            max_k=inputs.SWEEP_MAX_K,
            seed=seed,
            cap=cap,
        )

    def warm_up(self) -> None:
        # Fills the library's class-member and Ramanujan caches, which a
        # long verify run keeps warm after its first instances.
        self.verification.engine_sweep(self._config(self.seeds[-1], inputs.SWEEP_WARMUP_CAP))

    def run_pass(self, on_lap=None) -> Pass:
        # engine_sweep checks one instance as formula, brute force,
        # convolution, in that order.  The end of each convolution_count
        # call therefore ends one op; a lap clock on that attribute (which
        # engine_sweep looks up on the oracle module) gives per-instance
        # latencies at one clock read per instance.
        oracle = self.oracle
        inner = oracle.convolution_count
        clock = time.perf_counter_ns
        laps: list[int] = []
        answers: list[int] = []
        record = self.first_instances is None
        instances: list = []

        def lap(instance, *args, **kwargs):
            result = inner(instance, *args, **kwargs)
            laps.append(clock())
            answers.append(result)
            if record:
                instances.append([instance.n, instance.s, instance.b, list(instance.restrictions)])
            if on_lap is not None:
                on_lap()
            return result

        seed = self.seeds[self.next_seed]
        self.next_seed += 1
        oracle.convolution_count = lap
        try:
            start = clock()
            report = self.verification.engine_sweep(self._config(seed, inputs.SWEEP_CAP))
            end = clock()
        finally:
            oracle.convolution_count = inner
        if not report.ok or report.checked != len(laps):
            raise SystemExit(
                f"engine_sweep seed={seed}: {len(report.mismatches)} mismatches, "
                f"{report.checked} checked, {len(laps)} convolution calls"
            )
        if record:
            self.first_instances = [inst + [ans] for inst, ans in zip(instances, answers)]
        out = Pass(wall_ns=end - start, answers=answers)
        prev = start
        for t in laps:
            out.latencies_ns.append(t - prev)
            prev = t
        return out

    def traced_pass(self, tracer) -> Pass:
        tracer.agg.update(import_ms=self.import_ms, imports=1)
        tracer.install()
        tracer.begin_op()
        try:
            return self.run_pass(on_lap=tracer.begin_op)
        finally:
            tracer.uninstall()


DRIVERS = {
    "warm-divisor-heavy": WarmDivisorHeavy,
    "cold-cli": ColdCli,
    "verify-sweep": VerifySweep,
}


def digest(answers) -> str:
    text = "\n".join(str(a) for a in answers)
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(DRIVERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-ops", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.set_int_max_str_digits(0)

    driver = DRIVERS[args.workload](args.seed, args.part)
    driver.warm_up()
    print("READY", flush=True)

    passes = []
    timed_ns = 0
    ops = 0
    wall_start = time.monotonic()
    while True:
        p = driver.run_pass()
        passes.append(p)
        timed_ns += p.wall_ns
        ops += p.ops
        done = timed_ns >= args.seconds * 1e9 and ops >= args.min_ops
        if done or time.monotonic() - wall_start > WORKER_WALL_LIMIT_S:
            break

    # Every pass walks the same op list (verify: a fresh subsample each
    # pass), so repeated answers must agree with the first pass.
    fixed = passes[0].answers
    consistent = args.workload == "verify-sweep" or all(p.answers == fixed for p in passes)
    result = {
        "passes": [{"ops": p.ops, "wall_s": p.wall_ns / 1e9} for p in passes],
        "latencies_ms": [x / 1e6 for p in passes for x in p.latencies_ns],
        "attempted": ops,
        "failed": sum(p.failed for p in passes),
        "consistent": consistent,
        "digest": digest(fixed),
        "answers": [str(a) for a in fixed] if args.part == 0 else None,
        "peak_rss_mb": resource.getrusage(driver.rss_who).ru_maxrss / 1024.0,
        "sweep_instances": getattr(driver, "first_instances", None) if args.part == 0 else None,
        "trace": None,
    }
    if args.trace:
        tracer = spans.Tracer()
        traced = driver.traced_pass(tracer)
        tracer.agg["ops"] = traced.ops
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl"))
        result["trace"] = {
            "agg": tracer.agg,
            "ops_per_s": traced.ops / (traced.wall_ns / 1e9),
            "consistent": args.workload == "verify-sweep" or traced.answers == fixed,
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
