"""Correctness gate for benchmark answers, run after the timed region.

Checks, each counted as covered / eligible:

- worked-example: n=4, s=2, b=5, t=(1, 2) has count 3 and pre-division
  sum (fourier_numerator) 48;
- convolution: the answer equals convolution_count on the instance,
  wherever n**s <= 10**5 and the convolution fits CHECK_COST_LIMIT;
- crt: the answer equals the product over the primes p**e || n of
  convolution_count on the local instance (n -> p**e, t_i -> p**v_p(t_i),
  b -> b mod p**(e*s)), wherever every local modulus <= 10**5 and the
  local convolutions together fit CHECK_COST_LIMIT;
- cli-vs-library: a CLI round trip printed the count the library
  returns for the same instance, or exited 1 where the library refuses
  it with DomainError or BudgetExceededError;
- sweep-formula: each convolution count that engine_sweep saw equals
  the closed form recomputed here.

Any mismatch is a failure and makes the run exit non-zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import inputs

WORKED_EXAMPLE = {"n": 4, "s": 2, "b": 5, "t": (1, 2), "count": 3, "numerator": 48}
CONVOLUTION_MODULUS_LIMIT = 10**5
# Upper limit on modulus * (sum of class sizes): the inner-loop steps of
# one schoolbook convolution, about a second of Python.
CHECK_COST_LIMIT = 3 * 10**6


@dataclass
class GateReport:
    covered: dict = field(default_factory=dict)  # check -> [covered, eligible]
    failures: list = field(default_factory=list)

    def tally(self, check: str, covered: bool) -> None:
        row = self.covered.setdefault(check, [0, 0])
        row[0] += covered
        row[1] += 1

    def fail(self, message: str) -> None:
        self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        cells = [f"{name} {c}/{e}" for name, (c, e) in sorted(self.covered.items())]
        return "; ".join(cells) + f"; failures {len(self.failures)}"


def _jordan(m: int, s: int) -> int:
    out = 1
    for p, e in inputs.factor(m):
        out *= p ** (s * e) - p ** (s * (e - 1))
    return out


def convolution_cost(n: int, s: int, t) -> int:
    return n**s * sum(_jordan(n // ti, s) for ti in t)


def local_instances(n: int, s: int, b: int, t):
    """Per-prime-power instances whose counts multiply to the global count."""
    out = []
    for p, e in inputs.factor(n):
        pe = p**e
        local_t = tuple(math.gcd(ti, pe) for ti in t)
        out.append((pe, s, b % pe**s, local_t))
    return out


def check_worked_example(report: GateReport, expected: dict = WORKED_EXAMPLE) -> None:
    from rescong import congruence

    inst = congruence.CongruenceInstance(
        n=expected["n"], s=expected["s"], b=expected["b"], restrictions=expected["t"]
    )
    count = congruence.count_restricted(inst)
    numerator = congruence.fourier_numerator(inst)
    report.tally("worked-example", True)
    if (count, numerator) != (expected["count"], expected["numerator"]):
        report.fail(
            f"worked example: count {count}, numerator {numerator}; "
            f"expected {expected['count']}, {expected['numerator']}"
        )


def check_counts(report: GateReport, queries, answers) -> None:
    """Convolution and CRT checks of decimal answers to (n, s, b, t) queries."""
    from rescong import congruence, oracle

    def conv(n, s, b, t):
        inst = congruence.CongruenceInstance(n=n, s=s, b=b, restrictions=t)
        return oracle.convolution_count(inst, budget=CONVOLUTION_MODULUS_LIMIT)

    for (n, s, b, t), answer in zip(queries, answers):
        if not answer.isdigit():
            continue  # a refusal; cli-vs-library checks those
        value = int(answer)
        label = f"n={n} s={s} b={b} k={len(t)}"

        direct = n**s <= CONVOLUTION_MODULUS_LIMIT and convolution_cost(n, s, t) <= CHECK_COST_LIMIT
        report.tally("convolution", direct)
        if direct and conv(n, s, b, t) != value:
            report.fail(f"convolution disagrees with {answer} at {label}")

        local = local_instances(n, s, b, t)
        crt = all(pe**s <= CONVOLUTION_MODULUS_LIMIT for pe, _, _, _ in local) and (
            sum(convolution_cost(pe, s, lt) for pe, _, _, lt in local) <= CHECK_COST_LIMIT
        )
        report.tally("crt", crt)
        if crt and math.prod(conv(*q) for q in local) != value:
            report.fail(f"CRT product of local convolutions disagrees with {answer} at {label}")


def library_outcome(n: int, s: int, b: int, t) -> str:
    """What a CLI round trip must print for this instance: count or refusal."""
    from rescong import congruence, errors

    try:
        inst = congruence.CongruenceInstance(n=n, s=s, b=b, restrictions=t)
        return "count:" + str(congruence.count_restricted(inst))
    except (errors.DomainError, errors.BudgetExceededError):
        return "error"


def check_cli(report: GateReport, argvs, outcomes) -> None:
    queries = [inputs.parse_count_argv(argv) for argv in argvs]
    expected = [library_outcome(*q) for q in queries]
    for argv, got, want in zip(argvs, outcomes, expected):
        report.tally("cli-vs-library", True)
        if got != want:
            report.fail(f"CLI printed {got[:80]!r}, library gives {want[:80]!r} for {argv}")
    counts = [e.split(":", 1)[1] if e.startswith("count:") else e for e in expected]
    check_counts(report, queries, counts)


def check_sweep(report: GateReport, instances) -> None:
    """instances: [n, s, b, t, convolution count] as engine_sweep saw them."""
    from rescong import congruence

    for n, s, b, t, conv in instances:
        inst = congruence.CongruenceInstance(n=n, s=s, b=b, restrictions=tuple(t))
        report.tally("sweep-formula", True)
        if congruence.count_restricted(inst) != conv:
            report.fail(f"closed form disagrees with convolution {conv} at n={n} s={s} b={b} t={t}")
    check_counts(report, [(n, s, b, tuple(t)) for n, s, b, t, _ in instances],
                 [str(c) for *_, c in instances])
