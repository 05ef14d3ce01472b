"""End-to-end acceptance gate.

One test per top-level criterion, each at its stated tolerance (exact
integer equality unless a float residual bound is quoted) and with its
stated runtime ceiling.  Run with `pytest tests/test_acceptance.py -v -s`
to see one PASS line with details per criterion; a pytest FAILED line is
the fail signal.

Criteria execute in file order; the integrality tracker read by the
no-divisibility-violation criterion accumulates over the earlier ones.
"""

import itertools
import time

from rescong import congruence
from rescong.arith import divisors, factorize
from rescong.congruence import CongruenceInstance, count_restricted, fourier_numerator
from rescong.oracle import enumerate_solutions
from rescong.ramanujan import cohen_ramanujan
from rescong.verification import SweepConfig, engine_sweep

from reference import (
    class_character_sum,
    cohen_ramanujan_direct,
    count_units_nicol,
    count_units_rademacher,
    identity_suites,
)

WORKED = CongruenceInstance(n=4, s=2, b=5, restrictions=(1, 2))

_BASELINE = dict(congruence.DIVISIBILITY_STATS)


def _passed(num: int, detail: str) -> None:
    print(f"PASS criterion {num}: {detail}")


def _best_of(fn, runs: int) -> float:
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_worked_example_exact():
    intermediate = {
        (4, 16): 12,
        (2, 16): 3,
        (2, 5): -1,
        (4, 4): -4,
        (4, 5): 0,
    }
    for (r, arg), expected in intermediate.items():
        assert cohen_ramanujan(r, 2, arg) == expected
    assert fourier_numerator(WORKED) == 48
    assert count_restricted(WORKED) == 3
    best = _best_of(lambda: count_restricted(WORKED), runs=50)
    assert best < 1e-3
    _passed(
        1,
        f"count 3 from pre-division sum 48 with all five c_(r,2) values exact; "
        f"best runtime {best * 1e6:.0f} us < 1 ms",
    )


def test_criterion_2_worked_example_solutions():
    t0 = time.perf_counter()
    sols = enumerate_solutions(WORKED, limit=100)
    elapsed = time.perf_counter() - t0
    assert set(sols) == {(1, 4), (9, 12), (13, 8)}
    best = _best_of(lambda: enumerate_solutions(WORKED, limit=100), runs=20)
    assert min(elapsed, best) < 1e-2
    _passed(2, f"solution set {{(1,4),(9,12),(13,8)}} exact; {best * 1e6:.0f} us < 10 ms")


def test_criterion_3_tripartite_engine_agreement():
    t0 = time.perf_counter()
    cfg = SweepConfig(max_n=6, s_values=(1, 2), max_k=3, cap=10**9)
    report = engine_sweep(cfg)
    elapsed = time.perf_counter() - t0
    assert not report.subsampled
    assert report.checked == report.space
    assert report.mismatches == []
    assert elapsed < 600.0
    _passed(
        3,
        f"formula == brute force == convolution on all {report.checked} instances "
        f"(n <= 6, s in (1,2), k <= 3, every b and t-tuple) in {elapsed:.1f}s < 10 min",
    )


def test_criterion_4_cross_formula_agreement_at_s_one():
    t0 = time.perf_counter()
    cells = 0
    for n in range(1, 31):
        for k in range(1, 6):
            for b in range(n):
                restricted = count_restricted(CongruenceInstance(n, 1, b, (1,) * k))
                assert restricted == count_units_nicol(n, k, b)
                assert restricted == count_units_rademacher(n, k, b)
                cells += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(
        4,
        f"restricted(all units) == Nicol-Vandiver == Rademacher-Brauer on {cells} "
        f"(n, k, b) cells in {elapsed:.1f}s < 1 min",
    )


def test_criterion_5_direct_oracle_agreement():
    t0 = time.perf_counter()
    checks = 0
    for r in range(1, 11):
        for s in (1, 2):
            for n in range(r**s):
                # the direct path itself raises if its residual reaches 1e-6
                assert cohen_ramanujan(r, s, n) == cohen_ramanujan_direct(r, s, n)
                checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed(
        5,
        f"exact divisor form matches rounded exponential sum on {checks} arguments "
        f"(residuals < 1e-6) in {elapsed:.1f}s < 30 s",
    )


def test_criterion_6_structural_identity_suites():
    t0 = time.perf_counter()
    report = identity_suites()
    elapsed = time.perf_counter() - t0
    assert report.failures == []
    assert elapsed < 30.0
    _passed(
        6,
        f"gcd periodicity, argument reduction, modulus periodicity, reflection and "
        f"(n,s)-evenness hold on {report.checks} checks in {elapsed:.1f}s < 30 s",
    )


def test_criterion_7_partition_identity():
    t0 = time.perf_counter()
    checks = 0
    for n in range(1, 5):
        divs = divisors(n)
        for s in (1, 2):
            for k in range(1, 4):
                for b in range(n**s):
                    total = sum(
                        count_restricted(CongruenceInstance(n, s, b, ts))
                        for ts in itertools.product(divs, repeat=k)
                    )
                    assert total == n ** (s * (k - 1))
                    checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(
        7,
        f"counts over all restriction tuples sum to n**(s*(k-1)) on {checks} "
        f"(n, s, k, b) cells in {elapsed:.1f}s < 1 min",
    )


def test_criterion_8_divisibility_invariant_never_fired():
    stats = congruence.DIVISIBILITY_STATS
    exercised = stats["checked"] - _BASELINE["checked"]
    assert stats["failed"] == 0
    assert exercised > 5000  # criteria 1-7 alone drive thousands of evaluations
    _passed(
        8,
        f"pre-division sum divisible by the modulus on all {exercised} closed-form "
        f"evaluations so far; 0 violations (violations would also raise)",
    )


def test_criterion_9_character_sum_identity():
    t0 = time.perf_counter()
    checks = 0
    for n in range(1, 9):
        for s in (1, 2):
            for d in divisors(n):
                for m in range(n**s):
                    z = class_character_sum(n, s, d, m)
                    assert abs(z - cohen_ramanujan(n // d, s, m)) < 1e-6
                    checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed(
        9,
        f"class character sums match c_(n/d, s)(m) within 1e-6 on {checks} "
        f"(n, s, d, m) cells in {elapsed:.1f}s < 30 s",
    )


def test_criterion_10_prime_near_factorize_limit():
    p = 999999999989  # the largest prime below FACTORIZE_LIMIT = 10**12
    assert factorize(p) == ((p, 1),)
    best = _best_of(lambda: factorize.__wrapped__(p), runs=3)
    assert best < 5e-3
    _passed(10, f"factorize({p}) is prime with no memo in {best * 1e3:.2f} ms < 5 ms")
