import itertools
import math

import pytest
from hypothesis import assume, given, strategies as st

from rescong.arith import generalized_gcd, jordan_totient
from rescong.congruence import CongruenceInstance, count_restricted
from rescong.errors import BudgetExceededError, ConsistencyError, DomainError
from rescong.oracle import brute_force_count
from rescong.ramanujan import _prime_power_sum, capped_valuation, cohen_ramanujan

import reference
from reference import (
    _mobius_divisor_sum,
    cohen_ramanujan_direct,
    level_identity_failures,
    level_transfer,
)

# the five sums behind the worked mod-16 computation, plus small anchors
KNOWN_VALUES = [
    (4, 2, 16, 12),
    (2, 2, 16, 3),
    (2, 2, 5, -1),
    (4, 2, 4, -4),
    (4, 2, 5, 0),
    (2, 2, 4, 3),
    (1, 2, 5, 1),
    (1, 1, 7, 1),
]


@pytest.mark.parametrize("r,s,n,expected", KNOWN_VALUES)
def test_known_values_both_paths(r, s, n, expected):
    assert cohen_ramanujan(r, s, n) == expected
    assert cohen_ramanujan_direct(r, s, n) == expected


def test_r_one_is_always_one():
    for s in (1, 2, 3):
        for n in (-5, 0, 1, 7, 100):
            assert cohen_ramanujan(1, s, n) == 1


def test_zero_argument_gives_jordan_totient():
    for r in range(1, 13):
        for s in (1, 2, 3):
            assert cohen_ramanujan(r, s, 0) == jordan_totient(r, s)
    # same fact from the exponential side, at direct-oracle scale
    for r in range(1, 13):
        for s in (1, 2, 3):
            if r**s <= 10**4:
                assert cohen_ramanujan_direct(r, s, 0) == jordan_totient(r, s)


@pytest.mark.parametrize("p,e,s", [(2, 4, 1), (3, 2, 2), (5, 1, 3), (13, 1, 2), (2, 6, 2)])
def test_prime_power_sum_entries(p, e, s):
    # m = p**(s*j) sits at level min(j, a), and m = 0 at level a.  The sum
    # is what cohen_ramanujan reads, so the Moebius divisor sum is the
    # independent check at every level up to e + 1, past every order a.
    for a in range(e + 1):
        for j in range(e + 2):
            m = p ** (s * j)
            value = _prime_power_sum(p**s, a, j)
            assert value == cohen_ramanujan(p**a, s, m) == _mobius_divisor_sum(p**a, s, m)
        assert _prime_power_sum(p**s, a, a) == _mobius_divisor_sum(p**a, s, 0)


def test_level_identities_hold_for_every_x():
    # (i) and (ii) as polynomial identities in x = p**s for every exponent
    # e <= 20; CI runs the same check to e = 39, every exponent of an
    # n <= FACTORIZE_LIMIT (2**39 < 10**12 < 2**40).
    assert level_identity_failures(20) == []


@pytest.mark.parametrize("p,instances", [(2, 2420), (3, 2325), (5, 3425)])
def test_level_recurrence_counts(p, instances):
    # The lemma under (i) and (ii): starting from delta_e, one
    # level_transfer per unknown counts the solutions mod p**(e*s), so its
    # entry at the level of b is the count of both independent engines.
    checked = 0
    for s in (1, 2, 3):
        x = p**s
        for e in range(1, 4):
            if x**e > 200:
                continue
            for k in range(4 if x**e <= 30 else 3):
                # The count is symmetric in the unknowns: one order each.
                for big_bs in itertools.combinations_with_replacement(range(e + 1), k):
                    f = [0] * e + [1]
                    for big_b in big_bs:
                        f = level_transfer(x, e, big_b, f)
                    for b in range(x**e):
                        inst = CongruenceInstance(p**e, s, b, [p**big_b for big_b in big_bs])
                        count = f[capped_valuation(b, x, e)]
                        assert count == brute_force_count(inst) == count_restricted(inst), inst
                        checked += 1
    assert checked == instances


def test_rejects_bad_arguments():
    with pytest.raises(DomainError):
        cohen_ramanujan(0, 1, 5)
    with pytest.raises(DomainError):
        cohen_ramanujan(4, 0, 5)
    with pytest.raises(DomainError):
        cohen_ramanujan_direct(0, 2, 5)
    with pytest.raises(DomainError):
        cohen_ramanujan_direct(2, 0, 1)


class TestClassic:
    def test_at_zero_is_phi(self):
        for r in range(1, 31):
            phi = sum(1 for j in range(1, r + 1) if math.gcd(j, r) == 1)
            assert cohen_ramanujan(r, 1, 0) == phi

    def test_direct_summation_anchors(self):
        # c_2(1) = e(1/2) = -1; c_6(1) = e(1/6) + e(5/6) = 2cos(pi/3) = 1
        assert cohen_ramanujan(2, 1, 1) == -1
        assert cohen_ramanujan(6, 1, 1) == 1


class TestDirectOracle:
    def test_agreement_sweep(self):
        for r in range(1, 11):
            for s in (1, 2):
                for n in range(r**s):
                    assert cohen_ramanujan(r, s, n) == cohen_ramanujan_direct(r, s, n)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            cohen_ramanujan_direct(7, 2, 1, budget=10)

    @given(st.integers(1, 40), st.integers(1, 3), st.integers(-(10**12), 10**12))
    def test_negative_and_far_arguments(self, r, s, m):
        # The agreement sweep only reaches 0 <= m < r**s.
        assume(r**s <= 5000)
        assert cohen_ramanujan_direct(r, s, m) == cohen_ramanujan(r, s, m)

    def test_impossible_tolerance_raises(self, monkeypatch):
        # float round-off alone keeps the residual above an absurd bound
        monkeypatch.setattr(reference, "DIRECT_TOLERANCE", 1e-300)
        with pytest.raises(ConsistencyError):
            cohen_ramanujan_direct(3, 1, 1)


class TestStructure:
    def test_periodicity(self):
        for r in range(1, 13):
            for s in (1, 2, 3):
                rs = r**s
                for n in range(rs):
                    assert cohen_ramanujan(r, s, n) == cohen_ramanujan(r, s, n + rs)

    def test_argument_reduces_to_generalized_gcd(self):
        for r in range(1, 13):
            for s in (1, 2, 3):
                rs = r**s
                for n in range(rs):
                    reduced = generalized_gcd(n, rs, s) ** s
                    assert cohen_ramanujan(r, s, n) == cohen_ramanujan(r, s, reduced)

    @given(st.integers(1, 20), st.integers(1, 3), st.integers(-500, 500))
    def test_reflection(self, r, s, n):
        assert cohen_ramanujan(r, s, -n) == cohen_ramanujan(r, s, n)

    def test_collapse_under_any_containing_modulus(self):
        # for e | n the sum c_{e,s} only sees (m, n**s)_s
        for n in range(1, 13):
            for s in (1, 2):
                ns = n**s
                for e in [d for d in range(1, n + 1) if n % d == 0]:
                    for m in range(1, ns + 1):
                        collapsed = generalized_gcd(m, ns, s) ** s
                        assert cohen_ramanujan(e, s, m) == cohen_ramanujan(e, s, collapsed)

    def test_multiplicative_in_r(self):
        # coprime moduli split the sum; checked against the exponential oracle
        pairs = [(r, q) for r in range(1, 9) for q in range(1, 9) if math.gcd(r, q) == 1]
        for s in (1, 2):
            for r, q in pairs:
                if (r * q) ** s > 10**5:
                    continue
                for n in (0, 1, 5, 12):
                    lhs = cohen_ramanujan(r * q, s, n)
                    assert lhs == cohen_ramanujan(r, s, n) * cohen_ramanujan(q, s, n)
                    assert lhs == cohen_ramanujan_direct(r * q, s, n)


class TestReference:
    def test_matches_mobius_divisor_form(self):
        # Arguments past r**s, where the direct oracle's term budget ends,
        # are covered by r**s, 5 * r**s and r**(s + 1).
        for r in range(1, 200):
            for s in (1, 2, 3, 4):
                rs = r**s
                for m in [*range(-40, 200), rs, 5 * rs, r * rs]:
                    assert cohen_ramanujan(r, s, m) == _mobius_divisor_sum(r, s, m), (r, s, m)

    def test_argument_past_factorization_limit(self):
        # c_{r,s}(m) reads m only through valuations at the primes of r
        assert cohen_ramanujan(2, 50, 0) == 2**50 - 1
        assert cohen_ramanujan(2, 50, 2**60) == 2**50 - 1
        assert cohen_ramanujan(2, 50, 2**49) == -1
        assert cohen_ramanujan(1000003, 2, 0) == 1000006000008
        assert cohen_ramanujan(1000003, 2, 1000003**3 + 1) == -1
        assert cohen_ramanujan(4, 30, 2**29) == 0
