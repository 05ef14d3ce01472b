import math

import pytest
from hypothesis import given, strategies as st

from rescong.arith import (
    FACTORIZE_LIMIT,
    MAX_POWER_BITS,
    check_power,
    divisors,
    factorize,
    generalized_gcd,
    jordan_totient,
    mobius,
    _is_prime,
)
from rescong.errors import DomainError

from reference import is_prime as trial_is_prime


def scan_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def scan_ggcd(a, b, s):
    """The largest l with l**s dividing both, by direct scan over candidate bases."""
    a, b = abs(a), abs(b)
    cap = min(x for x in (a, b) if x) if (a == 0 or b == 0) else min(a, b)
    best = 1
    l = 2
    while l**s <= cap:
        ls = l**s
        if a % ls == 0 and b % ls == 0:
            best = l
        l += 1
    return best


class TestIsPrime:
    def test_matches_trial_division_below_200000(self):
        assert [n for n in range(200_000) if _is_prime(n) != trial_is_prime(n)] == []

    @pytest.mark.parametrize(
        "n",
        [
            2047,  # strong pseudoprime to base 2
            1373653,  # to bases 2 and 3
            25326001,  # to bases 2, 3 and 5
            3215031751,  # to bases 2, 3, 5 and 7
            2152302898747,  # to bases 2, 3, 5, 7 and 11: only base 13 decides it
            561,  # Carmichael numbers
            41041,
            825265,
        ],
    )
    def test_pseudoprimes_are_composite(self, n):
        assert not trial_is_prime(n)
        assert not _is_prime(n)

    def test_exact_bound_is_past_the_factorization_limit(self):
        # 3474749660383 = 1303 * 16927 * 157543 is the least strong
        # pseudoprime to all six bases; every number below it is decided.
        assert 1303 * 16927 * 157543 == 3474749660383 > FACTORIZE_LIMIT
        assert _is_prime(3474749660383)


class TestFactorize:
    def test_one_has_empty_factor_list(self):
        assert factorize(1) == ()

    def test_prime_power(self):
        assert factorize(16) == ((2, 4),)

    def test_composite(self):
        pairs = factorize(360)
        assert pairs == ((2, 3), (3, 2), (5, 1))
        assert math.prod(p**e for p, e in pairs) == 360

    @pytest.mark.parametrize("bad", [0, -1, -360])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(DomainError):
            factorize(bad)

    def test_rejects_beyond_limit(self):
        with pytest.raises(DomainError):
            factorize(FACTORIZE_LIMIT + 1)

    @pytest.mark.parametrize(
        "n,expected",
        [
            (999999999989, ((999999999989, 1),)),  # the largest prime below 10**12
            (2 * 499999999979, ((2, 1), (499999999979, 1))),
            # composite, so trial division still has to find 999983
            (999983**2, ((999983, 2),)),
            (3215031751, ((151, 1), (751, 1), (28351, 1))),
            (10**12, ((2, 12), (5, 12))),
            # a prime power, and a large prime left after 2 and 3 or the wheel
            (2**39, ((2, 39),)),
            (3**25, ((3, 25),)),
            (999999999906, ((2, 1), (3, 1), (166666666651, 1))),
            (999999995995, ((5, 1), (7, 1), (11, 1), (13, 1), (199800199, 1))),
        ],
    )
    def test_near_the_limit(self, n, expected):
        assert factorize(n) == expected
        assert all(trial_is_prime(p) for p, _ in expected)

    def test_large_semiprime_within_limit(self):
        n = 999983 * 999979
        assert factorize(n) == ((999979, 1), (999983, 1))

    def test_every_n_below_30000(self):
        for n in range(1, 30_000):
            pairs = factorize.__wrapped__(n)
            assert math.prod(p**e for p, e in pairs) == n
            primes = [p for p, _ in pairs]
            assert primes == sorted(set(primes)), n
            assert all(e >= 1 for _, e in pairs), n
            assert all(trial_is_prime(p) for p in primes), n

    @given(st.integers(min_value=1, max_value=100_000))
    def test_valid_factorization(self, n):
        pairs = factorize(n)
        assert math.prod(p**e for p, e in pairs) == n
        primes = [p for p, _ in pairs]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)
        assert all(e >= 1 for _, e in pairs)
        assert all(trial_is_prime(p) for p in primes)


class TestDivisors:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, [1]), (4, [1, 2, 4]), (12, [1, 2, 3, 4, 6, 12])],
    )
    def test_known(self, n, expected):
        assert divisors(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            divisors(0)

    @given(st.integers(min_value=1, max_value=2000))
    def test_matches_scan(self, n):
        divs = divisors(n)
        assert divs == scan_divisors(n)
        assert divs[0] == 1 and divs[-1] == n


class TestMobius:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, -1), (4, 0), (6, 1), (30, -1)])
    def test_known(self, n, expected):
        assert mobius(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            mobius(0)

    def test_summatory_identity(self):
        # sum of mu over the divisors of n is 1 at n == 1 and 0 otherwise
        for n in range(1, 201):
            total = sum(mobius(d) for d in divisors(n))
            assert total == (1 if n == 1 else 0)


class TestEulerPhi:
    def scan_phi(self, n):
        return sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)

    @pytest.mark.parametrize("n,expected", [(1, 1), (4, 2), (12, 4)])
    def test_known(self, n, expected):
        assert jordan_totient(n, 1) == expected
        assert self.scan_phi(n) == expected

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 97])
    def test_prime(self, p):
        assert jordan_totient(p, 1) == p - 1

    @given(st.integers(min_value=1, max_value=500))
    def test_matches_scan(self, n):
        assert jordan_totient(n, 1) == self.scan_phi(n)


class TestJordanTotient:
    @pytest.mark.parametrize("n,s,expected", [(4, 2, 12), (2, 2, 3), (1, 5, 1)])
    def test_known(self, n, s, expected):
        assert jordan_totient(n, s) == expected

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            jordan_totient(0, 1)
        with pytest.raises(DomainError):
            jordan_totient(4, 0)

    def test_divisor_sum_partition(self):
        # the classes of [1, n**s] by generalized gcd partition it, so the
        # class sizes J_s(n/d) over d | n must add up to n**s
        for s in (1, 2, 3):
            for n in range(1, 51):
                assert sum(jordan_totient(n // d, s) for d in divisors(n)) == n**s


class TestGgcd:
    @pytest.mark.parametrize(
        "a,b,s,expected",
        [(5, 16, 2, 1), (12, 16, 2, 2), (16, 16, 2, 4), (72, 36, 2, 6)],
    )
    def test_known(self, a, b, s, expected):
        assert generalized_gcd(a, b, s) == expected
        assert scan_ggcd(a, b, s) == expected

    @given(st.integers(-300, 300), st.integers(-300, 300))
    def test_s_one_is_gcd(self, a, b):
        if a == 0 and b == 0:
            return
        assert generalized_gcd(a, b, 1) == math.gcd(abs(a), abs(b))

    def test_s_one_needs_no_factorization(self):
        # the gcd 2 * 10**12 lies past FACTORIZE_LIMIT
        assert generalized_gcd(4 * 10**12, 6 * 10**12, 1) == 2 * 10**12
        prime_square = 1_000_003**2
        assert generalized_gcd(prime_square, 0, 1) == prime_square

    def test_exhaustive_scan_equivalence(self):
        for s in (1, 2, 3):
            for a in range(1, 65):
                for b in range(1, 65):
                    assert generalized_gcd(a, b, s) == scan_ggcd(a, b, s)

    @given(st.integers(1, 200), st.integers(1, 200), st.integers(1, 3))
    def test_b_periodic_in_first_argument(self, a, b, s):
        assert generalized_gcd(a + b, b, s) == generalized_gcd(a, b, s)

    @given(st.integers(1, 10_000), st.integers(1, 10_000), st.integers(1, 4))
    def test_divides_gcd_and_is_perfect_power(self, a, b, s):
        l = generalized_gcd(a, b, s)
        g = math.gcd(a, b)
        assert type(l) is int and l >= 1
        assert g % l**s == 0
        assert all(g % (l * p) ** s for p, _ in factorize(g))

    def test_zero_argument_takes_power_part_of_other(self):
        # every l**s divides 0, so only the nonzero argument constrains
        assert generalized_gcd(0, 48, 2) == 4
        assert generalized_gcd(48, 0, 2) == 4
        assert generalized_gcd(0, 7, 3) == 1

    def test_negative_arguments_sign_blind(self):
        assert generalized_gcd(-12, 16, 2) == 2
        assert generalized_gcd(12, -16, 2) == 2

    def test_both_zero_rejected(self):
        with pytest.raises(DomainError):
            generalized_gcd(0, 0, 2)

    def test_s_zero_rejected(self):
        with pytest.raises(DomainError):
            generalized_gcd(4, 8, 0)


class TestCheckPower:
    @pytest.mark.parametrize(
        "base,exp",
        [
            (2, MAX_POWER_BITS - 1),
            (2, MAX_POWER_BITS),
            (3, 661_577),  # 3**661577 has 1048575 bits
            (3, 661_578),  # and 3**661578 has 1048577
            (2**20 - 1, 52_428),
            (2**20 - 1, 52_429),
            (10**1000, 315),
            (10**1000, 316),
        ],
    )
    def test_refuses_exactly_the_powers_past_the_bound(self, base, exp):
        if (base**exp).bit_length() > MAX_POWER_BITS:
            with pytest.raises(DomainError, match=r"^x\*\*y would have more than 2\*\*\d+ bits"):
                check_power(base, exp, "x**y")
        else:
            check_power(base, exp, "x**y")

    def test_bound_is_two_to_the_twentieth_bits(self):
        # By value, not through the constant: 2**1048575 has 2**20 bits, one more is refused.
        check_power(2, 1048575, "n**s")
        with pytest.raises(DomainError, match=r"past the bound of 1048576 bits on a power$"):
            check_power(2, 1048576, "n**s")

    @pytest.mark.parametrize("base", [0, 1])
    def test_bases_zero_and_one_are_unbounded(self, base):
        # Base 1 passes at any exponent; base 0 is refused by the x, y >= 1 rule, not by size.
        if base == 0:
            with pytest.raises(DomainError, match=r"^x\*\*y requires x, y >= 1$"):
                check_power(base, 10**5000, "x**y")
        else:
            check_power(base, 10**5000, "x**y")

    def test_message_gives_bits_as_a_power_of_two(self):
        # The exponent has more digits than the int -> str cap allows.
        with pytest.raises(DomainError, match=r"more than 2\*\*16612 bits"):
            check_power(2, 10**5001, "n**s")
