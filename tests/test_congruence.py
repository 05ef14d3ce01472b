import argparse
import itertools
import math
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from rescong import cli, congruence, verification
from rescong.arith import check_power, divisors, factorize, generalized_gcd, jordan_totient, mobius
from rescong.congruence import (
    ClassProfile,
    CongruenceInstance,
    class_members,
    class_profile,
    count_restricted,
    fourier_numerator,
)
from rescong.errors import SHOWN_BITS, BudgetExceededError, ConsistencyError, DomainError, show_int
from rescong.oracle import brute_force_count, convolution_count, enumerate_solutions
from rescong.ramanujan import cohen_ramanujan
from rescong.verification import SweepConfig, engine_sweep

from reference import (
    class_character_sum,
    cohen_ramanujan_direct,
    count_units_nicol,
    count_units_rademacher,
    count_unrestricted_lehmer,
)

WORKED = CongruenceInstance(n=4, s=2, b=5, restrictions=(1, 2))
# 5001 digits, past the interpreter's default 4300-digit int <-> str cap.
PAST_CAP = 10**5000


@pytest.fixture
def default_digit_cap():
    """Run under the interpreter's default cap on int <-> str conversion."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(cap)


def members_by_scan(n, s, d):
    """Class membership straight from the definition, no shortcuts."""
    ns = n**s
    return [x for x in range(1, ns + 1) if generalized_gcd(x, ns, s) == d]


def count_by_scan(n, s, b, ts):
    ns = n**s
    lists = [members_by_scan(n, s, t) for t in ts]
    return sum(1 for combo in itertools.product(*lists) if sum(combo) % ns == b % ns)


def units_count_by_scan(n, k, b):
    units = [x for x in range(1, n + 1) if math.gcd(x, n) == 1]
    return sum(1 for xs in itertools.product(units, repeat=k) if sum(xs) % n == b % n)


class TestInstance:
    def test_reduces_b_into_canonical_range(self):
        assert CongruenceInstance(4, 2, 21, (1,)).b == 5
        assert CongruenceInstance(4, 2, -11, (1,)).b == 5
        assert CongruenceInstance(4, 2, 16, ()).b == 0

    def test_rejects_non_divisor_restriction_naming_index(self):
        with pytest.raises(DomainError, match="t_2"):
            CongruenceInstance(4, 2, 5, (1, 3))

    def test_rejects_nonpositive_restriction(self):
        with pytest.raises(DomainError):
            CongruenceInstance(4, 1, 0, (0,))

    def test_rejects_bad_modulus(self):
        with pytest.raises(DomainError):
            CongruenceInstance(0, 1, 0, ())
        with pytest.raises(DomainError):
            CongruenceInstance(4, 0, 0, ())

    def test_k_zero_allowed(self):
        inst = CongruenceInstance(4, 2, 0, ())
        assert inst.k == 0 and inst.modulus == 16

    def test_keyword_construction_reduces_b_and_freezes_restrictions(self):
        inst = CongruenceInstance(n=4, s=2, b=21, restrictions=[1, 2])
        assert (inst.n, inst.s, inst.b, inst.restrictions) == (4, 2, 5, (1, 2))
        assert inst.k == 2 and inst.modulus == 16
        assert CongruenceInstance(n=6, s=1, b=-1).restrictions == ()

    def test_make_and_replace_check_like_construction(self):
        replaced = WORKED._replace(b=21)
        assert replaced == WORKED
        assert count_restricted(replaced) == brute_force_count(replaced) == 3
        assert convolution_count(replaced) == 3
        with pytest.raises(DomainError, match="t_1 = 3"):
            CongruenceInstance._make((4, 2, 5, (3,)))
        with pytest.raises(DomainError, match="t_2 = 3"):
            WORKED._replace(restrictions=(1, 3))
        frozen = WORKED._replace(restrictions=[1, 2])
        assert frozen.restrictions == (1, 2) and hash(frozen) == hash(WORKED)

    @pytest.mark.parametrize(
        "args,message",
        [
            ((0, 1, 0, ()), "n**s requires n, s >= 1"),
            ((4, 0, 0, ()), "n**s requires n, s >= 1"),
            ((4, 2, 5, (1, 3)), "restriction t_2 = 3 is not a positive divisor of n = 4"),
            ((4, 1, 0, (0,)), "restriction t_1 = 0 is not a positive divisor of n = 4"),
        ],
    )
    def test_domain_error_messages(self, args, message):
        with pytest.raises(DomainError) as info:
            CongruenceInstance(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "call",
        [
            lambda: count_restricted(CongruenceInstance(4, 2, 5.5, (1, 2))),
            lambda: CongruenceInstance(4, 2.0, 5, (1, 2)),
            lambda: CongruenceInstance(4, 2, 5, (3.0,)),
            lambda: cohen_ramanujan(4, 2, 5.5),
            lambda: cohen_ramanujan(4, 2.0, 16),
            lambda: factorize(12.0),
            lambda: (factorize(12), factorize(12.0)),
            lambda: divisors(4.0),
            lambda: mobius(6.0),
            lambda: generalized_gcd(12, 16, 2.0),
            lambda: class_character_sum(4, 2, 1, 16.0),
            lambda: jordan_totient(4.0, 2),
            lambda: class_members(4.0, 2, 2),
            lambda: cohen_ramanujan_direct(4, 2, 5.5),
            lambda: check_power(2.0, 3, "x"),
            lambda: check_power(2, 3.0, "x"),
            lambda: class_members(4, 2, 2.0),
            lambda: (class_members(4, 2, 2), class_members(4, 2, 2.0)),
            lambda: class_members(4, 2, 2, 3.0),
            lambda: brute_force_count(CongruenceInstance(4, 2, 5, (1, 2)), budget=1.5),
            lambda: convolution_count(CongruenceInstance(4, 2, 5, (1, 2)), budget=16.5),
            lambda: enumerate_solutions(CongruenceInstance(4, 2, 5, (1, 2)), 0.5),
            lambda: enumerate_solutions(CongruenceInstance(4, 2, 5, (1, 2)), 2.5),
        ],
        ids=[
            "count_b", "instance_s", "instance_t", "ramanujan_m", "ramanujan_s", "factorize_n",
            "factorize_n_after_int", "divisors_n", "mobius_n", "ggcd_s", "character_sum_m",
            "jordan_n", "class_members_n", "direct_n", "check_power_base", "check_power_exp",
            "class_members_d", "class_members_d_after_int", "class_members_budget",
            "brute_force_budget", "convolution_budget", "enumerate_limit_below_one",
            "enumerate_limit",
        ],
    )
    def test_non_integers_raise_type_error(self, call):
        with pytest.raises(TypeError):
            call()

    def test_fields_are_plain_ints(self):
        inst = CongruenceInstance(4, True, True, (True, 2))
        assert inst == (4, 1, 1, (1, 2))
        assert [type(x) for x in (inst.n, inst.s, inst.b, *inst.restrictions)] == [int] * 5

    def test_equality_and_hashing_follow_the_reduced_fields(self):
        a = CongruenceInstance(4, 2, 5, (1, 2))
        b = CongruenceInstance(n=4, s=2, b=21, restrictions=[1, 2])
        assert a == b and hash(a) == hash(b)
        assert len({a, b, CongruenceInstance(4, 2, 5, (2, 1))}) == 2
        assert a != CongruenceInstance(4, 2, 6, (1, 2))

    def test_repr_names_every_field(self):
        inst = CongruenceInstance(4, 2, 21, (1, 2))
        assert repr(inst) == "CongruenceInstance(n=4, s=2, b=5, restrictions=(1, 2))"

    def test_immutable(self):
        inst = CongruenceInstance(4, 2, 5, (1, 2))
        with pytest.raises(AttributeError):
            inst.b = 6
        with pytest.raises(AttributeError):
            inst.extra = 1


class TestClassProfile:
    def test_worked_example_profile(self):
        profile = class_profile(WORKED)
        assert profile == ClassProfile(divisors=(1, 2, 4), multiplicities=(1, 1, 0))

    def test_empty_restrictions(self):
        profile = class_profile(CongruenceInstance(4, 2, 0, ()))
        assert profile.multiplicities == (0, 0, 0)

    def test_multiset_counting(self):
        profile = class_profile(CongruenceInstance(6, 1, 0, (2, 2, 3)))
        assert profile.divisors == (1, 2, 3, 6)
        assert profile.multiplicities == (0, 2, 1, 0)
        # counting oracle: each multiplicity is a straight count
        for d, g in zip(profile.divisors, profile.multiplicities):
            assert g == sum(1 for t in (2, 2, 3) if t == d)

    @given(st.integers(1, 12), st.lists(st.integers(1, 12), max_size=6))
    def test_sums_to_k_when_valid(self, n, raw):
        ts = tuple(t for t in raw if n % t == 0)
        profile = class_profile(CongruenceInstance(n, 1, 0, ts))
        assert sum(profile.multiplicities) == len(ts)


class TestClassMembers:
    def test_worked_example_classes(self):
        assert class_members(4, 2, 1) == [1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15]
        assert class_members(4, 2, 2) == [4, 8, 12]
        assert class_members(4, 2, 4) == [16]

    @pytest.mark.parametrize("n,s", [(1, 1), (2, 2), (4, 2), (6, 1), (6, 2), (8, 1), (9, 2), (12, 1), (12, 2), (72, 2)])
    def test_matches_definition_scan(self, n, s):
        for d in divisors(n):
            assert class_members(n, s, d) == members_by_scan(n, s, d)

    def test_full_divisor_class_is_singleton(self):
        for n in (1, 2, 5, 6):
            for s in (1, 2):
                assert class_members(n, s, n) == [n**s]

    def test_sizes_are_jordan_totients_and_partition(self):
        for n in range(1, 13):
            for s in (1, 2):
                sizes = [len(class_members(n, s, d)) for d in divisors(n)]
                assert sizes == [jordan_totient(n // d, s) for d in divisors(n)]
                assert sum(sizes) == n**s

    def test_rejects_non_divisor(self):
        with pytest.raises(DomainError):
            class_members(4, 2, 3)

    @pytest.mark.parametrize("n,s", [(0, 1), (2, 0)])
    def test_rejects_nonpositive_n_or_s(self, n, s):
        with pytest.raises(DomainError, match="requires n, s >= 1"):
            class_members(n, s, 1)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            class_members(101, 1, 1, budget=100)


class TestCountRestricted:
    def test_worked_example(self):
        assert count_restricted(WORKED) == 3

    def test_worked_example_numerator(self):
        # 1*(12*3) + (-1)*((-4)*3) + 0 = 36 + 12 = 48, then 48 / 16 = 3
        assert fourier_numerator(WORKED) == 48

    @pytest.mark.parametrize(
        "numerator, failed, message",
        [(17, 1, "not divisible by modulus 16"), (-16, 0, "negative solution count -1")],
    )
    def test_invariant_violations_raise(self, monkeypatch, numerator, failed, message):
        # A copy of the stats, so the acceptance suite's "never fired" still holds.
        stats = dict(congruence.DIVISIBILITY_STATS)
        expected = {"checked": stats["checked"] + 1, "failed": stats["failed"] + failed}
        monkeypatch.setattr(congruence, "DIVISIBILITY_STATS", stats)
        monkeypatch.setattr(congruence, "fourier_numerator", lambda instance: numerator)
        with pytest.raises(ConsistencyError, match=message):
            count_restricted(WORKED)
        assert stats == expected

    def test_single_residue_modulus(self):
        for s in (1, 2, 3):
            for k in range(4):
                assert count_restricted(CongruenceInstance(1, s, 0, (1,) * k)) == 1

    def test_empty_sum_counts_zero_target_only(self):
        assert count_restricted(CongruenceInstance(4, 2, 5, ())) == 0
        assert count_restricted(CongruenceInstance(4, 2, 16, ())) == 1
        assert count_restricted(CongruenceInstance(4, 2, 0, ())) == 1

    def test_two_units_mod_three(self):
        inst = CongruenceInstance(3, 1, 0, (1, 1))
        assert count_restricted(inst) == 2 == count_by_scan(3, 1, 0, (1, 1))

    def test_matches_scan_on_small_grid(self):
        for n in (1, 2, 3, 4):
            for s in (1, 2):
                divs = divisors(n)
                for k in (0, 1, 2):
                    for ts in itertools.product(divs, repeat=k):
                        for b in range(n**s):
                            inst = CongruenceInstance(n, s, b, ts)
                            assert count_restricted(inst) == count_by_scan(n, s, b, ts)

    @given(
        st.integers(1, 6),
        st.integers(1, 2),
        st.integers(-50, 50),
        st.data(),
    )
    @settings(max_examples=60)
    def test_order_invariance(self, n, s, b, data):
        divs = divisors(n)
        ts = data.draw(st.lists(st.sampled_from(divs), min_size=0, max_size=4))
        perm = data.draw(st.permutations(ts))
        base = count_restricted(CongruenceInstance(n, s, b, tuple(ts)))
        assert base == count_restricted(CongruenceInstance(n, s, b, tuple(perm)))

    @given(st.integers(1, 6), st.integers(1, 2), st.integers(-100, 100), st.data())
    @settings(max_examples=60)
    def test_periodic_in_b(self, n, s, b, data):
        divs = divisors(n)
        ts = tuple(data.draw(st.lists(st.sampled_from(divs), max_size=3)))
        ns = n**s
        assert count_restricted(CongruenceInstance(n, s, b, ts)) == count_restricted(
            CongruenceInstance(n, s, b + ns, ts)
        )

    def test_count_depends_only_on_gcd_class_of_b(self):
        # replacing b by (b, n**s)_s leaves every term unchanged
        for n in (2, 3, 4, 6):
            for s in (1, 2):
                ns = n**s
                divs = divisors(n)
                for ts in itertools.product(divs, repeat=2):
                    for b in range(1, ns + 1):
                        collapsed = generalized_gcd(b, ns, s) ** s
                        assert count_restricted(
                            CongruenceInstance(n, s, b, ts)
                        ) == count_restricted(CongruenceInstance(n, s, collapsed, ts))

    def test_upper_bound_by_class_sizes(self):
        for n in (4, 6):
            for s in (1, 2):
                divs = divisors(n)
                for ts in itertools.product(divs, repeat=2):
                    cap = math.prod(jordan_totient(n // t, s) for t in ts)
                    for b in range(n**s):
                        assert 0 <= count_restricted(CongruenceInstance(n, s, b, ts)) <= cap

    def test_partition_over_all_restriction_tuples(self):
        for n in (2, 3, 4):
            for s in (1, 2):
                divs = divisors(n)
                for k in (1, 2, 3):
                    for b in range(n**s):
                        total = sum(
                            count_restricted(CongruenceInstance(n, s, b, ts))
                            for ts in itertools.product(divs, repeat=k)
                        )
                        assert total == n ** (s * (k - 1))

    def test_huge_count_stays_exact(self):
        # counts beyond 2**64 must survive; compare the two exact engines
        from rescong.oracle import convolution_count

        inst = CongruenceInstance(3, 1, 0, (1,) * 140)
        value = count_restricted(inst)
        assert value == convolution_count(inst)
        assert value > 2**64
        assert value == (2**140 + 2) // 3  # (J_1(3)**k + 2) / 3 at b == 0


def count_by_local_convolution(instance):
    """The count as a product over p**e || n of convolution counts mod p**(e*s).

    By the Chinese remainder theorem the class condition and the target
    split prime by prime, so each local instance has modulus p**(e*s).
    """
    from rescong.arith import factorize
    from rescong.oracle import convolution_count

    n, s = instance.n, instance.s
    out = 1
    for p, e in factorize(n):
        q = p**e
        local = tuple(math.gcd(t, q) for t in instance.restrictions)
        out *= convolution_count(CongruenceInstance(q, s, instance.b, local))
    return out


def literal_term(instance, d):
    """The term of divisor d in the paper's sum, every factor a cohen_ramanujan call."""
    n, s = instance.n, instance.s
    term = cohen_ramanujan(d, s, instance.b)
    for t, g in Counter(instance.restrictions).items():
        term *= cohen_ramanujan(n // t, s, n**s // d**s) ** g
    return term


def numerator_literally(instance):
    """The paper's pre-division sum with every factor a cohen_ramanujan call."""
    return sum(literal_term(instance, d) for d in divisors(instance.n))


# The warm benchmark's moduli and its (k, g) strata: k unknowns drawn
# from the divisors and a nonzero target b = g * u for a unit u.
WARM_NS = [720720, 360360, 55440, 5040]
WARM_STRATA = [(1, 1), (4, 2), (16, 6), (63, 12), (251, 60)]


def warm_instances(n, s, strata):
    """b = 0 and b = g * u for a unit u, per (k, g) stratum."""
    rng = random.Random(n * 10 + s)
    divs = divisors(n)
    for k, g in strata:
        ts = tuple(rng.choice(divs) for _ in range(k))
        u = rng.randrange(n**s // g)
        while math.gcd(u, n) != 1:
            u += 1
        for b in (0, g * u):
            yield CongruenceInstance(n, s, b, ts)


def local_factors(instance):
    """(factors, gs): per prime, (outer, inners) over b's box, as fourier_numerator reads them.

    inners lists each distinct t's column, cut to the box, in the order
    of gs, the multiplicity of each distinct t.
    """
    group = congruence._group(instance.n, instance.s, instance.restrictions)
    outers = group.outers(group.levels(instance.b))
    factors = [
        (outer, [columns[i][: len(outer)] for columns, _ in group.groups])
        for i, outer in enumerate(outers)
    ]
    return factors, [g for _, g in group.groups]


def assert_box_holds_the_nonzero_terms(instance):
    """A divisor's literal term is nonzero exactly when it lies in the box,
    and each factor is the Ramanujan sum its docstring names."""
    factors, _ = local_factors(instance)
    primes = factorize(instance.n)
    caps = [len(outer) - 1 for outer, _ in factors]
    assert all(0 <= cap <= e for (_, e), cap in zip(primes, caps))
    s, ts = instance.s, list(dict.fromkeys(instance.restrictions))
    for (p, e), (outer, inners) in zip(primes, factors):
        assert all(len(inner) == len(outer) for inner in inners)
        assert 0 not in outer and not any(0 in inner for inner in inners), (instance, factors)
        assert outer == [cohen_ramanujan(p**a, s, instance.b) for a in range(len(outer))]
        for t, inner in zip(ts, inners, strict=True):
            v = max(i for i in range(e + 1) if t % p**i == 0)
            expected = [cohen_ramanujan(p ** (e - v), s, p ** ((e - a) * s)) for a in range(len(inner))]
            assert inner == expected, (instance, p, t)
    for d in divisors(instance.n):
        inside = all(d % p ** (cap + 1) != 0 for (p, _), cap in zip(primes, caps))
        assert (literal_term(instance, d) != 0) == inside, (instance, d, caps)


def assert_local_sums_give_the_count(instance):
    """The count as a product over p**e || n of local counts (CRT).

    Each local sum sum_a outer[a] * prod_i inners[i][a] ** g_i is a
    multiple of p**(e*s); the sums multiply to the global numerator and
    the quotients to the count.
    """
    factors, gs = local_factors(instance)
    numerator = count = 1
    for (p, e), (outer, inners) in zip(factorize(instance.n), factors):
        local = sum(
            x * math.prod(inner[a] ** g for inner, g in zip(inners, gs))
            for a, x in enumerate(outer)
        )
        quotient, remainder = divmod(local, p ** (e * instance.s))
        assert remainder == 0, (instance, p, local)
        numerator *= local
        count *= quotient
    assert numerator == fourier_numerator(instance)
    assert count == count_restricted(instance)
    if instance.modulus <= 2000:
        assert count == count_by_local_convolution(instance)


class TestTermBox:
    """fourier_numerator visits exactly the divisors with a nonzero term,
    and its per-prime factors give the count prime by prime."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 3), st.integers(-(10**9), 10**9), st.data())
    def test_small_moduli(self, n, s, x, data):
        # b = c * x with c | n**s, so the level of b reaches every cap.
        c = data.draw(st.sampled_from(divisors(n**s)))
        ts = data.draw(st.lists(st.sampled_from(divisors(n)), max_size=4))
        inst = CongruenceInstance(n, s, c * x, ts)
        assert_box_holds_the_nonzero_terms(inst)
        assert_local_sums_give_the_count(inst)

    @pytest.mark.parametrize("n", WARM_NS)
    @pytest.mark.parametrize("s", [1, 2])
    def test_warm_moduli(self, n, s):
        for inst in warm_instances(n, s, WARM_STRATA[:4]):
            assert_box_holds_the_nonzero_terms(inst)
        for inst in warm_instances(n, s, WARM_STRATA):
            assert_local_sums_give_the_count(inst)

    def test_worked_example_box(self):
        # b = 5 is odd, so cap_2 = 1 at n = 4 = 2**2: d = 4 is the one term dropped.
        factors, gs = local_factors(WORKED)
        assert factors == [([1, -1], [[12, -4], [3, 3]])]  # inner lists for t = 1, 2
        assert gs == [1, 1]
        [(outer, inners)] = factors
        terms = [x * y * z for x, y, z in zip(outer, *inners)]
        # The d=1 and d=2 lines of scripts/worked_example.py.
        assert terms == [36, 12] == [literal_term(WORKED, d) for d in (1, 2)]
        assert sum(terms) == 48
        assert_box_holds_the_nonzero_terms(WORKED)
        assert_local_sums_give_the_count(WORKED)


class TestNumeratorDifferential:
    """fourier_numerator against the sum written out term by term."""

    @pytest.mark.parametrize("n", WARM_NS)
    @pytest.mark.parametrize("s", [1, 2])
    def test_divisor_heavy_moduli(self, n, s):
        # Every warm stratum, and the largest one at the smallest n.
        strata = list(WARM_STRATA)
        if n == 5040:
            strata.append((1000, 2520))
        for inst in warm_instances(n, s, strata):
            assert fourier_numerator(inst) == numerator_literally(inst)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 3), st.integers(-(10**9), 10**9), st.data())
    def test_small_moduli(self, n, s, b, data):
        divs = divisors(n)
        ts = data.draw(st.lists(st.sampled_from(divs), max_size=4))
        inst = CongruenceInstance(n, s, b, ts)
        assert fourier_numerator(inst) == numerator_literally(inst)


class TestLargeModulus:
    """Moduli n**s past the factorization limit, or with a gcd past it."""

    CASES = [(2, 50), (10000, 4), (1000003, 2), (720720, 2)]

    def targets(self, n, s):
        return (0, 1, 2**20, n**s - 1)

    def test_pinned_counts(self):
        assert count_restricted(CongruenceInstance(2, 50, 0, (1, 2))) == 0
        # C(1) mod 2**50 is everything but 2**50, and x_2 = -x_1 stays in it
        assert count_restricted(CongruenceInstance(2, 50, 0, (1, 1))) == 2**50 - 1
        assert count_restricted(CongruenceInstance(10000, 4, 0, (1, 10))) == 0
        # x_2 = -x_1 for a unit x_1: J_2(p) = p**2 - 1 solutions
        assert count_restricted(CongruenceInstance(1000003, 2, 0, (1, 1))) == 1000003**2 - 1

    @pytest.mark.parametrize("n,s", CASES[:3])
    def test_partition_over_all_restriction_pairs(self, n, s):
        divs = divisors(n)
        for b in self.targets(n, s):
            total = sum(
                count_restricted(CongruenceInstance(n, s, b, ts))
                for ts in itertools.product(divs, repeat=2)
            )
            assert total == n**s

    def test_partition_rows_at_divisor_heavy_modulus(self):
        # The full 240**2 square takes minutes; each row t_1 sums to the
        # class size J_s(n / t_1), and the rows sum to n**s.
        n, s = 720720, 2
        divs = divisors(n)
        for b in self.targets(n, s):
            for t1 in (1, 5040):
                row = sum(count_restricted(CongruenceInstance(n, s, b, (t1, t2))) for t2 in divs)
                assert row == jordan_totient(n // t1, s)

    def test_matches_local_convolution_product(self):
        # every p**(e*s) of 720720**2 is at most 2**8, so the oracle is cheap
        n, s = 720720, 2
        rng = random.Random(26)
        divs = divisors(n)
        large_k = [tuple(rng.choice(divs) for _ in range(k)) for k in (63, 251)]
        for b in self.targets(n, s):
            for ts in [(1, 1), (2, 3), (4, 15, 720720), (1, 6, 11, 5040), (13,) * 5, *large_k]:
                inst = CongruenceInstance(n, s, b, ts)
                assert count_restricted(inst) == count_by_local_convolution(inst)


class TestPowerBound:
    """A power past 2**20 bits is refused before it is built."""

    HUGE = 10**20

    @pytest.mark.parametrize(
        "entry",
        [
            lambda s: CongruenceInstance(2, s, 0, (1,)),
            lambda s: cohen_ramanujan(2, s, 0),
            lambda s: class_members(2, s, 1),
            lambda s: jordan_totient(2, s),
            lambda s: verification._blocks(SweepConfig(max_n=2, s_values=(1, s), max_k=0))[-1],
            lambda s: engine_sweep(SweepConfig(max_n=2, s_values=(s,), max_k=0)),
        ],
        ids=["instance", "cohen_ramanujan", "class_members", "jordan_totient", "sizing", "sweep"],
    )
    def test_huge_power_is_domain_error_at_once(self, entry):
        # Building 2**(10**20) asked for exabytes and ended in MemoryError.
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match=r"\*\*s would have more than 2\*\*66 bits"):
            entry(self.HUGE)
        assert time.perf_counter() - t0 < 1.0

    def test_base_one_is_unbounded(self):
        inst = CongruenceInstance(1, self.HUGE, 5, (1, 1))
        assert inst.b == 0 and count_restricted(inst) == 1
        assert cohen_ramanujan(1, self.HUGE, 7) == 1
        assert jordan_totient(1, self.HUGE) == 1
        assert class_members(1, self.HUGE, 1) == [1]

    @pytest.mark.parametrize(
        "entry,message",
        [
            (lambda n, s: CongruenceInstance(n, s, 0), "n**s requires n, s >= 1"),
            (lambda n, s: class_members(n, s, 1), "n**s requires n, s >= 1"),
            (jordan_totient, "n**s requires n, s >= 1"),
            (lambda r, s: cohen_ramanujan(r, s, 0), "r**s requires r, s >= 1"),
            (lambda r, s: cohen_ramanujan_direct(r, s, 0), "r**s requires r, s >= 1"),
            (
                lambda n, s: cli.cmd_classes(
                    argparse.Namespace(n=n, s=s, elements=False, budget=None)
                ),
                "n**s requires n, s >= 1",
            ),
            (
                lambda n, s: verification._blocks(SweepConfig(max_n=n, s_values=(s,)))[-1],
                "max_n**s requires max_n, s >= 1",
            ),
        ],
        ids=["instance", "class_members", "jordan_totient", "cohen_ramanujan",
             "cohen_ramanujan_direct", "cli_classes", "sweep"],
    )
    @pytest.mark.parametrize(
        "base,exp",
        [
            pytest.param(base, exp, id=f"{base_id}-{exp_id}")
            for (base, base_id), (exp, exp_id) in itertools.product(
                [(6, "6"), (0, "0"), (-PAST_CAP, "-10**5000")],
                [(2, "2"), (0, "0"), (-PAST_CAP, "-10**5000")],
            )
            if (base, exp) != (6, 2)
        ],
    )
    def test_base_or_exponent_below_one_is_refused_by_the_gate(
        self, default_digit_cap, entry, message, base, exp
    ):
        with pytest.raises(DomainError) as info:
            entry(base, exp)
        assert str(info.value) == message


class TestMessagesUnderDigitCap:
    """No error message prints an integer past the default int -> str cap."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: count_restricted(CongruenceInstance(PAST_CAP, 1, 0, ())),
            lambda: cohen_ramanujan(PAST_CAP, 1, 0),
            lambda: CongruenceInstance(6, 1, 0, (PAST_CAP,)),
            lambda: class_members(6, 1, PAST_CAP),
            lambda: generalized_gcd(PAST_CAP, PAST_CAP, 2),
            lambda: divisors(PAST_CAP),
            lambda: mobius(-PAST_CAP),
            lambda: generalized_gcd(4, 8, -PAST_CAP),
            lambda: enumerate_solutions(WORKED, -PAST_CAP),
        ],
        ids=["count", "cohen_ramanujan", "restriction", "class_members", "ggcd", "divisors",
             "mobius", "ggcd_power", "limit"],
    )
    def test_domain_error_gives_the_size_of_a_huge_input(self, default_digit_cap, call):
        with pytest.raises(DomainError, match=r"integer of 16610 bits"):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: class_members(2, 20000, 1),
            lambda: brute_force_count(CongruenceInstance(2, 20000, 0, (1,))),
            lambda: convolution_count(CongruenceInstance(2, 20000, 0, (1,))),
            lambda: class_members(2 * PAST_CAP, 1, PAST_CAP, budget=1),
        ],
        ids=["class_members", "brute_force", "convolution", "class_of_huge_d"],
    )
    def test_budget_error_gives_the_size_of_a_huge_number(self, default_digit_cap, call):
        # 2**20000, a class or tuple space or modulus, has 6021 digits; d = 10**5000 has 5001.
        with pytest.raises(BudgetExceededError, match=r"integer of (2000\d|16610) bits"):
            call()

    @pytest.mark.parametrize(
        "numerator, b, message",
        [
            (2**20000 + 1, 0, "formula sum an integer of 20001 bits is not divisible by "
             "modulus an integer of 20001 bits for n=2 s=20000 b=0 k=0"),
            (-(2**20000), 2**19999 + 1,
             "negative solution count -1 for n=2 s=20000 b=an integer of 20000 bits k=0"),
        ],
        ids=["not_divisible", "negative"],
    )
    def test_consistency_error_gives_the_size_of_a_huge_number(
        self, monkeypatch, default_digit_cap, numerator, b, message
    ):
        # n**s = 2**20000 has 6021 digits; a copy of the stats keeps the
        # acceptance suite's "never fired" true.
        monkeypatch.setattr(congruence, "DIVISIBILITY_STATS", dict(congruence.DIVISIBILITY_STATS))
        monkeypatch.setattr(congruence, "fourier_numerator", lambda instance: numerator)
        with pytest.raises(ConsistencyError, match=f"^{message}$"):
            count_restricted(CongruenceInstance(2, 20000, b, ()))

    def test_decimal_up_to_shown_bits(self):
        with pytest.raises(DomainError, match=r"^mobius requires n >= 1, got -5$"):
            mobius(-5)
        assert show_int(1 - 2**SHOWN_BITS) == str(1 - 2**SHOWN_BITS)
        assert show_int(2**SHOWN_BITS) == f"an integer of {SHOWN_BITS + 1} bits"


class TestCountBound:
    """A count whose bound from the class sizes passes 2**21 bits is refused before the sum."""

    def test_refused_at_once(self):
        # Five unknowns in C(1) of 2**1048575: a bound of 4 * 1048575 bits.
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match=r"has 2\*\*21 bits or more, past the limit of 2097152"):
            count_restricted(CongruenceInstance(2, 1048575, 0, (1,) * 5))
        assert time.perf_counter() - t0 < 1.0

    def test_zero_count_is_refused_by_its_size(self):
        # An even number of odd units never sums to an odd target ...
        assert count_restricted(CongruenceInstance(14, 1, 1, (1,) * 4)) == 0
        # ... but 60,000 units mod 2p bound the count by 59,999 * log2(p - 1) bits.
        with pytest.raises(DomainError, match="past the limit"):
            count_restricted(CongruenceInstance(2 * 499999999979, 1, 1, (1,) * 60000))

    def test_one_unknown_and_size_one_classes_add_nothing(self):
        assert count_restricted(CongruenceInstance(2, 1048575, 0, (1,))) == 0
        assert count_restricted(CongruenceInstance(2, 1048575, 0, (2,) * 5)) == 1
        # Each odd unknown mod 2 has a class of size 1: log2 1 is 0 bits, not 1.
        assert count_restricted(CongruenceInstance(2, 1, 0, (1,) * (2**21 + 2))) == 1

    def test_bound_leaves_out_one_unknown(self, monkeypatch):
        # Two units mod 3 sum to 0 in J_1(3) = 2 ways: a 1-bit bound, not 2.
        monkeypatch.setattr(congruence, "MAX_COUNT_BITS", 1)
        assert count_restricted(CongruenceInstance(3, 1, 0, (1, 1))) == 2

    @pytest.mark.parametrize("n,s", [(1, 1), (4, 2), (6, 1), (12, 1), (8, 2), (30, 1)])
    def test_bound_is_at_least_the_count(self, monkeypatch, n, s):
        # With the limit just below log2(count), every nonzero count is refused.
        divs = divisors(n)
        for k in range(4):
            for ts in itertools.combinations_with_replacement(divs, k):
                for b in {0, 1, n, n**s - 1}:
                    inst = CongruenceInstance(n, s, b, ts)
                    count = count_restricted(inst)
                    if count:
                        monkeypatch.setattr(congruence, "MAX_COUNT_BITS", math.log2(count) - 1e-9)
                        with pytest.raises(DomainError):
                            count_restricted(inst)
                        monkeypatch.undo()


def memo_answers(inst):
    """The numerator, the count and brute force's count (None if refused) of one instance."""
    try:
        brute = brute_force_count(inst, budget=256)
    except BudgetExceededError:
        brute = None
    return fourier_numerator(inst), count_restricted(inst), brute


class TestGroupMemos:
    """The one-group memos of the closed form and of brute force change no answer."""

    GROUPS = [
        (n, s, ts)
        for n in range(1, 13)
        for s in (1, 2)
        for k in range(4)
        for ts in itertools.product(divisors(n), repeat=k)
    ]

    def test_b_innermost_and_outermost_agree(self):
        # b innermost: each group's later b read its tables and level
        # classes.  b outermost: no two calls in a row share a group, so
        # every numerator is summed anew.
        congruence._group.cache_clear()
        inner = {}
        for n, s, ts in self.GROUPS:
            for b in range(n**s):
                inner[n, s, b, ts] = memo_answers(CongruenceInstance(n, s, b, ts))
        assert congruence._group.cache_info().misses == len(self.GROUPS)
        congruence._group.cache_clear()
        outer = {}
        for b in range(12**2):
            for n, s, ts in self.GROUPS:
                if b < n**s:
                    outer[n, s, b, ts] = memo_answers(CongruenceInstance(n, s, b, ts))
        assert congruence._group.cache_info().misses == len(outer)
        assert len(inner) == 67_392 and outer == inner
        answered = [(count, brute) for _, count, brute in inner.values() if brute is not None]
        assert 30_000 < len(answered) < 40_000
        assert all(count == brute for count, brute in answered)

    def test_hit_runs_the_invariant(self, monkeypatch):
        stats = dict(congruence.DIVISIBILITY_STATS)
        monkeypatch.setattr(congruence, "DIVISIBILITY_STATS", stats)
        assert count_restricted(CongruenceInstance(12, 2, 5, (1, 2))) == 21
        checked = stats["checked"]
        # 7 is a unit too: the same level class, so its numerator is read.
        group = congruence._group(12, 2, (1, 2))
        assert group.levels(7) == group.levels(5) in group.numerators
        assert count_restricted(CongruenceInstance(12, 2, 7, (1, 2))) == 21
        assert stats == {"checked": checked + 1, "failed": 0}

    def test_hit_honours_the_count_bound(self, monkeypatch):
        assert count_restricted(CongruenceInstance(12, 2, 5, (1, 1, 1))) == 6384
        group = congruence._group(12, 2, (1, 1, 1))
        assert group.levels(7) in group.numerators
        monkeypatch.setattr(congruence, "MAX_COUNT_BITS", math.log2(6384) - 1e-9)
        with pytest.raises(DomainError, match="past the limit"):
            count_restricted(CongruenceInstance(12, 2, 7, (1, 1, 1)))

    def test_hit_honours_a_smaller_budget(self):
        # J_2(12)**2 = 96**2 = 9216 tuples: the lists kept for a budget of
        # 10,000 do not answer a budget of 9215.
        inst = CongruenceInstance(12, 2, 5, (1, 1))
        assert brute_force_count(inst, budget=10_000) == count_restricted(inst)
        with pytest.raises(BudgetExceededError, match="at least 9216 tuples"):
            brute_force_count(inst._replace(b=7), budget=9215)


class TestLehmer:
    def lehmer_by_scan(self, coeffs, b, n):
        return sum(
            1
            for xs in itertools.product(range(n), repeat=len(coeffs))
            if sum(a * x for a, x in zip(coeffs, xs)) % n == b % n
        )

    def test_two_unit_coefficients(self):
        assert count_unrestricted_lehmer([1, 1], 0, 2) == 2 == self.lehmer_by_scan([1, 1], 0, 2)

    def test_unsolvable(self):
        assert count_unrestricted_lehmer([2], 1, 4) == 0 == self.lehmer_by_scan([2], 1, 4)

    def test_general_coefficients(self):
        assert count_unrestricted_lehmer([2, 4], 2, 6) == 12 == self.lehmer_by_scan([2, 4], 2, 6)

    def test_rejects_empty_coefficients(self):
        with pytest.raises(DomainError):
            count_unrestricted_lehmer([], 0, 4)

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=3),
        st.integers(-10, 10),
        st.integers(1, 8),
    )
    @settings(max_examples=80)
    def test_matches_scan(self, coeffs, b, n):
        assert count_unrestricted_lehmer(coeffs, b, n) == self.lehmer_by_scan(coeffs, b, n)


class TestUnitsCounts:
    def test_trivial_modulus(self):
        assert count_units_rademacher(1, 3, 0) == 1
        assert count_units_nicol(1, 3, 0) == 1

    def test_odd_pairs_mod_four(self):
        assert count_units_rademacher(4, 2, 0) == 2 == units_count_by_scan(4, 2, 0)
        assert count_units_nicol(4, 2, 0) == 2

    def test_units_mod_five(self):
        assert count_units_rademacher(5, 2, 1) == 3 == units_count_by_scan(5, 2, 1)
        assert count_units_nicol(5, 2, 1) == 3

    def test_formulas_agree_with_scan(self):
        for n in range(1, 11):
            for k in (1, 2, 3):
                for b in range(n):
                    expected = units_count_by_scan(n, k, b)
                    assert count_units_rademacher(n, k, b) == expected
                    assert count_units_nicol(n, k, b) == expected

    def test_nicol_is_all_units_restriction(self):
        assert count_units_nicol(6, 3, 2) == count_restricted(
            CongruenceInstance(6, 1, 2, (1, 1, 1))
        )

    def test_prime_product_and_ramanujan_forms_agree(self):
        for n in range(1, 31):
            for k in range(1, 7):
                for b in range(n):
                    assert count_units_rademacher(n, k, b) == count_units_nicol(n, k, b)

    def test_rejects_k_zero(self):
        with pytest.raises(DomainError):
            count_units_rademacher(4, 0, 0)
        with pytest.raises(DomainError):
            count_units_nicol(4, 0, 0)
