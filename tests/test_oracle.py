import itertools
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from rescong import oracle
from rescong.arith import divisors, generalized_gcd
from rescong.congruence import CongruenceInstance, class_members, count_restricted
from rescong.errors import BudgetExceededError, ConsistencyError, DomainError
from rescong.oracle import brute_force_count, convolution_count, enumerate_solutions
from rescong.ramanujan import cohen_ramanujan

from reference import class_character_sum

WORKED = CongruenceInstance(n=4, s=2, b=5, restrictions=(1, 2))


@st.composite
def small_instances(draw):
    n = draw(st.integers(1, 6))
    s = draw(st.integers(1, 2))
    k = draw(st.integers(0, 3))
    divs = divisors(n)
    ts = tuple(draw(st.sampled_from(divs)) for _ in range(k))
    b = draw(st.integers(-(n**s), 2 * n**s))
    return CongruenceInstance(n=n, s=s, b=b, restrictions=ts)


class TestBruteForce:
    def test_worked_example(self):
        assert brute_force_count(WORKED) == 3

    def test_single_unit_mod_one(self):
        assert brute_force_count(CongruenceInstance(1, 1, 0, (1,))) == 1

    def test_same_class_pair_misses_target(self):
        # sums of two members of {4, 8, 12} are 0 mod 4, never 5
        assert brute_force_count(CongruenceInstance(4, 2, 5, (2, 2))) == 0

    def test_k_zero(self):
        assert brute_force_count(CongruenceInstance(4, 2, 0, ())) == 1
        assert brute_force_count(CongruenceInstance(4, 2, 5, ())) == 0

    def test_budget_error_points_to_convolution(self):
        inst = CongruenceInstance(6, 2, 0, (1, 1, 1))
        with pytest.raises(BudgetExceededError, match="convolution_count"):
            brute_force_count(inst, budget=100)

    def test_budget_covers_each_class_scan(self):
        # 12 tuples fit in a budget of 13, but enumerating C(1) scans
        # (4/1)**2 = 16 slots.
        inst = CongruenceInstance(4, 2, 5, (1,))
        assert brute_force_count(inst, budget=16) == 1
        with pytest.raises(BudgetExceededError, match=r"C\(1\)"):
            brute_force_count(inst, budget=13)

    def test_budget_checks_class_sizes_not_slots(self):
        # (6/1)**1 * (6/1)**1 = 36 slots, but only J_1(6)**2 = 4 tuples.
        assert brute_force_count(CongruenceInstance(6, 1, 0, (1, 1)), budget=10) == 2

    def test_budget_error_names_first_partial_product_past_budget(self):
        # J_1(6) = 2 per unknown: partial products 2, 4, 8, 16; 16 > 10.
        inst = CongruenceInstance(6, 1, 0, (1,) * 5)
        with pytest.raises(BudgetExceededError, match="at least 16 tuples"):
            brute_force_count(inst, budget=10)
        # The empty product 1 is already past a budget of 0, even at k == 0.
        for ts in ((), (1, 1)):
            with pytest.raises(BudgetExceededError, match="at least 1 tuples"):
                brute_force_count(CongruenceInstance(6, 1, 0, ts), budget=0)


class TestConvolution:
    def test_worked_example(self):
        assert convolution_count(WORKED) == 3

    def test_k_zero_is_delta(self):
        assert convolution_count(CongruenceInstance(4, 2, 0, ())) == 1
        assert convolution_count(CongruenceInstance(4, 2, 7, ())) == 0

    def test_agrees_with_brute_force_on_mixed_classes(self):
        inst = CongruenceInstance(6, 1, 3, (1, 2, 3))
        assert convolution_count(inst) == brute_force_count(inst)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            convolution_count(CongruenceInstance(7, 2, 0, (1,)), budget=10)

    def test_budget_covers_class_enumeration(self):
        # n**s = 1002001 is past the default class budget; C(n) = {n**s}
        # keeps the one class small.
        inst = CongruenceInstance(1001, 2, 0, (1001, 1001))
        assert convolution_count(inst, budget=2 * 10**6) == 1
        with pytest.raises(BudgetExceededError):
            convolution_count(inst, budget=10**6)

    @pytest.mark.parametrize("n,s,t", [(6, 1, 1), (4, 2, 2)])
    def test_repeated_squaring_matches_brute_force(self, n, s, t):
        # g = 1..9 walks odd and even exponents through the square-and-multiply loop.
        for g in range(1, 10):
            for b in range(n**s):
                inst = CongruenceInstance(n, s, b, (t,) * g)
                assert convolution_count(inst) == brute_force_count(inst), (g, b)

    def test_mixed_classes_at_s_3(self):
        # |C(1)| = 56, |C(2)| = 7, |C(4)| = 1 mod 4**3; t = 2 is squared.
        for b in range(4**3):
            inst = CongruenceInstance(4, 3, b, (2, 1, 2, 4))
            assert convolution_count(inst) == brute_force_count(inst), b

    def test_mass_check_fires(self, monkeypatch):
        # A member listed twice adds to the expected mass but not to the
        # 0/1 indicator, so the slots sum short of it.
        real = oracle.class_members

        def doubled_first(n, s, t, budget):
            members = real(n, s, t, budget)
            return members + members[:1]

        oracle._distribution.cache_clear()  # a memo hit would list no class
        monkeypatch.setattr(oracle, "class_members", doubled_first)
        with pytest.raises(ConsistencyError, match="convolution mass"):
            convolution_count(WORKED)

    def test_memo_follows_the_group(self):
        # A, then B, then A again at another b: each read is of its own group.
        a1 = CongruenceInstance(4, 2, 5, (1, 2))
        b = CongruenceInstance(6, 1, 3, (1, 2, 3))
        a2 = a1._replace(b=6)
        for inst in (a1, b, a2):
            assert convolution_count(inst) == brute_force_count(inst), inst

    def test_budget_is_checked_before_the_memo(self):
        inst = CongruenceInstance(4, 2, 5, (1, 2))
        assert convolution_count(inst) == 3
        with pytest.raises(BudgetExceededError):
            convolution_count(inst, budget=10)

    def test_next_b_of_a_group_hits_the_memo(self):
        oracle._distribution.cache_clear()
        for b in (5, 8):
            inst = CongruenceInstance(4, 2, b, (1, 2))
            assert convolution_count(inst) == brute_force_count(inst)
        assert oracle._distribution.cache_info().hits == 1

    def test_total_mass_is_product_of_class_sizes(self):
        # summing the count over every target b recovers the tuple space size
        for n, s, ts in [(4, 2, (1, 2)), (6, 1, (1, 2, 3)), (6, 2, (2, 3))]:
            sizes = [len(class_members(n, s, t)) for t in ts]
            total = sum(
                convolution_count(CongruenceInstance(n, s, b, ts)) for b in range(n**s)
            )
            assert total == math.prod(sizes)


class TestEngineAgreement:
    @given(small_instances())
    @settings(max_examples=150, deadline=None)
    def test_three_engines_agree(self, inst):
        formula = count_restricted(inst)
        brute = brute_force_count(inst)
        conv = convolution_count(inst)
        assert formula == brute == conv


class TestCharacterSum:
    def test_zero_argument_is_class_size(self):
        z = class_character_sum(4, 2, 2, 0)
        assert abs(z - 3) < 1e-9

    def test_worked_example_values(self):
        assert abs(class_character_sum(4, 2, 1, 16) - 12) < 1e-6
        assert abs(class_character_sum(4, 2, 2, 5) - (-1)) < 1e-6

    def test_matches_generalized_ramanujan_sum(self):
        for n in range(1, 9):
            for s in (1, 2):
                for d in divisors(n):
                    for m in range(n**s):
                        z = class_character_sum(n, s, d, m)
                        assert abs(z - cohen_ramanujan(n // d, s, m)) < 1e-6

    def test_rejects_non_divisor(self):
        with pytest.raises(DomainError):
            class_character_sum(4, 2, 3, 0)


class TestEnumerateSolutions:
    def test_worked_example_listing(self):
        sols = enumerate_solutions(WORKED, limit=10)
        assert set(sols) == {(1, 4), (9, 12), (13, 8)}
        assert sols == sorted(sols)  # lexicographic

    def test_limit_binds(self):
        sols = enumerate_solutions(WORKED, limit=2)
        assert sols == [(1, 4), (9, 12)]

    def test_unsatisfiable_gives_empty(self):
        assert enumerate_solutions(CongruenceInstance(4, 2, 5, (2, 2)), limit=10) == []

    def test_trivial_instance(self):
        assert enumerate_solutions(CongruenceInstance(1, 1, 0, (1,)), limit=10) == [(1,)]

    def test_limit_past_maxsize_lists_every_solution(self):
        assert enumerate_solutions(WORKED, limit=10**20) == [(1, 4), (9, 12), (13, 8)]

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(DomainError):
            enumerate_solutions(WORKED, limit=0)

    def test_tuple_space_past_the_budget_still_lists(self):
        # 1152**3 tuples, past the default budget; the two solutions come early.
        inst = CongruenceInstance(5040, 1, 1, (1, 1, 1))
        assert enumerate_solutions(inst, 2) == [(1, 1, 5039), (1, 11, 5029)]

    def test_budget_bounds_the_tuples_walked(self):
        inst = CongruenceInstance(4, 2, 1, (2, 2))  # 3 * 3 = 9 tuples, no solution
        assert count_restricted(inst) == 0
        with pytest.raises(BudgetExceededError, match="walked 5 tuples"):
            enumerate_solutions(inst, 1, budget=5)
        assert enumerate_solutions(inst, 1, budget=9) == []

    def test_long_walk_without_solutions_is_refused_fast(self):
        # 1000 units of 5040 are odd, so their sum is even: 10**7 tuples walk by without a hit.
        inst = CongruenceInstance(5040, 1, 1, (1,) * 1000)
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="walked 10000000 tuples"):
            enumerate_solutions(inst, 1)
        assert time.perf_counter() - t0 < 1.0

    def test_budget_bounds_the_class_scans(self):
        inst = CongruenceInstance(5040, 1, 4, (1, 2, 1))  # scans 5040 + 2520 slots
        with pytest.raises(BudgetExceededError, match="7560 slots"):
            enumerate_solutions(inst, 1, budget=7559)
        assert enumerate_solutions(inst, 1, budget=7560) == [(1, 2, 1)]

    def test_each_distinct_class_is_built_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(oracle, "class_members", lambda *a: calls.append(a) or class_members(*a))
        enumerate_solutions(CongruenceInstance(5040, 1, 7, (1, 2, 1, 2, 1)), 2)
        assert sorted(t for _, _, t, _ in calls) == [1, 2]

    def test_budget_bounds_the_entries_listed(self):
        inst = CongruenceInstance(3, 1, 0, (1, 1))  # (1, 2) and (2, 1): 4 entries
        with pytest.raises(BudgetExceededError, match="2 solutions of 2 entries"):
            enumerate_solutions(inst, 2, budget=3)
        assert enumerate_solutions(inst, 2, budget=4) == [(1, 2), (2, 1)]

    def test_negative_budget_is_refused_before_the_walk(self):
        with pytest.raises(BudgetExceededError, match="past the budget -1") as info:
            enumerate_solutions(CongruenceInstance(4, 2, 0), 1, budget=-1)
        assert "walked" not in str(info.value)

    @given(small_instances(), st.integers(1, 4), st.integers(0, 300))
    @settings(max_examples=200, deadline=None)
    def test_budget_walks_the_tuples_in_order(self, inst, limit, budget):
        # The reference walks itertools.product; the listing must match it tuple for tuple.
        pools = [class_members(inst.n, inst.s, t) for t in inst.restrictions]
        walk = list(itertools.islice(itertools.product(*pools), budget + 1))
        hits = [c for c in walk[:budget] if sum(c) % inst.modulus == inst.b][:limit]
        scan = sum((inst.n // t) ** inst.s for t in set(inst.restrictions))
        left = len(walk) > budget
        if scan > budget or len(hits) * inst.k > budget or (len(hits) < limit and left):
            with pytest.raises(BudgetExceededError):
                enumerate_solutions(inst, limit, budget)
        else:
            assert enumerate_solutions(inst, limit, budget) == hits

    @given(small_instances())
    @settings(max_examples=80, deadline=None)
    def test_solutions_are_valid_and_complete(self, inst):
        sols = enumerate_solutions(inst, limit=10**6)
        assert len(sols) == brute_force_count(inst)
        assert sols == sorted(sols)
        ns = inst.modulus
        for sol in sols:
            assert sum(sol) % ns == inst.b
            for x, t in zip(sol, inst.restrictions):
                assert 1 <= x <= ns
                assert generalized_gcd(x, ns, inst.s) == t
