import itertools
import math
import random
import re
import sys
import time
import types

import pytest

from rescong import arith, congruence, oracle, verification
from rescong.arith import divisors
from rescong.errors import BudgetExceededError, DomainError
from rescong.verification import (
    DEFAULT_INSTANCE_CAP,
    MAX_BLOCKS,
    SweepConfig,
    SweepReport,
    engine_sweep,
)

from reference import PropertyReport, identity_suites, iter_instances


def test_sweep_config_defaults():
    cfg = SweepConfig()
    assert (cfg.max_n, cfg.s_values, cfg.max_k, cfg.seed) == (6, (1, 2), 3, 0)
    assert cfg.cap == DEFAULT_INSTANCE_CAP
    assert SweepConfig(max_n=4, cap=9) == SweepConfig(4, (1, 2), 3, 0, 9)


def test_reports_start_clean_and_do_not_share_lists():
    clean, second = SweepReport(3, 3, False, [], 0, [], {}, {}), PropertyReport()
    assert clean.ok and second.ok and second.checks == 0
    # A sweep report is a record: built once, never filled in afterwards.
    with pytest.raises(AttributeError):
        clean.mismatches = [{"n": 1}]
    assert not clean._replace(mismatches=[{"n": 1}]).ok
    assert not clean._replace(identity_failures=["reflection: n=2 s=1 r=1 m=0"]).ok
    second.failures.append("x")
    assert not second.ok and PropertyReport().ok
    cfg = SweepConfig(max_n=2, s_values=(1,), max_k=1, cap=10**9)
    first, again = engine_sweep(cfg), engine_sweep(cfg)
    assert first.ok and again.ok
    for field in ("mismatches", "identity_failures", "engine_ms", "refused"):
        assert getattr(first, field) is not getattr(again, field)


def test_space_size_matches_enumeration():
    cfg = SweepConfig(max_n=4, s_values=(1, 2), max_k=2, cap=10**9)
    assert verification._blocks(cfg)[-1] == sum(1 for _ in iter_instances(cfg))


def test_small_exhaustive_sweep_is_clean():
    cfg = SweepConfig(max_n=3, s_values=(1, 2), max_k=2, cap=10**9)
    report = engine_sweep(cfg)
    assert report.ok
    assert not report.subsampled
    assert report.checked == report.space


def test_subsample_is_capped_and_reproducible():
    cfg = SweepConfig(max_n=4, s_values=(1, 2), max_k=2, seed=7, cap=50)
    first = engine_sweep(cfg)
    second = engine_sweep(cfg)
    assert first.subsampled and second.subsampled
    assert first.checked == second.checked == 50
    assert first.mismatches == second.mismatches == []


def stub_engines(monkeypatch):
    """Every engine answers 0, so a sweep runs only its identity checks."""
    monkeypatch.setattr(congruence, "count_restricted", lambda inst: 0)
    monkeypatch.setattr(oracle, "brute_force_count", lambda inst: 0)
    monkeypatch.setattr(oracle, "convolution_count", lambda inst: 0)


def record_sweep(monkeypatch, cfg):
    """Instances engine_sweep checks, in order, with every engine stubbed out."""
    seen = []

    def formula(inst):
        seen.append(inst)
        return 0

    stub_engines(monkeypatch)
    monkeypatch.setattr(congruence, "count_restricted", formula)
    report = engine_sweep(cfg)
    assert report.ok and report.checked == len(seen)
    return seen


def reference_picks(cfg):
    """The sweep's instances from a full walk of the grid in order."""
    space = verification._blocks(cfg)[-1]
    if space <= cfg.cap:
        return list(iter_instances(cfg))
    keep = set(random.Random(cfg.seed).sample(range(space), cfg.cap))
    return [inst for idx, inst in enumerate(iter_instances(cfg)) if idx in keep]


@pytest.mark.parametrize(
    "cfg",
    [
        SweepConfig(max_n=8, s_values=(1, 2), max_k=3, seed=11, cap=9000),
        SweepConfig(),
        SweepConfig(max_n=5, s_values=(3, 1, 1), max_k=2, seed=3, cap=200),
        SweepConfig(max_n=7, s_values=(2,), max_k=0, seed=1, cap=20),
    ],
)
def test_sweep_picks_match_reference_walk(monkeypatch, cfg):
    picks = reference_picks(cfg)
    assert record_sweep(monkeypatch, cfg) == picks
    assert len(picks) == min(cfg.cap, verification._blocks(cfg)[-1])


def test_subsample_builds_only_the_instances_it_checks(monkeypatch):
    # The grid holds about 11.3 million instances; building them all takes
    # tens of seconds, so the counter stops a walk over the grid early.
    cfg = SweepConfig(max_n=30, s_values=(1, 2), max_k=4, cap=10)
    built = []

    def counting(*args, **kwargs):
        built.append(None)
        assert len(built) <= cfg.cap, "engine_sweep builds instances it does not check"
        return congruence.CongruenceInstance(*args, **kwargs)

    monkeypatch.setattr(verification, "CongruenceInstance", counting)
    assert len(record_sweep(monkeypatch, cfg)) == cfg.cap
    assert len(built) == cfg.cap


def test_sizing_lists_no_divisors(monkeypatch):
    # Sizing the grid needs only tau(n); divisors are listed for a block
    # only when a sampled position falls in it.
    cfg = SweepConfig(max_n=2000, s_values=(1,), max_k=1, cap=10)
    calls = []

    def counting(n):
        calls.append(n)
        return divisors(n)

    monkeypatch.setattr(verification, "divisors", counting)
    assert len(record_sweep(monkeypatch, cfg)) == cfg.cap
    assert len(calls) <= cfg.cap


def test_power_below_one_is_domain_error():
    # A negative power would make n**s, and so the grid size, a float that range refuses.
    cfg = SweepConfig(max_n=3, s_values=(1, -1), max_k=2)
    with pytest.raises(DomainError, match="s >= 1"):
        engine_sweep(cfg)
    with pytest.raises(DomainError, match="s >= 1"):
        verification._blocks(cfg)[-1]


def test_negative_cap_is_domain_error():
    # random.sample would otherwise refuse it with a bare ValueError.
    with pytest.raises(DomainError, match="cap >= 0"):
        engine_sweep(SweepConfig(max_n=3, cap=-1))


@pytest.mark.parametrize(
    "cfg,message",
    [
        (SweepConfig(max_n=-5), "max_n**s requires max_n, s >= 1"),
        (SweepConfig(max_n=0), "max_n**s requires max_n, s >= 1"),
        (SweepConfig(max_n=2, max_k=-1), "max_k >= 0"),
        (SweepConfig(s_values=()), "at least one power"),
    ],
)
def test_empty_grid_bounds_are_domain_errors(cfg, message):
    # Such a grid holds no instance, so a sweep over it would report ok.
    with pytest.raises(DomainError, match=re.escape(message)):
        engine_sweep(cfg)
    with pytest.raises(DomainError, match=re.escape(message)):
        verification._blocks(cfg)[-1]


@pytest.mark.parametrize(
    "max_n", [sys.maxsize + 1, 10**20, 2**20000], ids=["maxsize+1", "10**20", "2**20000"]
)
def test_max_n_past_maxsize_is_domain_error(max_n):
    # Such a max_n alone passes the block bound; 2**20000 has more
    # decimal digits than the int -> str cap allows.
    cfg = SweepConfig(max_n=max_n, s_values=(1,), max_k=1)
    with pytest.raises(DomainError, match=f"at most {MAX_BLOCKS} blocks"):
        engine_sweep(cfg)
    with pytest.raises(DomainError, match=f"at most {MAX_BLOCKS} blocks"):
        verification._blocks(cfg)[-1]


@pytest.mark.parametrize(
    "cfg",
    [
        SweepConfig(max_n=3_000_000, s_values=(1,), max_k=0, cap=0),
        SweepConfig(max_n=10**9),
        SweepConfig(max_n=2, s_values=(1,), max_k=10**20),
    ],
    ids=["sieve", "max_n", "max_k"],
)
def test_grid_past_block_bound_is_refused_before_sizing(cfg):
    # Sizing these grids took seconds and hundreds of MB, or ran out of
    # memory; the bound is checked before the sieve runs.  The max_k case
    # has 21 digits, and its block count's decimal form is never printed.
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match=rf"at most {MAX_BLOCKS} blocks.*got at least 2\*\*\d+$"):
        engine_sweep(cfg)
    with pytest.raises(DomainError, match=f"at most {MAX_BLOCKS} blocks"):
        verification._blocks(cfg)[-1]
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "cfg",
    [
        SweepConfig(max_n=MAX_BLOCKS, s_values=(1,), max_k=0, cap=0),
        SweepConfig(max_n=MAX_BLOCKS // 4, s_values=(2, 1, 2), max_k=1, cap=0),
    ],
    ids=["s=1,k=0", "s=1,2,k<=1"],
)
def test_block_bound_admits_exactly_max_blocks(cfg):
    # max_n * len(set(s_values)) * (max_k + 1) == MAX_BLOCKS is sized and
    # swept; one more n is refused.
    report = engine_sweep(cfg)
    assert report.checked == 0 and report.space == verification._blocks(cfg)[-1]
    if cfg.s_values == (1,):
        # Block n holds n instances when k = 0 and s = 1.
        assert report.space == MAX_BLOCKS * (MAX_BLOCKS + 1) // 2
    with pytest.raises(DomainError, match=f"at most {MAX_BLOCKS} blocks"):
        verification._blocks(cfg._replace(max_n=cfg.max_n + 1))[-1]


def test_each_engine_runs_once_per_instance_through_its_module(monkeypatch):
    # The sweep looks each engine up on its module when it calls it, so a
    # wrapper set there (as the benchmark's lap clock is) sees every call.
    calls = {"formula": 0, "brute_force": 0, "convolution": 0}

    def counting(module, name, key):
        real = getattr(module, name)

        def wrapper(inst):
            calls[key] += 1
            return real(inst)

        monkeypatch.setattr(module, name, wrapper)

    counting(congruence, "count_restricted", "formula")
    counting(oracle, "brute_force_count", "brute_force")
    counting(oracle, "convolution_count", "convolution")
    report = engine_sweep(SweepConfig(max_n=3, s_values=(1, 2), max_k=2, seed=3, cap=40))
    assert report.ok and report.checked == 40
    assert calls == dict.fromkeys(calls, 40)
    assert set(report.engine_ms) == set(calls)
    assert all(ms > 0 for ms in report.engine_ms.values())


def test_engine_ms_adds_each_engine_time_exactly(monkeypatch):
    # Four clock reads per instance: before the formula, then after the
    # formula, brute force and convolution.
    reads = [0, 1_000_000, 3_000_000, 6_000_000, 10_000_000, 10_500_000, 12_000_000, 12_250_000]
    clock = iter(reads)
    monkeypatch.setattr(verification, "time", types.SimpleNamespace(perf_counter_ns=clock.__next__))
    report = engine_sweep(SweepConfig(max_n=1, s_values=(1,), max_k=1))
    assert report.checked == 2
    assert report.engine_ms == {"formula": 1.5, "brute_force": 3.5, "convolution": 3.25}
    assert next(clock, None) is None


def off_by_one_at_b1(inst):
    """The closed form, one too high whenever b == 1."""
    return congruence.count_restricted(inst) + (inst.b == 1)


def test_engine_table_drives_the_sweep(monkeypatch):
    # A fourth engine in the table is run, timed and recorded like the
    # other three, with no other change to the sweep.
    fourth = types.SimpleNamespace(count=off_by_one_at_b1)
    engines = dict(verification._ENGINES, shifted_formula=(fourth, "count"))
    monkeypatch.setattr(verification, "_ENGINES", engines)
    report = engine_sweep(SweepConfig(max_n=2, s_values=(1,), max_k=1))
    assert not report.ok
    assert list(report.engine_ms) == ["formula", "brute_force", "convolution", "shifted_formula"]
    assert report.engine_ms["shifted_formula"] > 0
    # b == 1 occurs at n = 2 only: k = 0, and k = 1 with t = 1 or 2.
    assert [(m["n"], m["b"], m["t"]) for m in report.mismatches] == [
        (2, 1, []), (2, 1, [1]), (2, 1, [2])
    ]
    for record in report.mismatches:
        assert record["formula"] == record["brute_force"] == record["convolution"]
        assert record["shifted_formula"] == record["formula"] + 1


def refusing_from_k2(engine):
    """`engine`, refusing every instance with two or more unknowns."""

    def refusing(inst):
        if inst.k >= 2:
            raise BudgetExceededError(f"refused k = {inst.k}")
        return engine(inst)

    return refusing


def test_refused_instances_are_counted_and_the_rest_compared(monkeypatch):
    monkeypatch.setattr(oracle, "brute_force_count", refusing_from_k2(oracle.brute_force_count))
    clock = itertools.count()
    monkeypatch.setattr(verification, "time", types.SimpleNamespace(perf_counter_ns=clock.__next__))
    report = engine_sweep(SweepConfig(max_n=2, s_values=(1,), max_k=2))
    # n = 1 holds one instance per k, n = 2 holds 2**k * 2: 17 in all, 9 with k = 2.
    assert report.ok and report.checked == report.space == 17
    assert report.refused == {"formula": 0, "brute_force": 9, "convolution": 0}
    # A refusal still ends its lap: four clock reads per instance.
    assert next(clock) == 4 * report.checked


def test_mismatch_record_holds_only_the_engines_that_answered(monkeypatch):
    monkeypatch.setattr(oracle, "brute_force_count", refusing_from_k2(oracle.brute_force_count))
    real = congruence.count_restricted
    monkeypatch.setattr(congruence, "count_restricted", lambda inst: real(inst) + 1)
    report = engine_sweep(SweepConfig(max_n=1, s_values=(1,), max_k=2))
    assert not report.ok and report.refused["brute_force"] == 1
    assert [list(m) for m in report.mismatches] == [
        ["n", "s", "b", "t", "formula", "brute_force", "convolution"],
        ["n", "s", "b", "t", "formula", "brute_force", "convolution"],
        ["n", "s", "b", "t", "formula", "convolution"],
    ]
    assert report.mismatches[-1] == {
        "n": 1, "s": 1, "b": 0, "t": [1, 1], "formula": 2, "convolution": 1
    }


def test_zero_cap_spends_no_engine_time():
    report = engine_sweep(SweepConfig(cap=0))
    assert report.checked == 0
    assert report.engine_ms == {"formula": 0, "brute_force": 0, "convolution": 0}


def test_smallest_grid_still_checks_one_instance():
    report = engine_sweep(SweepConfig(max_n=1, s_values=(1,), max_k=0))
    assert report.ok and report.checked == report.space == 1


def test_sweep_detects_corrupted_formula(monkeypatch):
    real = congruence.count_restricted

    def corrupted(inst):
        value = real(inst)
        if (inst.n, inst.s, inst.b) == (2, 1, 0):
            return value + 1
        return value

    monkeypatch.setattr(congruence, "count_restricted", corrupted)
    report = engine_sweep(SweepConfig(max_n=2, s_values=(1,), max_k=1, cap=10**9))
    assert not report.ok
    bad = report.mismatches[0]
    assert bad["n"] == 2 and bad["s"] == 1 and bad["b"] == 0
    assert bad["formula"] != bad["brute_force"] == bad["convolution"]


def test_exhaustive_grid_checks_identities_on_every_k1_instance(monkeypatch):
    stub_engines(monkeypatch)
    cfg = SweepConfig()
    single = sum(1 for inst in iter_instances(cfg) if inst.k == 1)
    report = engine_sweep(cfg)
    assert report.ok and not report.subsampled
    assert report.identity_checks == 4 * single == 1304
    assert report.identity_failures == []


def test_subsampled_grid_checks_identities_on_sampled_k1_instances(monkeypatch):
    stub_engines(monkeypatch)
    cfg = SweepConfig(max_n=5, s_values=(3, 1, 1), max_k=2, seed=3, cap=200)
    single = sum(1 for inst in reference_picks(cfg) if inst.k == 1)
    report = engine_sweep(cfg)
    assert report.subsampled and report.ok
    assert 0 < single < sum(1 for inst in iter_instances(cfg) if inst.k == 1)
    assert report.identity_checks == 4 * single


def test_sweep_without_k1_instances_checks_no_identity():
    report = engine_sweep(SweepConfig(max_n=4, s_values=(1, 2), max_k=0))
    assert report.ok and report.checked == report.space
    assert report.identity_checks == 0


def test_sweep_detects_broken_reflection(monkeypatch):
    real = verification.cohen_ramanujan

    def odd_for_negatives(r, s, m):
        return real(r, s, m) + (1 if m < 0 else 0)

    monkeypatch.setattr(verification, "cohen_ramanujan", odd_for_negatives)
    report = engine_sweep(SweepConfig(max_n=3, s_values=(1,), max_k=1))
    assert not report.ok and report.mismatches == []
    # Every k = 1 instance with m = b > 0 fails, tau(n) * (n - 1) of them
    # for n = 2, 3; m = 0 reflects onto itself.
    assert report.identity_failures[0] == "reflection: n=2 s=1 r=2 m=1"
    assert all(f.startswith("reflection: ") for f in report.identity_failures)
    assert len(report.identity_failures) == 2 * 1 + 2 * 2


def test_sweep_detects_broken_gcd_periodicity(monkeypatch):
    real = verification.capped_valuation

    def blind_past_cap(m, q, cap):
        return 0 if m >= q**cap else real(m, q, cap)

    monkeypatch.setattr(verification, "capped_valuation", blind_past_cap)
    report = engine_sweep(SweepConfig(max_n=2, s_values=(2,), max_k=1))
    assert not report.ok
    assert any(f.startswith("ggcd periodicity: n=2 s=2") for f in report.identity_failures)


PAST_FACTORIZE_LIMIT = [(10007, 3, 0), (1000003, 2, 0), (720720, 3, 6 * 720720**2)]


@pytest.mark.parametrize(
    "n, s, b",
    [*PAST_FACTORIZE_LIMIT, (10007, 3, 5 * 10007**2)],
    ids=["prime_cubed", "prime_squared", "six_primes", "prime_cubed_gcd_within"],
)
def test_identities_hold_past_the_factorization_limit(n, s, b):
    # gcd(b, n**s) is past FACTORIZE_LIMIT in the first three, and reading
    # (b, n**s)_s by factoring it raised DomainError: cannot factor 1002101470343.
    assert (math.gcd(b, n**s) > arith.FACTORIZE_LIMIT) == ((n, s, b) in PAST_FACTORIZE_LIMIT)
    held = verification._identities(congruence.CongruenceInstance(n, s, b, (1,)))
    names = ["ggcd periodicity", "argument reduction", "periodicity", "reflection"]
    assert held == dict.fromkeys(names, True)


def test_identities_past_the_limit_hold_on_every_small_cell():
    # The per-prime reading of (b, n**s)_s runs on every (n, s, t, b) with
    # n <= 12 and s in {2, 3}, as it does past the limit.
    cells = [
        congruence.CongruenceInstance(n, s, b, (t,))
        for n in range(1, 13) for s in (2, 3) for t in divisors(n) for b in range(n**s)
    ]
    assert len(cells) == 25_700
    assert [inst for inst in cells if not all(verification._identities(inst).values())] == []


@pytest.mark.parametrize("n, s, b", PAST_FACTORIZE_LIMIT)
def test_identities_past_the_limit_read_the_primes_of_n(monkeypatch, n, s, b):
    # A per-prime read that misses the valuation of b makes (b, n**s)_s == 1,
    # and c_{n,s}(1) differs from c_{n,s}(b) at every b here.
    monkeypatch.setattr(verification, "capped_valuation", lambda m, q, cap: 0)
    held = verification._identities(congruence.CongruenceInstance(n, s, b, (1,)))
    assert held["argument reduction"] is False


@pytest.mark.parametrize(
    "cfg",
    [
        SweepConfig(max_n=8, max_k=40, cap=5),
        # 2**20000 has 6021 decimal digits, past the int -> str cap.
        SweepConfig(max_n=2, s_values=(20000,), max_k=0, cap=1),
    ],
)
def test_subsampling_past_maxsize_is_domain_error(cfg):
    # random.sample cannot draw from a range longer than sys.maxsize.
    space = verification._blocks(cfg)[-1]
    assert space > sys.maxsize
    with pytest.raises(DomainError, match=rf"at least 2\*\*{space.bit_length() - 1} instances"):
        engine_sweep(cfg)


def test_sizing_factors_nothing():
    # tau(n) comes from a divisor-count sieve, so sizing neither calls
    # factorize nor evicts what its memo holds.
    arith.factorize.cache_clear()
    verification._blocks(SweepConfig(max_n=2000, s_values=(1,), max_k=1, cap=10))[-1]
    info = arith.factorize.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_identity_suites_pass_exhaustively():
    report = identity_suites()
    assert report.ok
    assert report.checks > 150_000
