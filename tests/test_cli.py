import argparse
import decimal
import importlib.util
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
import types
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescong import cli, congruence, oracle, verification
from rescong.arith import divisors
from rescong.cli import main
from rescong.errors import BudgetExceededError

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HUGE = str(10**20)  # a 21-digit flag, past sys.maxsize


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "4", "--s", "2", "--b", "5", "--t", "1,2")
        assert code == 0
        assert "count = 3" in out

    @pytest.mark.parametrize("engine", ["formula", "brute", "convolution"])
    def test_engines_agree(self, capsys, engine):
        code, out, _ = run_cli(
            capsys,
            "count", "--n", "4", "--s", "2", "--b", "5", "--t", "1,2",
            "--engine", engine,
        )
        assert code == 0
        assert "count = 3" in out

    def test_json_builds_no_text(self, capsys, monkeypatch):
        def no_text(record):
            raise AssertionError("text built under --format json")

        monkeypatch.setattr(cli, "_pairs", no_text)
        code, out, err = run_cli(
            capsys, "count", "--n", "4", "--s", "2", "--b", "5", "--t", "1,2",
            "--format", "json",
        )
        assert (code, err) == (0, "")
        rec = json.loads(out)
        assert rec.pop("elapsed_ms") >= 0
        assert rec == {
            "command": "count",
            "engine": "formula",
            "params": {"b": 5, "modulus": 16, "n": 4, "s": 2, "t": [1, 2]},
            "result": {"count": "3"},
        }

    def test_multiplicity_flag_equivalent_to_t_list(self, capsys):
        _, out_t, _ = run_cli(
            capsys, "count", "--n", "4", "--s", "2", "--b", "5", "--t", "1,2",
            "--format", "json",
        )
        _, out_g, _ = run_cli(
            capsys, "count", "--n", "4", "--s", "2", "--b", "5", "--g", "1,1,0",
            "--format", "json",
        )
        rec_t, rec_g = json.loads(out_t), json.loads(out_g)
        assert rec_t["result"] == rec_g["result"]
        assert rec_t["params"]["t"] == rec_g["params"]["t"] == [1, 2]

    def test_empty_restrictions(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "4", "--s", "2", "--b", "16")
        assert code == 0
        assert "count = 1" in out

    def test_trivial_modulus(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "1", "--s", "3", "--b", "0", "--t", "1")
        assert code == 0
        assert "count = 1" in out

    def test_count_is_decimal_string_in_json(self, capsys):
        _, out, _ = run_cli(
            capsys, "count", "--n", "3", "--s", "1", "--b", "0", "--g", "140,0",
            "--format", "json",
        )
        rec = json.loads(out)
        value = rec["result"]["count"]
        assert isinstance(value, str)
        assert int(value) == (2**140 + 2) // 3

    def test_invalid_divisor_exits_one_naming_entry(self, capsys):
        code, _, err = run_cli(capsys, "count", "--n", "4", "--s", "2", "--b", "5", "--t", "3")
        assert code == 1
        assert "t_1" in err

    def test_zero_budget_means_zero(self, capsys):
        code, out, err = run_cli(
            capsys,
            "count", "--n", "4", "--s", "2", "--b", "5", "--t", "1,2",
            "--engine", "brute", "--budget", "0",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "budget 0" in err

    def test_count_past_int_str_digit_cap(self, capsys):
        # 1000 unknowns in the coprime class of 5040**2: the count has
        # over 7000 digits, past the interpreter's 4300-digit str() cap.
        cap = sys.get_int_max_str_digits()
        g = ",".join(["1000"] + ["0"] * 59)
        argv = ["count", "--n", "5040", "--s", "2", "--b", "0", "--g", g]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        text = out.splitlines()[-1].removeprefix("count = ")
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["count"] == text
        expected = congruence.count_restricted(
            congruence.CongruenceInstance(5040, 2, 0, (1,) * 1000)
        )
        assert len(text) > 4300
        assert decimal.Decimal(text) == decimal.Decimal(expected)
        # solve walks tuples, so the same instance stops at its budget.
        code, _, err = run_cli(capsys, "solve", *argv[1:])
        assert code == 1 and err.startswith("error:") and "budget" in err
        assert sys.get_int_max_str_digits() == cap

    def test_modulus_past_factorization_limit(self, capsys):
        # n**s = 2**50 is past the factorization limit; only n is factored.
        code, out, err = run_cli(capsys, "count", "--n", "2", "--s", "50", "--b", "0", "--t", "1,2")
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == "count = 0"

    @pytest.mark.parametrize("command", ["count", "solve"])
    @pytest.mark.parametrize("g, bits", [(f"{HUGE},0", 66), (f"{2**20 + 1},0", 20)])
    def test_g_past_the_unknown_bound_exits_one(self, capsys, command, g, bits):
        # --g 10**20,0 expanded its unknowns until the process was killed.
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--n", "2", "--s", "1", "--b", "0", "--g", g)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (1, "")
        assert err == f"error: --g spells at most 1048576 unknowns, got at least 2**{bits}\n"

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
    def test_count_past_the_bit_bound_exits_one(self, capsys, fmt):
        # 2000 unknowns in C(1) of 2**1048575 ran until killed.
        t0 = time.perf_counter()
        argv = ["count", "--n", "2", "--s", "1048575", "--b", "0", "--g", "2000,0", *fmt]
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (1, "")
        assert err == (
            "error: the count's bound from the class sizes has 2**30 bits or more, "
            "past the limit of 2097152 bits on a count\n"
        )

    def test_g_entries_must_be_nonnegative(self, capsys):
        code, out, err = run_cli(capsys, "count", "--n", "2", "--s", "1", "--b", "0", "--g", "1,-1")
        assert (code, out, err) == (1, "", "error: --g entries must be nonnegative\n")

    def test_negative_budget_is_a_usage_error(self, capsys):
        argv = ["count", "--n", "4", "--s", "2", "--b", "5", "--t", "1,2", "--engine", "brute"]
        code, out, err = run_cli(capsys, *argv, "--budget", "-1")
        assert (code, out, err) == (1, "", "usage error: --budget must be >= 0, got -1\n")

    def test_huge_negative_budget_is_shown_by_its_size(self, capsys):
        argv = ["count", "--n", "4", "--s", "2", "--b", "5", "--t", "1,2", "--engine", "brute"]
        code, out, err = run_cli(capsys, *argv, "--budget", str(-(10**400 - 1)))
        expected = "usage error: --budget must be >= 0, got a negative integer of 1329 bits\n"
        assert (code, out, err) == (1, "", expected)

    def test_g_at_the_unknown_bound_counts(self, capsys):
        # 2**20 odd unknowns sum to 0 mod 2 in exactly one way.
        code, out, err = run_cli(capsys, "count", "--n", "2", "--s", "1", "--b", "0", "--g", "1048576,0")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "count = 1"

    def test_convolution_budget_reaches_class_enumeration(self, capsys):
        # n**s = 1002001 is past the default class budget of 10**6
        argv = ["count", "--n", "1001", "--s", "2", "--b", "0", "--t", "1001",
                "--engine", "convolution", "--budget", "2000000"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == "count = 1"

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--engine", "brute", "--budget", "10000000"],
            ["count", "--engine", "brute"],
            ["solve"],
        ],
    )
    def test_brute_force_past_class_budget_of_n_pow_s(self, capsys, argv):
        # n**s = 1002001, but C(1001) = {n**s} scans one slot, so the
        # tuple space and every class scan stay within the budget.
        instance = ["--n", "1001", "--s", "2", "--b", "0", "--t", "1001,1001"]
        code, out, err = run_cli(capsys, argv[0], *instance, *argv[1:])
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == "count = 1"


class TestJsonContract:
    def test_round_trip_is_idempotent(self, capsys):
        _, out, _ = run_cli(
            capsys, "count", "--n", "4", "--s", "2", "--b", "5", "--t", "1,2",
            "--format", "json",
        )
        parsed = json.loads(out)
        assert json.dumps(parsed, sort_keys=True) == out.strip()

    def test_payload_deterministic_excluding_timing(self, capsys):
        argv = ("ramanujan", "--r", "6", "--s", "2", "--m", "7", "--format", "json")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        a, b = json.loads(first), json.loads(second)
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        assert a == b

    def test_record_shape(self, capsys):
        _, out, _ = run_cli(
            capsys, "count", "--n", "4", "--s", "2", "--b", "5", "--t", "1,2",
            "--format", "json",
        )
        rec = json.loads(out)
        assert set(rec) == {"command", "params", "engine", "result", "elapsed_ms"}


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "4", "--s", "2", "--b", "5", "--t", "1,2"],
        ["solve", "--n", "4", "--s", "2", "--b", "5", "--t", "1,2"],
        ["classes", "--n", "4", "--s", "2", "--elements"],
        ["ramanujan", "--r", "4", "--s", "2", "--m", "16"],
        ["ggcd", "--a", "12", "--b", "16", "--s", "2"],
        ["verify", "--max-n", "2", "--s", "1", "--max-k", "1"],
    ],
    ids=["count", "solve", "classes", "ramanujan", "ggcd", "verify_mismatch"],
)
def test_json_builds_no_text_in_any_command(capsys, monkeypatch, argv):
    # One engine in the sweep disagrees, so verify has MISMATCH lines to skip.
    wrong = types.SimpleNamespace(count=lambda inst: -1)
    engines = dict(verification._ENGINES, convolution=(wrong, "count"))
    monkeypatch.setattr(verification, "_ENGINES", engines)

    def run():
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        rec = json.loads(out)
        rec.pop("elapsed_ms")
        rec["result"].pop("engine_ms", None)
        return code, rec, err

    def no_text(record):
        raise AssertionError("text built under --format json")

    unpatched = run()
    assert unpatched[0] == (2 if argv[0] == "verify" else 0)
    monkeypatch.setattr(cli, "_pairs", no_text)
    assert run() == unpatched


class TestRamanujan:
    def test_worked_value(self, capsys):
        code, out, _ = run_cli(capsys, "ramanujan", "--r", "4", "--s", "2", "--m", "16")
        assert code == 0
        assert "= 12" in out

    def test_trivial_modulus(self, capsys):
        code, out, _ = run_cli(capsys, "ramanujan", "--r", "1", "--s", "1", "--m", "0")
        assert code == 0
        assert "= 1" in out

    def test_phi_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "ramanujan", "--r", "6", "--s", "1", "--m", "0")
        assert code == 0
        assert "= 2" in out

    def test_r_power_past_factorization_limit(self, capsys):
        code, out, err = run_cli(capsys, "ramanujan", "--r", "1000003", "--s", "2", "--m", "0")
        assert code == 0 and err == ""
        assert out.strip() == "c_{1000003,2}(0) = 1000006000008"

    def test_prime_near_factorization_limit(self, capsys):
        code, out, err = run_cli(capsys, "ramanujan", "--r", "999999999989", "--s", "1", "--m", "0")
        assert code == 0 and err == ""
        assert out.strip() == "c_{999999999989,1}(0) = 999999999988"

    def test_r_past_factorization_limit_is_named(self, capsys):
        code, out, err = run_cli(capsys, "ramanujan", "--r", str(2**60), "--s", "1", "--m", "0")
        assert (code, out) == (1, "")
        assert err == f"error: cannot factor {2**60}: the limit is 1000000000000\n"

    def test_rejects_zero_modulus(self, capsys):
        code, _, err = run_cli(capsys, "ramanujan", "--r", "0", "--s", "1", "--m", "0")
        assert code == 1
        assert "error" in err


class TestGgcd:
    def test_square_gcd(self, capsys):
        code, out, _ = run_cli(capsys, "ggcd", "--a", "12", "--b", "16", "--s", "2")
        assert code == 0
        assert "(12, 16)_2 = 4" in out

    def test_plain_gcd(self, capsys):
        code, out, _ = run_cli(capsys, "ggcd", "--a", "7", "--b", "7", "--s", "1")
        assert code == 0
        assert "= 7" in out

    def test_plain_gcd_past_factorization_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, "ggcd", "--a", "4000000000000", "--b", "6000000000000", "--s", "1"
        )
        assert code == 0
        assert out.splitlines() == [
            "(4000000000000, 6000000000000)_1 = 2000000000000",
            "base l = 2000000000000",
        ]

    def test_gcd_past_factorization_limit_is_named(self, capsys):
        # the number refused is gcd(a, b) = 2**60; the user gave no n
        code, out, err = run_cli(capsys, "ggcd", "--a", str(2**60), "--b", "0", "--s", "2")
        assert (code, out) == (1, "")
        assert err == f"error: cannot factor {2**60}: the limit is 1000000000000\n"

    def test_both_zero_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "ggcd", "--a", "0", "--b", "0", "--s", "2")
        assert code == 1
        assert "error" in err


class TestClasses:
    def test_rows_and_total(self, capsys):
        code, out, _ = run_cli(capsys, "classes", "--n", "4", "--s", "2", "--elements")
        assert code == 0
        assert "d=1 size=12" in out
        assert "d=2 size=3 members=4,8,12" in out
        assert "d=4 size=1 members=16" in out
        assert "total = 16" in out

    def test_sizes_sum_to_modulus(self, capsys):
        _, out, _ = run_cli(capsys, "classes", "--n", "12", "--s", "1", "--format", "json")
        rec = json.loads(out)
        assert sum(int(row["size"]) for row in rec["result"]["rows"]) == 12

    def test_trivial_modulus_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "classes", "--n", "1", "--s", "1")
        assert code == 0
        assert "d=1 size=1" in out
        assert "total = 1" in out

    def test_elements_budget_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "classes", "--n", "100", "--s", "2", "--elements", "--budget", "10"
        )
        assert code == 1
        assert "budget" in err

    def test_negative_budget_is_a_usage_error_without_elements(self, capsys):
        code, out, err = run_cli(capsys, "classes", "--n", "4", "--s", "2", "--budget", "-1")
        assert (code, out, err) == (1, "", "usage error: --budget must be >= 0, got -1\n")


class TestSolve:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--n", "4", "--s", "2", "--b", "5", "--t", "1,2")
        assert code == 0
        assert "1,4" in out and "9,12" in out and "13,8" in out
        assert "count = 3" in out

    def test_unsatisfiable(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--n", "4", "--s", "2", "--b", "5", "--t", "2,2")
        assert code == 0
        assert "count = 0" in out

    def test_two_units_mod_three(self, capsys):
        _, out, _ = run_cli(
            capsys, "solve", "--n", "3", "--s", "1", "--b", "0", "--t", "1,1",
            "--format", "json",
        )
        rec = json.loads(out)
        assert rec["result"]["solutions"] == [[1, 2], [2, 1]]
        assert rec["result"]["count"] == "2"

    def test_limit_one_still_counts_all(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--n", "4", "--s", "2", "--b", "5", "--t", "1,2", "--limit", "1"
        )
        assert code == 0
        assert out.splitlines()[1:] == ["1,4", "count = 3"]

    def test_limit_zero_exits_one(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "--n", "4", "--s", "2", "--b", "5", "--t", "1,2", "--limit", "0"
        )
        assert (code, out, err) == (1, "", "error: limit must be >= 1, got 0\n")

    def test_huge_negative_limit_is_shown_by_its_size(self, capsys):
        argv = ["solve", "--n", "4", "--s", "2", "--b", "5", "--t", "1,2"]
        code, out, err = run_cli(capsys, *argv, "--limit", str(-(10**400 - 1)))
        expected = "error: limit must be >= 1, got a negative integer of 1329 bits\n"
        assert (code, out, err) == (1, "", expected)

    def test_limit_past_maxsize_lists_every_solution(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "--n", "4", "--s", "2", "--b", "5", "--t", "1,2", "--limit", HUGE
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["1,4", "9,12", "13,8", "count = 3"]

    # C(1) x C(4) of 27720 holds 5760 * 1440 = 8,294,400 tuples.
    WALK_CAP = 8_294_400 // 10

    @pytest.fixture
    def walked(self, monkeypatch):
        """Tuples yielded by itertools.product; past WALK_CAP is a failure."""
        seen = [0]
        product = itertools.product

        def counting(*iterables):
            for combo in product(*iterables):
                seen[0] += 1
                if seen[0] > self.WALK_CAP:
                    raise AssertionError(f"walked past {self.WALK_CAP} tuples")
                yield combo

        monkeypatch.setattr(itertools, "product", counting)
        return seen

    def test_listing_stops_at_the_limit(self, capsys, walked):
        # --budget caps the tuples the listing walks before its tenth solution.
        argv = ["solve", "--n", "27720", "--s", "1", "--b", "1", "--t", "1,4", "--limit", "10",
                "--budget", str(self.WALK_CAP)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 12 and lines[-1] == "count = 405"
        assert 0 < walked[0] < self.WALK_CAP

    def test_count_does_not_walk_the_tuple_space(self, capsys, walked):
        # 1152**3 tuples: walking them all to count was killed after 60 s.
        argv = ["solve", "--n", "5040", "--s", "1", "--b", "1", "--t", "1,1,1", "--limit", "2"]
        code, out, err = run_cli(capsys, *argv, "--budget", HUGE)
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["1,1,5039", "1,11,5029", "count = 696384"]

    def test_listing_past_the_budget_exits_one(self, capsys):
        # 9 tuples, none a solution: a budget of 5 leaves 4 unwalked.
        argv = ["solve", "--n", "4", "--s", "2", "--b", "1", "--t", "2,2", "--budget"]
        code, out, err = run_cli(capsys, *argv, "5")
        assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
        # Convolution cannot list solutions, so the message names the budget, not an engine.
        assert "walked 5 tuples" in err and "convolution_count" not in err
        code, out, err = run_cli(capsys, *argv, "9")
        assert (code, err) == (0, "") and out.splitlines()[1:] == ["count = 0"]

    def test_long_listing_without_solutions_is_refused_fast(self, capsys):
        # 1000 units of 5040 are odd, so their sum is even: 10**7 tuples walk by without a hit.
        g = ",".join(["1000"] + ["0"] * 59)
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "solve", "--n", "5040", "--s", "1", "--b", "1", "--g", g)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (1, "") and "walked 10000000 tuples" in err

    @pytest.mark.parametrize(
        "flags, line",
        [(["--b", "0"], "count = 1"), (["--b", "1"], "count = 0"),
         (["--b", "0", "--t", "1000000000039"], "count = 1")],
    )
    def test_walk_counts_past_the_factorization_limit(self, capsys, flags, line):
        # n is past FACTORIZE_LIMIT, so the closed form refuses it; the walk answers.
        code, out, err = run_cli(capsys, "solve", "--n", "1000000000039", "--s", "1", *flags)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == line

    @pytest.mark.parametrize("n, s", [(n, s) for n in range(1, 7) for s in (1, 2)])
    def test_agrees_with_the_walk_on_every_small_instance(self, capsys, n, s):
        ts = (t for k in range(3) for t in itertools.product(divisors(n), repeat=k))
        for t, b in itertools.product(list(ts), range(n**s)):
            inst = congruence.CongruenceInstance(n, s, b, t)
            argv = ["--n", str(n), "--s", str(s), "--b", str(b), "--t", cli._t_display(t)]
            code, out, _ = run_cli(capsys, "solve", *argv, "--limit", "1", "--format", "json")
            result = json.loads(out)["result"]
            assert code == 0 and result["count"] == str(oracle.brute_force_count(inst))
            first = [list(sol) for sol in oracle.enumerate_solutions(inst, 1)]
            assert result["solutions"] == first, inst


class TestVerify:
    def test_tiny_sweep_clean(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-n", "1", "--s", "1", "--max-k", "1")
        assert code == 0
        assert "0 mismatches" in out
        assert "ok" in out

    def test_small_sweep_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--max-n", "3", "--s", "1,2", "--max-k", "2",
            "--format", "json",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["result"]["ok"] is True
        assert rec["result"]["mismatches"] == []
        assert rec["result"]["instances_checked"] == rec["result"]["instance_space"]
        assert rec["result"]["identity_failures"] == []
        engine_ms = rec["result"]["engine_ms"]
        assert sorted(engine_ms) == ["brute_force", "convolution", "formula"]
        assert all(ms >= 0 for ms in engine_ms.values())

    def test_record_is_the_sweep_report_with_ok(self, capsys):
        # The record renames two report fields and adds ok; engine_ms alone varies by run.
        code, out, _ = run_cli(
            capsys, "verify", "--max-n", "4", "--s", "1,2", "--max-k", "2", "--format", "json",
        )
        assert code == 0
        result = json.loads(out)["result"]
        sweep = verification.engine_sweep(verification.SweepConfig(4, (1, 2), 2))
        renamed = {"checked": "instances_checked", "space": "instance_space"}
        expected = {renamed.get(key, key): value for key, value in sweep._asdict().items()}
        expected["ok"] = sweep.ok
        assert set(result) == set(expected) == {
            "ok", "instances_checked", "instance_space", "subsampled", "mismatches",
            "identity_checks", "identity_failures", "engine_ms", "refused",
        }
        assert result.pop("engine_ms").keys() == expected.pop("engine_ms").keys()
        assert result == expected

    def test_engine_times_under_a_fake_clock(self, capsys, monkeypatch):
        # Four clock reads per instance: before the formula, then after
        # the formula, brute force and convolution; two instances per run.
        reads = [0, 1_000_000, 3_000_000, 6_000_000, 10_000_000, 10_500_000, 12_000_000, 12_250_000]
        clock = iter(reads * 2)
        fake_time = types.SimpleNamespace(perf_counter_ns=clock.__next__)
        monkeypatch.setattr(verification, "time", fake_time)
        argv = ("verify", "--max-n", "1", "--s", "1", "--max-k", "1")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines() == [
            "engine sweep: 2 instances checked (space 2, exhaustive), 0 mismatches",
            "identity suites: 4 checks, 0 failures",
            "engine time: formula 1.500 ms, brute force 3.500 ms, convolution 3.250 ms",
            "ok",
        ]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        engine_ms = json.loads(out)["result"]["engine_ms"]
        assert engine_ms == {"formula": 1.5, "brute_force": 3.5, "convolution": 3.25}
        assert next(clock, None) is None

    def test_engine_time_lists_the_engine_table_in_order(self, capsys, monkeypatch):
        # One more engine in the table, an exact copy of the formula, shows
        # up in the engine time line with its underscores read as spaces.
        engines = dict(verification._ENGINES, formula_again=verification._ENGINES["formula"])
        monkeypatch.setattr(verification, "_ENGINES", engines)
        code, out, _ = run_cli(capsys, "verify", "--max-n", "2", "--s", "1", "--max-k", "1")
        assert code == 0
        line = re.sub(r"\d+\.\d{3} ms", "T ms", out.splitlines()[2])
        assert line == (
            "engine time: formula T ms, brute force T ms, convolution T ms, formula again T ms"
        )

    def test_corrupted_formula_exits_two_with_reproducer(self, capsys, monkeypatch):
        real = congruence.count_restricted
        monkeypatch.setattr(congruence, "count_restricted", lambda inst: real(inst) + 1)
        code, out, _ = run_cli(capsys, "verify", "--max-n", "2", "--s", "1", "--max-k", "1")
        assert code == 2
        assert "MISMATCH" in out
        assert "reproduce: rescong count" in out

    def test_mismatch_line_lists_the_engines_the_record_holds(self, capsys, monkeypatch):
        argv = ("verify", "--max-n", "1", "--s", "1", "--max-k", "0")
        table = verification._ENGINES
        fourth = types.SimpleNamespace(count=lambda inst: 7)
        monkeypatch.setattr(verification, "_ENGINES", dict(table, fourth=(fourth, "count")))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        assert out.splitlines()[3] == (
            "MISMATCH n=1 s=1 b=0 t=- formula=1 brute_force=1 convolution=1 fourth=7"
        )
        # With convolution out of the table, the line lists the two engines left.
        engines = {key: table[key] for key in ("formula", "brute_force")}
        monkeypatch.setattr(verification, "_ENGINES", engines)
        real = congruence.count_restricted
        monkeypatch.setattr(congruence, "count_restricted", lambda inst: real(inst) + 1)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        assert out.splitlines()[3:] == [
            "MISMATCH n=1 s=1 b=0 t=- formula=2 brute_force=1",
            "reproduce: rescong count --n 1 --s 1 --b 0 --t - --engine brute",
            "MISMATCH DETECTED",
        ]

    def test_refusals_are_counted_not_fatal(self, capsys, monkeypatch):
        argv = ("verify", "--max-n", "2", "--s", "1", "--max-k", "2")
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["refused"] == dict.fromkeys(verification._ENGINES, 0)
        real = oracle.brute_force_count

        def refusing(inst):
            if inst.k >= 2:
                raise BudgetExceededError("refused")
            return real(inst)

        # 9 of the 17 instances have two unknowns.
        monkeypatch.setattr(oracle, "brute_force_count", refusing)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "engine sweep: 17 instances checked (space 17, exhaustive), 0 mismatches"
        assert lines[3:] == ["engine refusals: formula 0, brute force 9, convolution 0", "ok"]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["ok"] is True
        assert result["refused"] == {"formula": 0, "brute_force": 9, "convolution": 0}

    def test_an_instance_past_the_brute_force_budget_is_refused(self, capsys):
        # One sampled instance holds 6**9 tuples, past brute force's default
        # budget of 10**7; it used to abort the sweep with exit 1.
        argv = ("verify", "--max-n", "20", "--s", "2", "--max-k", "3", "--budget", "40", "--seed", "3")
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert result["ok"] is True and result["instances_checked"] == 40
        assert result["refused"] == {"formula": 0, "brute_force": 1, "convolution": 0}

    def test_zero_budget_checks_no_instances(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--budget", "0", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["params"]["cap"] == 0
        assert rec["result"]["instances_checked"] == 0
        assert rec["result"]["identity_checks"] == 0
        assert rec["result"]["engine_ms"] == {"formula": 0, "brute_force": 0, "convolution": 0}
        code, out, _ = run_cli(capsys, "verify", "--budget", "0")
        assert code == 0
        assert "engine time: formula 0.000 ms, brute force 0.000 ms, convolution 0.000 ms" in out

    def test_broken_reflection_exits_two(self, capsys, monkeypatch):
        real = verification.cohen_ramanujan
        monkeypatch.setattr(
            verification, "cohen_ramanujan", lambda r, s, m: real(r, s, m) + (m < 0)
        )
        code, out, _ = run_cli(capsys, "verify")
        assert code == 2
        assert any(line.startswith("FAILURE reflection") for line in out.splitlines())
        assert out.splitlines()[-1] == "MISMATCH DETECTED"
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 2
        rec = json.loads(out)
        assert rec["result"]["ok"] is False and rec["result"]["mismatches"] == []
        assert rec["result"]["identity_failures"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("--max-n", "8", "--max-k", "40", "--budget", "5"),
            ("--max-n", "3", "--s", "40", "--max-k", "1", "--budget", "3"),
        ],
    )
    def test_subsample_past_maxsize_exits_one(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "sys.maxsize" in err

    def test_max_n_past_maxsize_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--max-n", HUGE, "--s", "1", "--max-k", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "at most 65536 blocks" in err

    def test_power_below_one_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--max-n", "3", "--s", "1,-1", "--max-k", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "s >= 1" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--max-n", "-5"), "max_n**s requires max_n, s >= 1"),
            (("--max-n", "2", "--max-k", "-1"), "max_k >= 0"),
            (("--s", ""), "at least one power"),
        ],
    )
    def test_empty_grid_exits_one(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "2", "--s", HUGE, "--b", "0", "--t", "1"],
        ["ramanujan", "--r", "2", "--s", HUGE, "--m", "0"],
        ["classes", "--n", "2", "--s", HUGE],
        ["verify", "--max-n", "2", "--s", HUGE, "--max-k", "0"],
    ],
    ids=["count", "ramanujan", "classes", "verify"],
)
def test_huge_power_exits_one_before_it_is_built(capsys, argv):
    # n**s = 2**(10**20) ended in a MemoryError traceback.
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "would have more than 2**66 bits" in err


def test_out_of_memory_exits_one(capsys, monkeypatch):
    def exhausted(inst, **budget):
        raise MemoryError

    monkeypatch.setattr(cli, "convolution_count", exhausted)
    argv = ["count", "--n", "4", "--s", "2", "--b", "5", "--t", "1,2", "--engine", "convolution"]
    assert run_cli(capsys, *argv) == (1, "", "error: out of memory\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "1000003", "--s", "2", "--b", "0", "--t", "1000003", "--engine",
         "convolution", "--budget", HUGE],
        ["classes", "--n", "1000003", "--s", "2", "--elements", "--budget", HUGE],
    ],
    ids=["count", "classes"],
)
def test_out_of_memory_in_a_bounded_process(argv):
    # A budget past memory ended in a MemoryError traceback.  The child's
    # address space is capped at 1 GiB, so it fails without using more.
    resource = pytest.importorskip("resource")

    def cap_address_space():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        soft = 2**30 if hard == resource.RLIM_INFINITY else min(2**30, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "rescong", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        preexec_fn=cap_address_space,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: out of memory\n")


class TestUsageErrors:
    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "count", "--n", "4", "--s", "2", "--b", "5", "--bogus", "1")
        assert code == 1
        assert "usage error" in err

    def test_no_subcommand_prints_help(self, capsys):
        code, out, _ = run_cli(capsys)
        assert code == 1
        assert "count" in out and "verify" in out

    def test_bench_is_not_a_subcommand(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--n", "4", "--s", "1", "--k", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:") and "invalid choice: 'bench'" in err

    def test_bad_int_list_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "count", "--n", "4", "--s", "2", "--b", "5", "--t", "1,x")
        assert code == 1
        assert "usage error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--n", "4", "--s", "2", "--b", "5", "--t", "1,"],
            ["count", "--n", "4", "--s", "2", "--b", "5", "--t", "1,,2"],
            ["verify", "--max-n", "2", "--s", "1,", "--max-k", "1"],
        ],
    )
    def test_empty_list_entry_exits_one(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:")

    def test_dash_is_the_empty_list(self, capsys, monkeypatch):
        # The verify reproducer prints --t - for k == 0; fed back, it counts.
        real = congruence.count_restricted
        monkeypatch.setattr(congruence, "count_restricted", lambda inst: real(inst) + 1)
        _, out, _ = run_cli(capsys, "verify", "--max-n", "1", "--s", "1", "--max-k", "0")
        reproducer = out.splitlines()[-2].split()
        assert reproducer[:3] == ["reproduce:", "rescong", "count"]
        assert reproducer[reproducer.index("--t") + 1] == "-"
        monkeypatch.undo()
        code, out, _ = run_cli(capsys, *reproducer[2:])
        assert code == 0
        assert out.splitlines() == ["n=1 s=1 b=0 t=- modulus=1 engine=brute", "count = 1"]

    def test_g_length_mismatch_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "count", "--n", "4", "--s", "2", "--b", "5", "--g", "1,1")
        assert code == 1
        assert "divisor" in err

    @pytest.mark.parametrize("command", ["count", "solve"])
    @pytest.mark.parametrize("flag, n", [("--t", "0"), ("--t", "-6"), ("--g", "0"), ("--g", "-6")])
    def test_power_gate_runs_before_divisors_are_listed(self, capsys, command, flag, n):
        # --g lists the divisors of n; n, s >= 1 is checked first, as for --t.
        code, out, err = run_cli(capsys, command, "--n", n, "--s", "1", "--b", "0", flag, "1")
        assert (code, out) == (1, "")
        assert err == "error: n**s requires n, s >= 1\n"


SEVENS = "7" * 5000  # past the interpreter's 4300-digit int <-> str cap


@pytest.mark.parametrize(
    "argv, line",
    [
        (["count", "--n", "10", "--s", "5000", "--b", SEVENS, "--t", "1"], "count = 1"),
        (["ramanujan", "--r", "2", "--s", "1", "--m", SEVENS], f"c_{{2,1}}({SEVENS}) = -1"),
        (["ggcd", "--a", SEVENS, "--b", "6", "--s", "1"], f"({SEVENS}, 6)_1 = 1"),
    ],
    ids=["count", "ramanujan", "ggcd"],
)
def test_integer_flags_take_any_number_of_digits(capsys, argv, line):
    caller_cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the smallest nonzero cap the interpreter allows
    try:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == 640
        assert line in out.splitlines()
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == 640
        # params holds the flags as plain JSON integers.
        sys.set_int_max_str_digits(0)
        record = json.loads(out)
        assert int(SEVENS) in record["params"].values()
        value = record["result"].get("count", record["result"].get("value"))
        assert line.endswith(f" = {value}")
    finally:
        sys.set_int_max_str_digits(caller_cap)


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _flags(sub):
    return [opt for action in sub._actions for opt in action.option_strings]


class TestSubcommandFlags:
    FLAGS = {
        "count": ["--n", "--s", "--b", "--t", "--g", "--engine", "--budget"],
        "ramanujan": ["--r", "--s", "--m"],
        "ggcd": ["--a", "--b", "--s"],
        "classes": ["--n", "--s", "--elements", "--budget"],
        "solve": ["--n", "--s", "--b", "--t", "--g", "--limit", "--budget"],
        "verify": ["--max-n", "--s", "--max-k", "--seed", "--budget"],
    }

    def test_each_subcommand_has_its_flags(self):
        subs = _subparsers(cli.build_parser())
        assert list(subs) == list(self.FLAGS)
        for name, sub in subs.items():
            assert _flags(sub) == ["-h", "--help", *self.FLAGS[name], "--format"], name


@st.composite
def cli_argvs(draw):
    """argv for count/solve/classes/ramanujan/ggcd/verify.

    Most values are in range; now and then one is out of range, a list
    is malformed, a stray token is appended or --limit, --s, --max-n,
    --max-k or a --g entry has 21 digits.  A --g list has one entry per
    divisor of n, or one too many, so a 21-digit entry reaches the
    expansion bound.  Values stay small enough that no draw can
    enumerate a large class or tuple space: n <= 10**4, s <= 6, k <= 4,
    --g entries <= 4 and budgets <= 10**4; verify sweeps max_n <= 3,
    s <= 2, max_k <= 2 with a budget <= 50.  The commands that enumerate
    always get a budget and small moduli.
    """

    def low(valid=1):
        return valid - 3 if draw(st.integers(0, 5)) == 0 else valid

    def int_list(elements, max_size=4, min_size=1):
        if draw(st.integers(0, 9)) == 0:
            return draw(st.sampled_from(["", "-", "x", "1,,2", "1,x", " 3"]))
        return ",".join(map(str, draw(st.lists(elements, min_size=min_size, max_size=max_size))))

    def rare_huge(text):
        return HUGE if draw(st.integers(0, 9)) == 0 else text

    command = draw(st.sampled_from(["count", "solve", "classes", "ramanujan", "ggcd", "verify"]))
    engine = draw(st.sampled_from([None, "formula", "brute", "convolution"]))
    enumerates = command in ("solve", "verify") or (
        command == "count" and engine in ("brute", "convolution")
    )
    elements = command == "classes" and draw(st.booleans())
    n = draw(st.integers(low(), 30 if enumerates else 10**4))
    s = draw(st.integers(low(), 2 if enumerates else 6))
    budget = None
    if enumerates or elements:
        most = 50 if command == "verify" else 200 if engine == "convolution" else 10**4
        budget = draw(st.integers(low(0), most))
    argv = [command]
    if command in ("count", "solve"):
        argv += ["--n", str(n), "--s", rare_huge(str(s)), "--b", str(draw(st.integers(-50, 10**6)))]
        divs = divisors(n) if n >= 1 else [1]
        if draw(st.booleans()):
            argv += ["--t", int_list(st.sampled_from(divs) | st.integers(low(), max(n, 1) + 1))]
        elif draw(st.booleans()):
            width = draw(st.sampled_from([len(divs)] * 3 + [len(divs) + 1]))
            g = int_list(st.integers(low(0), 4), min_size=width, max_size=width)
            argv += ["--g", ",".join(rare_huge(entry) for entry in g.split(","))]
        if command == "count" and engine is not None:
            argv += ["--engine", engine]
        if command == "solve" and draw(st.booleans()):
            argv += ["--limit", rare_huge(str(draw(st.integers(low(), 5))))]
    elif command == "classes":
        argv += ["--n", str(n), "--s", rare_huge(str(s))] + (["--elements"] if elements else [])
    elif command == "ramanujan":
        m = str(draw(st.integers(-10**6, 10**6)))
        argv += ["--r", str(n), "--s", rare_huge(str(s)), "--m", m]
    elif command == "ggcd":
        a, b = draw(st.integers(-10**6, 10**6)), draw(st.integers(-10**6, 10**6))
        argv += ["--a", str(a), "--b", str(b), "--s", str(s)]
    else:
        argv += ["--max-n", rare_huge(str(draw(st.integers(low(), 3))))]
        argv += ["--s", rare_huge(int_list(st.integers(low(), 2), max_size=2))]
        argv += ["--max-k", rare_huge(str(draw(st.integers(low(0), 2))))]
    if budget is not None:
        argv += ["--budget", str(budget)]
    argv += draw(st.sampled_from([[], ["--format", "json"], ["--format", "text"]]))
    if draw(st.integers(0, 9)) == 0:
        argv += draw(st.lists(st.sampled_from(["--bogus", "7", "--n", "--t", "x"]), max_size=2))
    return argv


@given(cli_argvs())
@settings(max_examples=300, deadline=None)
def test_any_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_module_entry_point_subprocess():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "rescong", "count", "--n", "4", "--s", "2", "--b", "5", "--t", "1,2"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0
    assert "count = 3" in proc.stdout


def test_console_script_target(monkeypatch, capsys):
    with open(os.path.join(REPO_ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        module, attr = re.search(r'^rescong = "([\w.]+):(\w+)"$', fh.read(), re.M).groups()
    fn = getattr(importlib.import_module(module), attr)
    argv = ["rescong", "count", "--n", "4", "--s", "2", "--b", "5", "--t", "1,2"]
    monkeypatch.setattr(sys, "argv", argv)
    # What the generated console-script wrapper does.
    with pytest.raises(SystemExit) as exc:
        sys.exit(fn())
    assert exc.value.code == 0
    assert "count = 3" in capsys.readouterr().out.splitlines()


def test_cli_import_footprint():
    # -S keeps site hooks from preloading modules into the child.
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(REPO_ROOT, "perfbench", "spans.py")
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    # The tracer resolves every (module, function) pair of spans.TARGETS, so
    # deleting or renaming one of those functions breaks each traced run.
    code = (
        "import json, sys\nimport rescong.cli\n"
        f"targets = {json.dumps(sorted(spans.TARGETS.values()))}\n"
        "unresolved = [[m, f] for m, f in targets\n"
        "              if not callable(getattr(sys.modules.get(m), f, None))]\n"
        "print(json.dumps([sorted(sys.modules), unresolved]))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, cwd=REPO_ROOT
    )
    assert proc.returncode == 0, proc.stderr
    modules, unresolved = json.loads(proc.stdout)
    loaded = set(modules)
    heavy = {"dataclasses", "fractions", "decimal", "statistics", "inspect"}
    assert heavy & loaded == set()
    assert {module for module, _ in spans.TARGETS.values()} <= loaded
    assert unresolved == []


def _readme_sessions(text):
    """(argv, printed lines) for each `$ rescong ...` example in a README code block."""
    sessions, current, in_block = [], None, False
    for line in text.splitlines():
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and line.startswith("$ rescong "):
            current = (line.split()[2:], [])
            sessions.append(current)
        elif current is not None and line:
            current[1].append(line)
        else:
            current = None
    return sessions


def test_readme_examples(capsys):
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    sessions = _readme_sessions(text)
    assert [argv[0] for argv, _ in sessions] == ["count", "solve", "verify"]

    # verify's engine times vary from run to run; compare all but their digits.
    def masked(lines):
        return [re.sub(r"\d+\.\d{3} ms", "_ ms", line) for line in lines]

    for argv, expected in sessions:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert masked(out.splitlines()) == masked(expected), argv
    # The CLI table's one-line examples: `rescong ramanujan ...` -> 12.
    table = re.findall(r"`rescong ((?:ramanujan|ggcd) [^`]*)` -> (-?\d+)", text)
    assert len(table) == 2
    for command, value in table:
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0
        assert out.splitlines()[0].endswith(f" = {value}"), command


def test_worked_example_script():
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "scripts", "worked_example.py")],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.strip() for line in proc.stdout.splitlines()]
    assert "pre-division sum = 48 (fourier_numerator agrees: 48)" in lines
    assert "count = 48 / 16 = 3" in lines
