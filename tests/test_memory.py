import gc
import importlib
import pkgutil
import random
import sys
import tracemalloc

import rescong
from rescong import congruence, verification
from rescong.cli import main
from rescong.oracle import brute_force_count, convolution_count
from rescong.arith import divisors
from rescong.congruence import (
    CongruenceInstance,
    _class_members,
    class_members,
    fourier_numerator,
)
from rescong.verification import MAX_BLOCKS, SweepConfig


def test_every_memo_is_bounded():
    memos = []
    for info in pkgutil.iter_modules(rescong.__path__, "rescong."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                memos.append((info.name, name, value.cache_info().maxsize))
    assert memos, "expected the factorization and class memos"
    assert [m for m in memos if m[2] is None] == []


def test_large_class_leaves_memory_once_evicted():
    _class_members.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert len(class_members(316, 2, 1)) > 70_000
        _, peak = tracemalloc.get_traced_memory()
        for n in range(1, 65):
            class_members(n, 1, 1)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before > 2_000_000
    assert after - before < 1_000_000


def test_large_class_is_not_kept_after_return():
    _class_members.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert len(class_members(316, 2, 1)) > 70_000
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 1_000_000


def test_large_distribution_is_not_kept_after_return():
    # Its 99,856 slots of 4 bytes, 399,424 bytes, are past the 64 KB the
    # convolution memo keeps; kept, they would show here as about 400 KB.
    inst = CongruenceInstance(316, 2, 5, (1, 2))
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert convolution_count(inst) > 0
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 100_000


def test_large_brute_force_class_is_not_kept_after_return():
    # C(1) mod 999983 holds 999,982 members, past the 2**16 brute force keeps.
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert brute_force_count(CongruenceInstance(999983, 1, 1, (1,))) == 1
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 1_000_000


def test_group_numerators_stay_within_their_bytes():
    # 12,000 units mod 210: the 16 level classes of b hold numerators of
    # about 4.5 KB each, 73 KB in all, past the 64 KB a group entry keeps.
    ts = (1,) * 12_000
    sizes = {}
    for b in range(210):
        numerator = fourier_numerator(CongruenceInstance(210, 1, b, ts))
        group = congruence._group(210, 1, ts)
        levels = group.levels(b)
        sizes[levels] = sys.getsizeof(numerator) + sys.getsizeof(levels)
    assert len(sizes) == 16 and sum(sizes.values()) > 2**16
    kept = sum(sizes[levels] for levels in group.numerators)
    assert 2**15 < kept == 2**16 - group.room <= 2**16


def test_small_classes_hit_the_memo():
    _class_members.cache_clear()
    first = class_members(8, 2, 1)
    assert class_members(8, 2, 1) == first
    assert _class_members.cache_info().hits == 1


def test_numerator_keeps_nothing_between_calls():
    # Every call draws 1000 fresh restrictions over the 240 divisors, so
    # keeping any per-call state, such as the table rows picked for each
    # distinct restriction (tens of KB a call), outgrows 64 KB in 20 calls.
    rng = random.Random(5)
    divs = divisors(720720)
    instances = [
        CongruenceInstance(720720, 2, 1, tuple(rng.choice(divs) for _ in range(1000)))
        for _ in range(21)
    ]
    fourier_numerator(instances.pop())
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for inst in instances:
            assert fourier_numerator(inst) % inst.modulus == 0
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024


def test_block_table_of_the_largest_grid_is_small():
    # The sweep holds this table for its whole walk: one int per block, about 40 bytes.
    cfg = SweepConfig(max_n=MAX_BLOCKS, s_values=(1,), max_k=0)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        ends = verification._blocks(cfg)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ends) == MAX_BLOCKS
    assert after - before < 4_000_000


def test_repeated_entries_of_a_listing_share_their_strings(capsys):
    # 100 solutions of 2000 units mod 3: 200,000 entries, each 1 or 2.  A
    # string apiece would take about 50 bytes an entry, 10 MB on its own.
    argv = ["solve", "--n", "3", "--s", "1", "--b", "0", "--g", "2000,0", "--limit", "100",
            "--format", "json"]
    assert main(argv) == 0
    capsys.readouterr()
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(capsys.readouterr().out) > 1_000_000
    assert peak < 8_000_000
