import gc
import importlib
import pkgutil
import random
import tracemalloc

import rescong
from rescong import verification
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
