"""Cross-engine agreement sweep with the structural identities on its way.

`engine_sweep` walks a grid of restricted-congruence instances in
canonical order (ascending n, s, k, restriction tuple, b) and demands
that the closed form, brute-force enumeration, and cyclic convolution
all return the same count.  An engine that refuses an instance for its
budget is counted, and the engines that answered are compared.  On each
k = 1 instance (n, s, b, (t,)) it also checks the identities the closed
form rests on, with r = n/t and m = b: (m, n**s)_s is n**s-periodic in
m, and c_{r,s}(m) equals its value at (m, n**s)_s, at m + r**s and at
-m.  The (t, b) cells of the k = 1 blocks are the (r, m) cells for
r | n, so an exhaustive sweep checks each such cell once and a
subsample checks the cells it draws.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
import time
from collections import namedtuple

from . import congruence, oracle
from .arith import check_power, divisors, factorize
from .congruence import CongruenceInstance
from .errors import BudgetExceededError, DomainError, show_int
from .ramanujan import capped_valuation, cohen_ramanujan

# Above this many instances the sweep switches to a seeded subsample.
DEFAULT_INSTANCE_CAP = 250_000
# A grid of more (n, s, k) blocks than this is refused before it is sized.
MAX_BLOCKS = 2**16
# The engines the sweep compares, in running order, by record key.  Each is
# looked up on its module at every call, so a wrapper set there sees it.
_ENGINES = {
    "formula": (congruence, "count_restricted"),
    "brute_force": (oracle, "brute_force_count"),
    "convolution": (oracle, "convolution_count"),
}

SweepConfig = namedtuple(
    "SweepConfig", "max_n s_values max_k seed cap", defaults=(6, (1, 2), 3, 0, DEFAULT_INSTANCE_CAP)
)
SweepConfig.__doc__ = "Bounds for the engine-agreement sweep."


class SweepReport(namedtuple("SweepReport", "space checked subsampled mismatches "
                             "identity_checks identity_failures engine_ms refused")):
    """What `engine_sweep` found; built once, when the sweep ends."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.identity_failures


def _cells(cfg: SweepConfig):
    """The (n, s, k) blocks of the grid, in grid order: n, then s ascending, then k."""
    return itertools.product(range(1, cfg.max_n + 1), sorted(set(cfg.s_values)), range(cfg.max_k + 1))


def _blocks(cfg: SweepConfig) -> list[int]:
    """The end position of each block of `_cells(cfg)`, in grid order.

    Block (n, s, k) holds tau(n)**k * n**s instances.  An empty grid, a
    max_n or power below one (`check_power`), more than MAX_BLOCKS
    blocks or a block max_n**s past MAX_POWER_BITS bits is a
    DomainError, raised before any sizing work.  tau(n) comes from one
    divisor-count sieve, so nothing is factored or listed.
    """
    if cfg.max_k < 0:
        raise DomainError(f"engine_sweep requires max_k >= 0, got {show_int(cfg.max_k)}")
    if not cfg.s_values:
        raise DomainError("engine_sweep requires at least one power s")
    powers = sorted(set(cfg.s_values))
    check_power(cfg.max_n, powers[0], "max_n**s")
    count = cfg.max_n * len(powers) * (cfg.max_k + 1)
    if count > MAX_BLOCKS:
        # Sized by bits: a 20-digit max_k can push the decimal form of
        # the count past the interpreter's 4300-digit cap on int -> str.
        raise DomainError(
            f"engine_sweep requires at most {MAX_BLOCKS} blocks, max_n * len(set(s_values)) "
            f"* (max_k + 1); got at least 2**{count.bit_length() - 1}"
        )
    check_power(cfg.max_n, powers[-1], "max_n**s")
    tau = [0] * (cfg.max_n + 1)
    for d in range(1, cfg.max_n + 1):
        for multiple in range(d, cfg.max_n + 1, d):
            tau[multiple] += 1
    return list(itertools.accumulate(tau[n] ** k * n**s for n, s, k in _cells(cfg)))


def _grid_instances(cfg: SweepConfig, ends: list[int], positions):
    """Instances at ascending grid positions, in grid order (n, s, k, t, b).

    `ends` is `_blocks(cfg)`, walked with `_cells(cfg)` in step with the
    positions.  Each position is unranked in mixed radix inside its
    block: b is the innermost digit and t the base-tau digits above it,
    the last one varying fastest.  Divisors are listed only for a block
    that holds a position, once per block.
    """
    rows, end = zip(ends, _cells(cfg)), 0
    for pos in positions:
        if pos >= end:
            while pos >= end:
                start, (end, (n, s, k)) = end, next(rows)
            divs = divisors(n)
            tau, ns = len(divs), n**s
        rank, b = divmod(pos - start, ns)
        t = []
        for _ in range(k):
            rank, digit = divmod(rank, tau)
            t.append(divs[digit])
        yield CongruenceInstance(n=n, s=s, b=b, restrictions=reversed(t))


def _identities(inst: CongruenceInstance) -> dict[str, bool]:
    """Whether each structural identity holds at a k = 1 instance, by name."""
    (t,) = inst.restrictions
    n, s, m, ns = inst.n, inst.s, inst.b, inst.modulus
    r = n // t
    # The base of (x, n**s)_s, read at the primes of n as the closed form reads b.
    reduced, shifted = (
        math.prod(p ** capped_valuation(x, p**s, e) for p, e in factorize(n)) for x in (m, m + ns)
    )
    value = cohen_ramanujan(r, s, m)
    return {
        "ggcd periodicity": shifted == reduced,
        "argument reduction": cohen_ramanujan(r, s, reduced**s) == value,
        "periodicity": cohen_ramanujan(r, s, m + r**s) == value,
        "reflection": cohen_ramanujan(r, s, -m) == value,
    }


def engine_sweep(cfg: SweepConfig) -> SweepReport:
    """Check that the engines of `_ENGINES` agree on every instance of the grid.

    When the grid exceeds cfg.cap, a reproducible random subsample of
    exactly cfg.cap instances (seeded by cfg.seed) is checked instead.
    Every k = 1 instance checked also runs the checks of `_identities`.
    `report.engine_ms` holds each engine's time over all instances and
    `report.refused` how many instances it refused for its budget, both
    keyed as in `_ENGINES` and in a mismatch record, which holds only
    the engines that answered.
    """
    ends = _blocks(cfg)
    space = ends[-1]
    if cfg.cap < 0:
        raise DomainError(f"engine_sweep requires cap >= 0, got {show_int(cfg.cap)}")
    subsampled = space > cfg.cap
    positions = range(space)
    if subsampled:
        if space > sys.maxsize:
            # Sized by bits: the decimal form of a huge size can pass
            # the interpreter's 4300-digit cap on int -> str.
            raise DomainError(
                f"engine_sweep cannot subsample a grid of at least "
                f"2**{space.bit_length() - 1} instances (more than sys.maxsize = {sys.maxsize})"
            )
        positions = sorted(random.Random(cfg.seed).sample(positions, cfg.cap))
    clock = time.perf_counter_ns
    engine_ns, refused = dict.fromkeys(_ENGINES, 0), dict.fromkeys(_ENGINES, 0)
    mismatches, identity_checks, identity_failures = [], 0, []
    for inst in _grid_instances(cfg, ends, positions):
        if inst.k == 1:
            held = _identities(inst)
            identity_checks += len(held)
            identity_failures += [
                f"{name}: n={inst.n} s={inst.s} r={inst.n // inst.restrictions[0]} m={inst.b}"
                for name in held if not held[name]
            ]
        counts = {}
        start = clock()
        for key, (module, name) in _ENGINES.items():
            try:
                counts[key] = getattr(module, name)(inst)
            except BudgetExceededError:
                refused[key] += 1
            stop = clock()
            engine_ns[key] += stop - start
            start = stop
        if len(set(counts.values())) > 1:
            record = {"n": inst.n, "s": inst.s, "b": inst.b, "t": list(inst.restrictions)}
            mismatches.append(record | {key: str(c) for key, c in counts.items()})
    return SweepReport(
        space, len(positions), subsampled, mismatches, identity_checks, identity_failures,
        {key: ns / 1e6 for key, ns in engine_ns.items()}, refused,
    )
