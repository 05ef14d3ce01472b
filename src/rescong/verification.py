"""Cross-engine agreement sweeps and the exhaustive property suites.

`engine_sweep` walks a grid of restricted-congruence instances in
canonical order (ascending n, s, k, restriction tuple, b) and demands
that the closed form, brute-force enumeration, and cyclic convolution
all return the same count.  `identity_suites` exhaustively checks the
structural identities the closed form rests on: periodicity of the
generalized gcd, argument reduction / periodicity / reflection of
c_{r,s}, and collapse of c_{e,s} under gcd with any n**s for e | n.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from . import congruence, oracle
from .arith import divisors, factorize, generalized_gcd
from .congruence import CongruenceInstance
from .errors import DomainError
from .ramanujan import cohen_ramanujan

# Above this many instances the sweep switches to a seeded subsample.
DEFAULT_INSTANCE_CAP = 250_000

SweepConfig = namedtuple(
    "SweepConfig", "max_n s_values max_k seed cap", defaults=(6, (1, 2), 3, 0, DEFAULT_INSTANCE_CAP)
)
SweepConfig.__doc__ = "Bounds for the engine-agreement sweep."


class SweepReport:
    def __init__(self, space: int, checked: int, subsampled: bool) -> None:
        self.space = space
        self.checked = checked
        self.subsampled = subsampled
        self.mismatches: list[dict] = []

    @property
    def ok(self) -> bool:
        return not self.mismatches


class PropertyReport:
    def __init__(self) -> None:
        self.checks = 0
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures


def _blocks(cfg: SweepConfig):
    """(n, s, k, size = tau(n)**k * n**s) per block, in grid order.

    An empty grid, or a power below one, is a DomainError.  tau(n) comes
    from the exponents of n, so no divisor is listed.
    """
    if cfg.max_n < 1:
        raise DomainError(f"engine_sweep requires max_n >= 1, got {cfg.max_n}")
    if cfg.max_k < 0:
        raise DomainError(f"engine_sweep requires max_k >= 0, got {cfg.max_k}")
    if not cfg.s_values:
        raise DomainError("engine_sweep requires at least one power s")
    for s in cfg.s_values:
        if s < 1:
            raise DomainError(f"engine_sweep requires every power s >= 1, got {s}")
    powers = sorted(set(cfg.s_values))
    for n in range(1, cfg.max_n + 1):
        tau = math.prod(e + 1 for _, e in factorize(n))
        for s in powers:
            for k in range(cfg.max_k + 1):
                yield n, s, k, tau**k * n**s


def instance_space_size(cfg: SweepConfig) -> int:
    return sum(size for *_, size in _blocks(cfg))


def _grid_instances(cfg: SweepConfig, positions):
    """Instances at ascending grid positions, in grid order (n, s, k, t, b).

    Each position is unranked in mixed radix inside its (n, s, k) block:
    b is the innermost digit and t the base-tau digits above it, the last
    one varying fastest.  The cost is one step per position and per
    block; divisors are listed only for a block that holds a position.
    """
    positions = iter(positions)
    pos = next(positions, None)
    start = 0
    for n, s, k, size in _blocks(cfg):
        if pos is None:
            return
        block, start = start, start + size
        if pos >= start:
            continue
        divs = divisors(n)
        tau, ns = len(divs), n**s
        while pos is not None and pos < start:
            rank, b = divmod(pos - block, ns)
            t = []
            for _ in range(k):
                rank, digit = divmod(rank, tau)
                t.append(divs[digit])
            yield CongruenceInstance(n=n, s=s, b=b, restrictions=reversed(t))
            pos = next(positions, None)


def engine_sweep(cfg: SweepConfig) -> SweepReport:
    """Tripartite formula == brute force == convolution check over the grid.

    When the grid exceeds cfg.cap, a reproducible random subsample of
    exactly cfg.cap instances (seeded by cfg.seed) is checked instead.
    """
    space = instance_space_size(cfg)
    if cfg.cap < 0:
        raise DomainError(f"engine_sweep requires cap >= 0, got {cfg.cap}")
    subsampled = space > cfg.cap
    positions = range(space)
    if subsampled:
        positions = sorted(random.Random(cfg.seed).sample(positions, cfg.cap))
    report = SweepReport(space=space, checked=0, subsampled=subsampled)
    for inst in _grid_instances(cfg, positions):
        formula = congruence.count_restricted(inst)
        brute = oracle.brute_force_count(inst)
        conv = oracle.convolution_count(inst)
        report.checked += 1
        if not (formula == brute == conv):
            report.mismatches.append(
                {
                    "n": inst.n,
                    "s": inst.s,
                    "b": inst.b,
                    "t": list(inst.restrictions),
                    "formula": str(formula),
                    "brute_force": str(brute),
                    "convolution": str(conv),
                }
            )
    return report


def identity_suites() -> PropertyReport:
    """Exhaustive structural identity checks at their documented ranges."""
    rep = PropertyReport()

    # (a, b)_s is b-periodic in its first argument.
    for s in (1, 2, 3):
        for a in range(1, 201):
            for b in range(1, 201):
                rep.checks += 1
                if generalized_gcd(a + b, b, s).value != generalized_gcd(a, b, s).value:
                    rep.failures.append(f"ggcd b-periodicity: a={a} b={b} s={s}")

    # c_{r,s}(n): collapse to the reduced argument, period r**s, reflection.
    for r in range(1, 13):
        for s in (1, 2, 3):
            rs = r**s
            for n in range(rs):
                value = cohen_ramanujan(r, s, n)
                reduced = generalized_gcd(n, rs, s).value
                rep.checks += 3
                if value != cohen_ramanujan(r, s, reduced):
                    rep.failures.append(f"argument reduction: r={r} s={s} n={n}")
                if value != cohen_ramanujan(r, s, n + rs):
                    rep.failures.append(f"periodicity: r={r} s={s} n={n}")
                if value != cohen_ramanujan(r, s, -n):
                    rep.failures.append(f"reflection: r={r} s={s} n={n}")

    # For e | n, c_{e,s}(m) only sees (m, n**s)_s.
    for n in range(1, 25):
        for s in (1, 2):
            ns = n**s
            for e in divisors(n):
                for m in range(1, ns + 1):
                    rep.checks += 1
                    collapsed = generalized_gcd(m, ns, s).value
                    if cohen_ramanujan(e, s, m) != cohen_ramanujan(e, s, collapsed):
                        rep.failures.append(f"(n,s)-evenness: n={n} s={s} e={e} m={m}")

    return rep
