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

import random
from collections import namedtuple

from . import congruence, oracle
from .arith import divisors, generalized_gcd
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


def instance_space_size(cfg: SweepConfig) -> int:
    total = 0
    for n in range(1, cfg.max_n + 1):
        tau = len(divisors(n))
        tuple_count = sum(tau**k for k in range(cfg.max_k + 1))
        total += sum(tuple_count * n**s for s in set(cfg.s_values))
    return total


def _grid_instances(cfg: SweepConfig, positions):
    """Instances at ascending grid positions, in grid order (n, s, k, t, b).

    Each position is unranked in mixed radix inside its (n, s, k) block:
    b is the innermost digit and t the base-tau digits above it, the last
    one varying fastest.  The cost is one step per position and per
    block, not one per instance of the grid.
    """
    positions = iter(positions)
    pos = next(positions, None)
    start = 0
    for n in range(1, cfg.max_n + 1):
        divs = divisors(n)
        tau = len(divs)
        for s in sorted(set(cfg.s_values)):
            ns = n**s
            for k in range(cfg.max_k + 1):
                block, start = start, start + tau**k * ns
                while pos is not None and pos < start:
                    rank, b = divmod(pos - block, ns)
                    t = []
                    for _ in range(k):
                        rank, digit = divmod(rank, tau)
                        t.append(divs[digit])
                    yield CongruenceInstance(n=n, s=s, b=b, restrictions=reversed(t))
                    pos = next(positions, None)
                if pos is None:
                    return


def engine_sweep(cfg: SweepConfig) -> SweepReport:
    """Tripartite formula == brute force == convolution check over the grid.

    When the grid exceeds cfg.cap, a reproducible random subsample of
    exactly cfg.cap instances (seeded by cfg.seed) is checked instead.
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
    if cfg.cap < 0:
        raise DomainError(f"engine_sweep requires cap >= 0, got {cfg.cap}")
    space = instance_space_size(cfg)
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
