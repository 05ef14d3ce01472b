"""Solution counts for restricted linear congruences.

The central object is x_1 + ... + x_k == b (mod n**s) where every
unknown is confined to a divisor class of the modulus,

    C(d) = {1 <= x <= n**s : (x, n**s)_s == d**s},    d | n.

With d_1 < ... < d_tau the divisors of n and g_j the number of unknowns
assigned to C(d_j), the number of solutions is

    (1 / n**s) * sum(c_{d,s}(b)
                     * prod(c_{n/d_j, s}(n**s / d**s) ** g_j for all j)
                     for d | n)

evaluated here entirely in exact integers.  n is factored once, and
every c_{r,s} in the sum is a product, over p**e || n, of entries of
one table of Cohen's prime-power sums per prime, built per call
(`rescong.ramanujan.prime_power_table`).  The pre-division sum is
provably a multiple of n**s; `count_restricted` enforces that on every
call and raises ConsistencyError on violation, since a failure can only
mean a bug.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple
from functools import lru_cache
from operator import getitem

from .arith import divisors, factorize
from .errors import BudgetExceededError, ConsistencyError, DomainError
from .ramanujan import capped_valuation, prime_power_table

# Ceiling on the (n/d)**s slots scanned to enumerate one class C(d).
DEFAULT_CLASS_BUDGET = 10**6

# Evidence that the integrality invariant is exercised: every closed-form
# evaluation bumps "checked"; "failed" stays zero unless a bug slips in
# (the same condition also raises ConsistencyError).
DIVISIBILITY_STATS = {"checked": 0, "failed": 0}


class CongruenceInstance(namedtuple("CongruenceInstance", "n s b restrictions")):
    """One restricted congruence: sum of k unknowns == b (mod n**s).

    `restrictions` lists the base divisors t_i of n pinning each unknown
    to (x_i, n**s)_s == t_i**s.  k == 0 is allowed (empty sum).  The
    target b is reduced into [0, n**s) on construction; the count is
    n**s-periodic in b so nothing is lost.
    """

    __slots__ = ()

    def __new__(cls, n: int, s: int, b: int, restrictions=()):
        if n < 1:
            raise DomainError(f"modulus base n must be >= 1, got {n}")
        if s < 1:
            raise DomainError(f"power s must be >= 1, got {s}")
        restrictions = tuple(restrictions)
        for i, t in enumerate(restrictions, start=1):
            if t < 1 or n % t != 0:
                raise DomainError(f"restriction t_{i} = {t} is not a positive divisor of n = {n}")
        return super().__new__(cls, n, s, b % n**s, restrictions)

    @property
    def modulus(self) -> int:
        return self.n**self.s

    @property
    def k(self) -> int:
        return len(self.restrictions)


class ClassProfile(namedtuple("ClassProfile", "divisors multiplicities")):
    """Divisors d_1 < ... < d_tau of n with g_j = #(restrictions equal to d_j)."""

    __slots__ = ()

    @property
    def k(self) -> int:
        return sum(self.multiplicities)


def class_profile(instance: CongruenceInstance) -> ClassProfile:
    """Collapse the ordered restriction list into per-divisor multiplicities."""
    divs = tuple(divisors(instance.n))
    counts = Counter(instance.restrictions)
    return ClassProfile(
        divisors=divs,
        multiplicities=tuple(counts.get(d, 0) for d in divs),
    )


# 64 entries hold every class of one (n, s) for n < 5040 (tau(n) <= 48
# there), which is the working set of a sweep that walks n in order.
# Only classes of at most _MEMO_SLOTS slots are kept, so the memo holds
# at most 64 * 4096 members; larger classes are rebuilt on every call.
_MEMO_SLOTS = 4096


@lru_cache(maxsize=64)
def _class_members(n: int, s: int, d: int) -> tuple[int, ...]:
    # x = d**s * y sweeps C(d) exactly as y runs over [1, (n/d)**s]
    # avoiding p**s | y for every prime p of n/d.  (Primes at full
    # multiplicity in d impose no condition on y.)  A sieve over the
    # slots y = 0 .. (n/d)**s strikes y = 0 and each multiple of a p**s.
    m = n // d
    ms, ds = m**s, d**s
    keep = bytearray(1) + b"\x01" * ms
    for p, _ in factorize(m):
        keep[:: p**s] = bytes(ms // p**s + 1)
    return tuple(itertools.compress(range(0, ds * (ms + 1), ds), keep))


def class_members(n: int, s: int, d: int, budget: int = DEFAULT_CLASS_BUDGET) -> list[int]:
    """Ascending members of C(d): the x in [1, n**s] with (x, n**s)_s == d**s.

    Enumeration scans (n/d)**s slots, and `budget` caps that scan.
    """
    if n < 1 or s < 1:
        raise DomainError(f"class_members requires n, s >= 1, got n={n} s={s}")
    if d < 1 or n % d != 0:
        raise DomainError(f"d = {d} is not a positive divisor of n = {n}")
    slots = (n // d) ** s
    if slots > budget:
        raise BudgetExceededError(
            f"enumerating C({d}) scans (n/d)**s = {slots} slots, budget is {budget}"
        )
    build = _class_members if slots <= _MEMO_SLOTS else _class_members.__wrapped__
    return list(build(n, s, d))


def fourier_numerator(instance: CongruenceInstance) -> int:
    """Pre-division sum of the counting formula; always a multiple of n**s.

    n is factored once and each prime p**e || n gets one table of Cohen's
    prime-power sums, entry [a][j] = c_{p**a,s}(m) at level
    j = min(v_p(m) // s, e) (`prime_power_table`).  A divisor d of n is
    its exponent vector, and every Ramanujan value in the sum is a
    product of one entry per prime: c_{d,s}(b) reads row v_p(d) at the
    level of b, and c_{n/t,s}(n**s / d**s) reads row e - v_p(t) at level
    e - v_p(d).  The tables live for one call only.
    """
    n, s = instance.n, instance.s
    primes = factorize(n)
    tables = [prime_power_table(p, e, s) for p, e in primes]
    b_levels = [capped_valuation(instance.b, p**s, e) for p, e in primes]
    # One entry per distinct restriction t: its table row at each prime
    # (the exponent there of n / t) and the number g of unknowns pinned to it.
    groups = [
        ([table[e - capped_valuation(t, p, e)] for (p, e), table in zip(primes, tables)], g)
        for t, g in Counter(instance.restrictions).items()
    ]
    total = 0
    for d_exps in itertools.product(*(range(e + 1) for _, e in primes)):
        term = math.prod(map(getitem, map(getitem, tables, d_exps), b_levels))
        arg_levels = [e - dp for (_, e), dp in zip(primes, d_exps)]
        for rows, g in groups:
            if term == 0:
                break
            term *= math.prod(map(getitem, rows, arg_levels)) ** g
        total += term
    return total


def count_restricted(instance: CongruenceInstance) -> int:
    """Number of solutions via the Ramanujan-sum closed form.

    Exact at any size; Python integers carry the result even when it
    reaches n**(s*(k-1)) and beyond.
    """
    numerator = fourier_numerator(instance)
    modulus = instance.modulus
    DIVISIBILITY_STATS["checked"] += 1
    if numerator % modulus != 0:
        DIVISIBILITY_STATS["failed"] += 1
        raise ConsistencyError(
            f"formula sum {numerator} is not divisible by modulus {modulus} for {instance}"
        )
    count = numerator // modulus
    if count < 0:
        raise ConsistencyError(f"negative solution count {count} for {instance}")
    return count
