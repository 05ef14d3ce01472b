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
(`rescong.ramanujan.prime_power_table`).  Since c_{p**a,s}(m) == 0
unless p**((a-1)*s) | m, a term is nonzero exactly when, at every p,
v_p(d) <= cap_p = min(e, v_p(b) // s + 1, v_p(t) + 1 for every t), so
only that box of divisors is summed.  In the worked example n = 4,
s = 2, b = 5, t = (1, 2), b is odd, so cap_2 = 1 and d = 4 is the one
term dropped: c_{4,2}(5) == 0.  The pre-division sum is
provably a multiple of n**s; `count_restricted` enforces that on every
call and raises ConsistencyError on violation, since a failure can only
mean a bug.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple
from functools import lru_cache
from operator import getitem, mul

from .arith import check_power, divisors, factorize
from .errors import BudgetExceededError, ConsistencyError, DomainError, show_instance, show_int
from .ramanujan import capped_valuation, prime_power_table

# Ceiling on the (n/d)**s slots scanned to enumerate one class C(d).
DEFAULT_CLASS_BUDGET = 10**6

# Ceiling on the bits of a count the closed form may build: a 2**21-bit
# int takes seconds to divide and to print in decimal.
MAX_COUNT_BITS = 2**21

# Evidence that the integrality invariant is exercised: every closed-form
# evaluation bumps "checked"; "failed" stays zero unless a bug slips in
# (the same condition also raises ConsistencyError).
DIVISIBILITY_STATS = {"checked": 0, "failed": 0}


class CongruenceInstance(namedtuple("CongruenceInstance", "n s b restrictions")):
    """One restricted congruence: sum of k unknowns == b (mod n**s).

    `restrictions` lists the base divisors t_i of n pinning each unknown
    to (x_i, n**s)_s == t_i**s.  k == 0 is allowed (empty sum).  The
    target b is reduced into [0, n**s) on construction; the count is
    n**s-periodic in b so nothing is lost.  n and s must be >= 1 and
    n**s at most MAX_POWER_BITS bits (`rescong.arith.check_power`).
    """

    __slots__ = ()

    def __new__(cls, n: int, s: int, b: int, restrictions=()):
        check_power(n, s, "n**s")
        restrictions = tuple(restrictions)
        for i, t in enumerate(restrictions, start=1):
            if t < 1 or n % t != 0:
                raise DomainError(
                    f"restriction t_{i} = {show_int(t)} is not a positive divisor of n = {show_int(n)}"
                )
        return super().__new__(cls, n, s, b % n**s, restrictions)

    @property
    def modulus(self) -> int:
        return self.n**self.s

    @property
    def k(self) -> int:
        return len(self.restrictions)


ClassProfile = namedtuple("ClassProfile", "divisors multiplicities")
ClassProfile.__doc__ = "Divisors d_1 < ... < d_tau of n with g_j = #(restrictions equal to d_j)."


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
    check_power(n, s, "n**s")
    if d < 1 or n % d != 0:
        raise DomainError(f"d = {show_int(d)} is not a positive divisor of n = {show_int(n)}")
    slots = (n // d) ** s
    if slots > budget:
        raise BudgetExceededError(
            f"enumerating C({show_int(d)}) scans (n/d)**s = {show_int(slots)} slots, "
            f"budget is {show_int(budget)}"
        )
    build = _class_members if slots <= _MEMO_SLOTS else _class_members.__wrapped__
    return list(build(n, s, d))


def _term_box(instance: CongruenceInstance):
    """The box of divisors d of n whose term in the sum is nonzero.

    Returns (primes, b_levels, counts, caps): the (p, e) of n, the level
    min(v_p(b) // s, e) of b at each prime, the multiplicity of each
    distinct t, and cap_p = min(e, level_p(b) + 1, v_p(gcd of the t) + 1).
    Table entry [a][j] is zero exactly when j < a - 1, so c_{d,s}(b)
    vanishes once v_p(d) > level_p(b) + 1, and c_{n/t,s}(n**s / d**s),
    row e - v_p(t) at level e - v_p(d), once v_p(d) > v_p(t) + 1.
    """
    primes = factorize(instance.n)
    b_levels = [capped_valuation(instance.b, p**instance.s, e) for p, e in primes]
    counts = Counter(instance.restrictions)
    common = math.gcd(*counts)  # 0 when k == 0, which caps nothing
    # min(c, v + 1) is min(v, c - 1) + 1, so the valuation stops at c - 1.
    caps = [
        capped_valuation(common, p, min(e, j + 1) - 1) + 1
        for (p, e), j in zip(primes, b_levels)
    ]
    return primes, b_levels, counts, caps


def fourier_numerator(instance: CongruenceInstance) -> int:
    """Pre-division sum of the counting formula; always a multiple of n**s.

    n is factored once and each prime p**e || n gets one table of Cohen's
    prime-power sums, entry [a][j] = c_{p**a,s}(m) at level
    j = min(v_p(m) // s, e) (`prime_power_table`).  A divisor d of n is
    its exponent vector, and every Ramanujan value in the sum is a
    product of one entry per prime: c_{d,s}(b) reads row v_p(d) at the
    level of b, and c_{n/t,s}(n**s / d**s) reads row e - v_p(t) at level
    e - v_p(d), which is entry v_p(d) of that row reversed.  The tables
    live for one call only.

    Only the divisors with v_p(d) <= cap_p at every prime are visited
    (`_term_box`): every term outside that box has a zero factor and
    every term inside it is nonzero, so the sum is exact and no term is
    tested for zero.  Before the sum, a count whose bound from the class
    sizes has more than MAX_COUNT_BITS bits is refused with DomainError,
    whether or not the count itself is small.
    """
    primes, b_levels, counts, caps = _term_box(instance)
    tables = [prime_power_table(p, e, instance.s) for p, e in primes]
    reversed_tables = [[row[::-1] for row in table] for table in tables]
    # One entry per distinct restriction t: its reversed table row at each
    # prime (the exponent there of n / t) and the number g of unknowns
    # pinned to it.
    groups = [
        ([rows[e - capped_valuation(t, p, e)] for (p, e), rows in zip(primes, reversed_tables)], g)
        for t, g in counts.items()
    ]
    # The last unknown is fixed by the others, so the count is at most
    # prod J_s(n/t_i) over all unknowns but one; J_s(p**a) = c_{p**a,s}(0)
    # is the first entry of reversed row a.
    log_sizes = [math.log2(math.prod([row[0] for row in rows])) for rows, _ in groups]
    bits = sum(map(mul, log_sizes, counts.values())) - max(log_sizes, default=0)
    if bits > MAX_COUNT_BITS:
        raise DomainError(
            f"the count's bound from the class sizes has 2**{int(bits).bit_length() - 1} bits "
            f"or more, past the limit of {MAX_COUNT_BITS} bits on a count"
        )
    total = 0
    for d_exps in itertools.product(*(range(cap + 1) for cap in caps)):
        term = math.prod(map(getitem, map(getitem, tables, d_exps), b_levels))
        for rows, g in groups:
            term *= math.prod(map(getitem, rows, d_exps)) ** g
        total += term
    return total


def count_restricted(instance: CongruenceInstance) -> int:
    """Number of solutions via the Ramanujan-sum closed form.

    Exact integers throughout, up to MAX_COUNT_BITS bits of the count's
    bound (`fourier_numerator`).
    """
    numerator = fourier_numerator(instance)
    modulus = instance.modulus
    count, remainder = divmod(numerator, modulus)
    DIVISIBILITY_STATS["checked"] += 1
    if remainder != 0:
        DIVISIBILITY_STATS["failed"] += 1
        raise ConsistencyError(
            f"formula sum {show_int(numerator)} is not divisible by modulus {show_int(modulus)} "
            f"for {show_instance(instance)}"
        )
    if count < 0:
        raise ConsistencyError(
            f"negative solution count {show_int(count)} for {show_instance(instance)}"
        )
    return count
