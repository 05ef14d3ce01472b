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
every c_{r,s} in the sum is a product, over p**e || n, of Cohen's
prime-power sums (`rescong.ramanujan._prime_power_sum`), each a
function of x = p**s, its order and one level.  Only the box of divisors
whose term is nonzero is summed; `_Group` states its rule.  In
the worked example n = 4, s = 2, b = 5, t = (1, 2), b is odd, so
cap_2 = 1 and d = 4 is the one term dropped: c_{4,2}(5) == 0.  The
pre-division sum is provably a multiple of n**s; `count_restricted`
enforces that on every call and raises ConsistencyError on violation,
since a failure can only mean a bug.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter, namedtuple
from functools import lru_cache
from operator import getitem, index, mul

from .arith import check_power, divisors, factorize
from .errors import BudgetExceededError, ConsistencyError, DomainError, show_instance, show_int
from .ramanujan import _prime_power_sum, capped_valuation

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
    to (x_i, n**s)_s == t_i**s.  k == 0 is allowed (empty sum).  Every
    construction, `_make` and `_replace` included, reduces b into
    [0, n**s), as the count is n**s-periodic in b, and requires n, s, b
    and every t_i to be integers (`operator.index`, else TypeError), n
    and s >= 1, and n**s of at most MAX_POWER_BITS bits (`check_power`).
    """

    __slots__ = ()

    def __new__(cls, n: int, s: int, b: int, restrictions=()):
        n, s, b = index(n), index(s), index(b)
        check_power(n, s, "n**s")
        restrictions = tuple(map(index, restrictions))
        for i, t in enumerate(restrictions, start=1):
            if t < 1 or n % t != 0:
                raise DomainError(
                    f"restriction t_{i} = {show_int(t)} is not a positive divisor of n = {show_int(n)}"
                )
        return super().__new__(cls, n, s, b % n**s, restrictions)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

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


@lru_cache(maxsize=64, typed=True)
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
    d, budget = index(d), index(budget)
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


# A group entry keeps its level classes' numerators, each charged its
# int and its key by sys.getsizeof, up to 64 KB in all.
_MEMO_BYTES = 2**16


class _Group:
    """The b-independent half of the sum, for one (n, s, restrictions).

    primes holds one (x, cap) pair per p**e || n, with x = p**s, and
    groups one (columns, g) pair per distinct restriction t, with g its
    multiplicity and columns[i] its inner list at the i-th prime, listed
    for a = v_p(d) = 0 .. cap: c_{p**(e - v_p(t)),s}(p**((e - a)*s)),
    order e - v_p(t) at level e - a.  outers(levels) lists, per prime,
    c_{p**a,s}(b) at the level j of b, order a.  The term of d is the
    product over the primes of outer[a] * prod(column[a] ** g).

    The box rule: the sum at order a and level j is zero exactly when
    j < a - 1, so c_{d,s}(b) vanishes once v_p(d) > j + 1 and the factor
    of t once v_p(d) > v_p(t) + 1.  With cap = min(e, v_p(t) + 1 for
    every t) and the box v_p(d) <= min(cap, j + 1), every term outside
    the box has a zero factor, and no entry listed here is zero.  Past
    cap the level of b changes no entry read, so levels(b) caps it at
    cap and names b's level class.  bits bounds the log2 of the count
    by the class sizes.  numerators keeps the numerator of each level
    class met, up to room bytes.
    """

    __slots__ = ("primes", "groups", "bits", "numerators", "room")

    def __init__(self, n: int, s: int, restrictions: tuple[int, ...]):
        counts = Counter(restrictions)
        self.primes, columns = [], []
        for p, e in factorize(n):
            x = p**s
            # t | n, so gcd(t, p**e) is p**v_p(t).
            exponent = {p**v: v for v in range(e + 1)}
            vs = [exponent[math.gcd(t, p**e)] for t in counts]
            cap = min([e] + [v + 1 for v in vs])
            inners = {v: [_prime_power_sum(x, e - v, e - a) for a in range(cap + 1)] for v in set(vs)}
            self.primes.append((x, cap))
            columns.append([inners[v] for v in vs])
        # n = 1 has no primes and so no pairs: its one term is the empty product 1.
        self.groups = list(zip(zip(*columns), counts.values()))
        # The last unknown is fixed by the others, so the count is at most
        # prod J_s(n/t_i) over all unknowns but one; J_s(p**c) = c_{p**c,s}(0)
        # is a column's entry at a = 0.
        log_sizes = [math.log2(math.prod([column[0] for column in cols])) for cols, _ in self.groups]
        self.bits = sum(map(mul, log_sizes, counts.values())) - max(log_sizes, default=0)
        self.numerators, self.room = {}, _MEMO_BYTES

    def levels(self, b: int) -> tuple[int, ...]:
        return tuple([capped_valuation(b, x, cap) for x, cap in self.primes])

    def outers(self, levels: tuple[int, ...]) -> list[list[int]]:
        return [
            [_prime_power_sum(x, a, j) for a in range(min(cap, j + 1) + 1)]
            for (x, cap), j in zip(self.primes, levels)
        ]


# One entry: `engine_sweep` walks b innermost, so every later b of an
# (n, s, restrictions) group reads the first one's tables.
_group = lru_cache(maxsize=1, typed=True)(_Group)


def fourier_numerator(instance: CongruenceInstance) -> int:
    """Pre-division sum of the counting formula; always a multiple of n**s.

    n is factored once per (n, s, restrictions) group, and every term is
    a product of one entry per prime of Cohen's prime-power sums.  Only
    the box of divisors whose term has no zero factor is visited
    (`_Group`), so the sum is exact and no term is tested for zero.  On
    every call, a count whose bound from the class sizes has more than
    MAX_COUNT_BITS bits is refused with DomainError, whether or not the
    count itself is small.  b enters only through its level class: the
    last group's tables are kept, with the numerator of each class met
    while they fit in _MEMO_BYTES, so the next b of a class sums nothing.
    """
    group = _group(instance.n, instance.s, instance.restrictions)
    if group.bits > MAX_COUNT_BITS:
        raise DomainError(
            f"the count's bound from the class sizes has 2**{int(group.bits).bit_length() - 1} bits "
            f"or more, past the limit of {MAX_COUNT_BITS} bits on a count"
        )
    levels = group.levels(instance.b)
    total = group.numerators.get(levels)
    if total is not None:
        return total
    outers = group.outers(levels)
    total = 0
    for d_exps in itertools.product(*(range(len(outer)) for outer in outers)):
        term = math.prod(map(getitem, outers, d_exps))
        for columns, g in group.groups:
            term *= math.prod(map(getitem, columns, d_exps)) ** g
        total += term
    size = sys.getsizeof(total) + sys.getsizeof(levels)
    if size <= group.room:
        group.numerators[levels], group.room = total, group.room - size
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
