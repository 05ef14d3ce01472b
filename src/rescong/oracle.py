"""Independent counting engines for restricted congruences.

Exhaustive tuple enumeration, cyclic convolution of class indicators
over Z/n**s packed into big integers, and solution listings.  None of
these touch the closed form; agreement between the two counting engines
and the closed form on the same instance is the backbone of the
verification sweep.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import Counter
from operator import index

from .arith import jordan_totient
from .congruence import CongruenceInstance, class_members
from .errors import BudgetExceededError, ConsistencyError, DomainError, show_instance, show_int

DEFAULT_TUPLE_BUDGET = 10**7
# Cap on n**s, the modulus that convolution scans slot by slot.
DEFAULT_VECTOR_BUDGET = 10**5


def brute_force_count(instance: CongruenceInstance, budget: int = DEFAULT_TUPLE_BUDGET) -> int:
    """Ground truth: walk every admissible tuple and count the hits.

    The tuple space, the product of the class sizes J_s(n / t_i), is
    checked against `budget` before any class is enumerated; the check
    stops at the first partial product past it, the empty product 1
    included.  Each class is then enumerated under the same budget.
    """
    n, s, budget = instance.n, instance.s, index(budget)
    total_tuples = 1
    for t in instance.restrictions:
        if total_tuples > budget:
            break
        total_tuples *= jordan_totient(n // t, s)
    if total_tuples > budget:
        raise BudgetExceededError(
            f"the tuple space holds at least {show_int(total_tuples)} tuples, past the "
            f"enumeration budget {show_int(budget)}; use convolution_count instead"
        )
    member_lists = [class_members(n, s, t, budget) for t in instance.restrictions]
    modulus, target = instance.modulus, instance.b
    return sum(1 for combo in itertools.product(*member_lists) if sum(combo) % modulus == target)


def convolution_count(instance: CongruenceInstance, budget: int = DEFAULT_VECTOR_BUDGET) -> int:
    """Cyclic convolution of class indicators over Z/n**s by Kronecker substitution.

    Each class indicator is packed into one int, residue x in slot
    x % m (m = n**s), and each product mod x**m - 1 is an int product
    folded with one mask and one shift.  A slot is w =
    mass.bit_length() // 8 + 1 bytes: mass = prod |C(t_i)| bounds every
    coefficient of every partial product, so no slot carries.  Each
    distinct t is raised to its multiplicity g by repeated squaring, so
    a count costs O(sum of 1 + log2(g) over the distinct t) products
    of (m * w)-byte ints, Karatsuba in CPython.  `budget` caps n**s,
    which bounds the packed ints and every class enumerated.
    """
    m, budget = instance.modulus, index(budget)
    if m > budget:
        raise BudgetExceededError(
            f"modulus {show_int(m)} exceeds the vector budget {show_int(budget)}"
        )
    classes = [
        (class_members(instance.n, instance.s, t, budget), g)
        for t, g in Counter(instance.restrictions).items()
    ]
    mass = math.prod(len(members) ** g for members, g in classes)
    width = mass.bit_length() // 8 + 1
    bits = 8 * width * m
    mask = (1 << bits) - 1

    def times(u: int, v: int) -> int:
        w = u * v  # degree < 2m - 1, so one fold reduces it mod x**m - 1
        return (w & mask) + (w >> bits)

    acc = 1  # delta at 0: the empty sum
    for members, g in classes:
        slots = bytearray(width * m)
        for x in members:
            slots[x % m * width] = 1
        power = int.from_bytes(slots, "little")
        while g:
            if g & 1:
                acc = times(acc, power)
            g >>= 1
            if g:
                power = times(power, power)
    raw = acc.to_bytes(width * m, "little")
    total = sum(sum(raw[j::width]) << 8 * j for j in range(width))
    if total != mass:
        raise ConsistencyError(
            f"convolution mass {show_int(total)} != expected {show_int(mass)} "
            f"of {show_instance(instance)}"
        )
    lo = instance.b * width
    return int.from_bytes(raw[lo : lo + width], "little")


def enumerate_solutions(
    instance: CongruenceInstance, limit: int, budget: int = DEFAULT_TUPLE_BUDGET
) -> list[tuple[int, ...]]:
    """Lexicographically first solutions, at most `limit`; `rescong solve` lists through it.

    `budget` bounds the tuples walked, the slots of the class scans (each
    distinct t once) and the entries listed.  The walk is refused only
    when it walks `budget` tuples, finds fewer than `limit` solutions,
    and tuples are left.  An odometer turns every position whose class
    has two or more members but the last such, whose block of tuples one
    bisection walks: its members lie in [1, n**s], so at most one meets
    b minus the rest of the sum.  A block costs O(1) amortized, whatever
    k is, and a solution O(k).
    """
    n, s, m, b = instance.n, instance.s, instance.modulus, instance.b
    limit, budget = index(limit), index(budget)
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {show_int(limit)}")
    ts = set(instance.restrictions)
    if (scan := sum((n // t) ** s for t in ts)) > budget:
        raise BudgetExceededError(
            f"the listing's classes scan {show_int(scan)} slots, past the budget {show_int(budget)}"
        )
    members = {t: class_members(n, s, t, budget) for t in ts}
    pools = [members[t] for t in instance.restrictions]
    turning = [i for i, pool in enumerate(pools) if len(pool) > 1]
    inner = turning.pop() if turning else -1
    block = pools[inner] if pools else (m,)  # k = 0: m = 0 (mod m) is the empty tuple
    digits = [0] * max(1, len(pools))
    rest = sum(pool[0] for pool in pools) - block[0]
    solutions, walked = [], 0
    while True:
        room = min(len(block), budget - walked)
        x = (b - rest) % m or m
        j = bisect_left(block, x)
        if j < room and block[j] == x:
            if (len(solutions) + 1) * len(pools) > budget:
                raise BudgetExceededError(
                    f"{len(solutions) + 1} solutions of {len(pools)} entries each pass the "
                    f"budget {show_int(budget)}"
                )
            digits[inner] = j
            solutions.append(tuple(pool[d] for pool, d in zip(pools, digits)))
            if len(solutions) == limit:
                return solutions
        walked += room
        if room < len(block):
            raise BudgetExceededError(
                f"the listing walked {show_int(budget)} tuples, its enumeration budget, and "
                f"found {len(solutions)} of the {show_int(limit)} solutions asked for"
            )
        for i in reversed(turning):
            pool, d = pools[i], digits[i]
            if d + 1 < len(pool):
                digits[i], rest = d + 1, rest + pool[d + 1] - pool[d]
                break
            digits[i], rest = 0, rest + pool[0] - pool[d]
        else:
            return solutions
