"""Independent counting engines for restricted congruences.

Exhaustive tuple enumeration, cyclic convolution of class indicators
over Z/n**s packed into big integers, explicit character sums, and
solution listings.  None of these touch the closed form; agreement
between all three counting paths on the same instance is the backbone
of the verification sweep.  The character sum over C(1) of r is Cohen's
definition of c_{r,s}; `cohen_ramanujan_direct` rounds it to an integer.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from operator import index

from .arith import check_power, jordan_totient
from .congruence import DEFAULT_CLASS_BUDGET, CongruenceInstance, class_members
from .errors import BudgetExceededError, ConsistencyError, DomainError, show_instance, show_int

DEFAULT_TUPLE_BUDGET = 10**7
# Cap on the modulus an oracle scans slot by slot: n**s for convolution,
# r**s for the term-by-term exponential oracle.
DEFAULT_VECTOR_BUDGET = 10**5
# Round-off for <= 10**5 unit-modulus terms summed with math.fsum stays
# orders of magnitude below this.
DIRECT_TOLERANCE = 1e-6


def _matching_tuples(instance: CongruenceInstance, budget: int = DEFAULT_TUPLE_BUDGET):
    """Iterator over the admissible tuples that solve `instance`, lexicographically.

    The tuple space, the product of the class sizes J_s(n / t_i), is
    checked against `budget` before any class is enumerated; the check
    stops at the first partial product past it, the empty product 1
    included.  Each class is then enumerated under the same budget.
    Class member lists are ascending, so the odometer order of
    itertools.product is exactly lexicographic order on the tuples.
    """
    n, s, ts = instance.n, instance.s, instance.restrictions
    budget = index(budget)
    total_tuples = 1
    for t in ts:
        if total_tuples > budget:
            break
        total_tuples *= jordan_totient(n // t, s)
    if total_tuples > budget:
        raise BudgetExceededError(
            f"the tuple space holds at least {show_int(total_tuples)} tuples, past the "
            f"enumeration budget {show_int(budget)}; use convolution_count instead"
        )
    member_lists = [class_members(n, s, t, budget) for t in ts]
    modulus = instance.modulus
    target = instance.b
    return (combo for combo in itertools.product(*member_lists) if sum(combo) % modulus == target)


def brute_force_count(instance: CongruenceInstance, budget: int = DEFAULT_TUPLE_BUDGET) -> int:
    """Ground truth: walk every admissible tuple and count the hits."""
    return sum(1 for _ in _matching_tuples(instance, budget))


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


def class_character_sum(
    n: int, s: int, d: int, m: int, budget: int = DEFAULT_CLASS_BUDGET
) -> complex:
    """sum(e(m * x / n**s) for x in C(d)); lands on c_{n/d, s}(m).

    The real and imaginary parts are each summed with math.fsum, and
    returned un-rounded so callers can check the residual themselves.
    """
    members = class_members(n, s, d, budget=budget)
    ns = n**s
    m_red = index(m) % ns
    angles = [2.0 * math.pi * ((m_red * x) % ns) / ns for x in members]
    return complex(math.fsum(map(math.cos, angles)), math.fsum(map(math.sin, angles)))


def cohen_ramanujan_direct(r: int, s: int, n: int, budget: int = DEFAULT_VECTOR_BUDGET) -> int:
    """c_{r,s}(n) straight from the exponential definition.

    The j in [1, r**s] with (j, r**s)_s == 1 are the class C(1) of r, so
    this is class_character_sum(r, s, 1, n), whose r**s-slot scan
    `budget` caps, snapped to the nearest integer.  A residual (imaginary
    part or distance to that integer) at or above DIRECT_TOLERANCE means
    the exact path and this one cannot both be right, so it raises
    ConsistencyError.
    """
    check_power(r, s, "r**s")
    total = class_character_sum(r, s, 1, n, budget)
    nearest = round(total.real)
    tol = DIRECT_TOLERANCE
    if abs(total.imag) >= tol or abs(total.real - nearest) >= tol:
        raise ConsistencyError(
            f"direct sum for c_{{{show_int(r)},{show_int(s)}}}({show_int(n)}) = {total!r} "
            f"is not within {tol} of an integer"
        )
    return int(nearest)


def enumerate_solutions(
    instance: CongruenceInstance, limit: int, budget: int = DEFAULT_TUPLE_BUDGET
) -> list[tuple[int, ...]]:
    """Lexicographically first solutions, at most `limit`; `rescong solve` lists through it."""
    limit = index(limit)
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {show_int(limit)}")
    return list(itertools.islice(_matching_tuples(instance, budget), min(limit, sys.maxsize)))
