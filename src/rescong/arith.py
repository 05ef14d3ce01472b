"""Elementary multiplicative number theory on plain integers.

Prime factorization (trial division until Miller-Rabin proves the rest
prime), divisor enumeration, the Moebius and Jordan totient functions,
and the generalized gcd (a, b)_s: the largest s-th power l**s dividing
both a and b.  Everything here is exact integer arithmetic; nothing
touches floating point.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import index

from .errors import DomainError, show_int

# Trial division stops once Miller-Rabin to the prime bases 2 to 13 (exact
# below 3.47 * 10**12) proves the rest prime, so the worst case left is two
# primes near 10**6: 999979 * 999983 takes 41 ms (best of 5, Python 3.11.7,
# 2-CPU shared host).  Refuse anything bigger.
FACTORIZE_LIMIT = 10**12
_MR_BASES = (2, 3, 5, 7, 11, 13)

# The most bits a power built from input (n**s, r**s) may have;
# `check_power` refuses a larger one before it is built.
MAX_POWER_BITS = 2**20


@lru_cache(maxsize=256, typed=True)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of 1 <= n <= FACTORIZE_LIMIT as (p, e) pairs.

    Primes strictly ascending, every e >= 1; 1 has no pairs.  Trial
    division over 2, 3 and 6k +- 1 stops as soon as the unfactored part
    passes `_is_prime`, which runs once on n and again after each prime
    divided out.
    """
    n = index(n)
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {show_int(n)}")
    if n > FACTORIZE_LIMIT:
        raise DomainError(f"cannot factor {show_int(n)}: the limit is {FACTORIZE_LIMIT}")
    pairs: list[tuple[int, int]] = []
    rem = n
    steps = itertools.chain((1, 2), itertools.cycle((2, 4)))
    p = 2
    prime = _is_prime(rem)
    while not prime and p * p <= rem:
        e = 0
        while rem % p == 0:
            rem //= p
            e += 1
        if e:
            pairs.append((p, e))
            prime = _is_prime(rem)
        p += next(steps)
    if rem > 1:
        pairs.append((rem, 1))
    return tuple(pairs)


def _is_prime(m: int) -> bool:
    """Miller-Rabin to _MR_BASES, exact for m < 3,474,749,660,383 (Jaeschke 1993)."""
    for a in _MR_BASES:
        if m < 2 or m % a == 0:
            return m == a
    r = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 == d * 2**r, d odd
    d = (m - 1) >> r
    return all(
        pow(a, d, m) == 1 or any(pow(a, d << i, m) == m - 1 for i in range(r))
        for a in _MR_BASES
    )


def check_power(base: int, exp: int, name: str) -> None:
    """The one gate for a power built from input, such as n**s or r**s.

    Raises DomainError, before base**exp is built, unless base, exp >= 1
    and it has at most MAX_POWER_BITS bits: for base >= 2, floor(exp *
    log2(base)) + 1 bits, more than exp and at most exp * bit_length(base).
    No message prints base or exp; a size is given as a power of two.
    """
    base, exp = index(base), index(exp)
    if base < 1 or exp < 1:
        raise DomainError(f"{name} requires {name.replace('**', ', ')} >= 1")
    if exp * base.bit_length() > MAX_POWER_BITS and base > 1 and (
        exp >= MAX_POWER_BITS or exp * math.log2(base) >= MAX_POWER_BITS
    ):
        least = max(MAX_POWER_BITS, (base.bit_length() - 1) * exp)
        raise DomainError(
            f"{name} would have more than 2**{least.bit_length() - 1} bits, "
            f"past the bound of {MAX_POWER_BITS} bits on a power"
        )


def divisors(n: int) -> list[int]:
    """All positive divisors of n, strictly ascending (1 first, n last)."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**i for i in range(e + 1) for d in divs]
    return sorted(divs)


def mobius(n: int) -> int:
    """Moebius mu(n): 0 when a squared prime divides n, else (-1)**omega(n)."""
    if n < 1:
        raise DomainError(f"mobius requires n >= 1, got {show_int(n)}")
    pairs = factorize(n)
    if any(e > 1 for _, e in pairs):
        return 0
    return -1 if len(pairs) % 2 else 1


def jordan_totient(n: int, s: int) -> int:
    """J_s(n) = n**s * prod(1 - p**-s over primes p | n), exactly.

    Counts the 1 <= y <= n**s with (y, n**s)_s == 1; J_1 is the Euler
    totient.
    """
    check_power(n, s, "n**s")
    out = 1
    for p, e in factorize(n):
        out *= p ** (s * e) - p ** (s * (e - 1))
    return out


def generalized_gcd(a: int, b: int, s: int) -> int:
    """The base l of (a, b)_s = l**s, the largest s-th power dividing both.

    At s == 1, l is the usual gcd.  Only s >= 2 factors the gcd, so the
    factorization limit binds there.

    Signs are ignored (divisibility is sign-blind) and one argument may
    be zero, in which case every integer divides it and the other
    argument decides the answer.  Both zero is undefined.
    """
    s = index(s)
    if s < 1:
        raise DomainError(f"generalized_gcd requires s >= 1, got {show_int(s)}")
    if a == 0 and b == 0:
        raise DomainError("generalized_gcd requires at least one nonzero argument")
    g = math.gcd(abs(a), abs(b))
    if s == 1:
        return g
    return math.prod(p ** (e // s) for p, e in factorize(g))
