"""Generalized Ramanujan sums; s == 1 gives the classic ones.

The generalized sum over the s-th-power coprime residues is

    c_{r,s}(n) = sum(e(n * j / r**s) for 1 <= j <= r**s if (j, r**s)_s == 1)

with e(x) = exp(2*pi*i*x).  It is integer valued; at s == 1 it reduces to
the classic c_r(n) over primitive r-th roots of unity.  Cohen showed it is
multiplicative in r, with the prime-power form

    c_{p**a,s}(n) = [p**(a*s) | n] * p**(a*s) - [p**((a-1)*s) | n] * p**((a-1)*s)

so production evaluation factors r alone and reads n only through its
level min(v_p(n) // s, a) at each p**a || r, and p and s only through
x = p**s: `_prime_power_sum(x, a, j)` is a polynomial in x.  Negative
arguments, periodicity mod r**s and arguments far past the factorization
limit need no special case.  Everything here is exact integer arithmetic.
The tests hold two references independent of that form in
`tests/reference.py`: the exact Moebius divisor sum, and the exponential
definition itself evaluated in floating point.
"""

from __future__ import annotations

from operator import index

from .arith import check_power, factorize


def capped_valuation(m: int, q: int, cap: int) -> int:
    """min(v_q(m), cap) for q >= 2; m == 0 gives cap."""
    j = 0
    while j < cap and m % q == 0:
        m //= q
        j += 1
    return j


def _prime_power_sum(x: int, a: int, j: int) -> int:
    """c_{p**a,s}(m) for x = p**s at level j = min(v_p(m) // s, a); any j >= a reads as a."""
    if a == 0:
        return 1
    low = x ** (a - 1) if j >= a - 1 else 0
    return low * x - low if j >= a else -low


def cohen_ramanujan(r: int, s: int, n: int) -> int:
    """c_{r,s}(n) exactly, as the product of prime-power sums over p**a || r."""
    r, s, n = index(r), index(s), index(n)
    check_power(r, s, "r**s")
    value = 1
    for p, a in factorize(r):
        x = p**s
        value *= _prime_power_sum(x, a, capped_valuation(n, x, a))
    return value
