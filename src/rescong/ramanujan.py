"""Classic and generalized Ramanujan sums.

The generalized sum over the s-th-power coprime residues is

    c_{r,s}(n) = sum(e(n * j / r**s) for 1 <= j <= r**s if (j, r**s)_s == 1)

with e(x) = exp(2*pi*i*x).  It is integer valued; at s == 1 it reduces to
the classic c_r(n) over primitive r-th roots of unity.  Cohen showed it is
multiplicative in r, with the prime-power form

    c_{p**a,s}(n) = [p**(a*s) | n] * p**(a*s) - [p**((a-1)*s) | n] * p**((a-1)*s)

so production evaluation factors r alone and reads n only through
min(v_p(n) // s, a) at each p**a || r.  Negative arguments, periodicity
mod r**s and arguments far past the factorization limit need no special
case.  Two references stay independent of that form: the Moebius divisor
sum (`_mobius_divisor_sum`) and the exponential definition as a floating
point oracle (`cohen_ramanujan_direct`).
"""

from __future__ import annotations

import math

from .arith import divisors, factorize, mobius
from .errors import BudgetExceededError, ConsistencyError, DomainError

# Cap on r**s for the term-by-term exponential oracle.
DEFAULT_DIRECT_BUDGET = 10**5
# Round-off for <= 10**5 unit-modulus terms under pairwise summation stays
# orders of magnitude below this.
DIRECT_TOLERANCE = 1e-6


def _capped_valuation(m: int, q: int, cap: int) -> int:
    """min(v_q(m), cap) for q >= 2; m == 0 gives cap."""
    j = 0
    while j < cap and m % q == 0:
        m //= q
        j += 1
    return j


def _prime_power_sum(p: int, a: int, s: int, j: int) -> int:
    """c_{p**a,s}(m) for a >= 1, given j = min(v_p(m) // s, a)."""
    if j < a - 1:
        return 0
    low = p ** ((a - 1) * s)
    return low * p**s - low if j == a else -low


def _mobius_divisor_sum(r: int, s: int, m: int) -> int:
    """sum(mobius(r // d) * d**s for d | r with d**s | m); m == 0 admits all d."""
    total = 0
    for d in divisors(r):
        ds = d**s
        if m % ds == 0:
            total += mobius(r // d) * ds
    return total


def cohen_ramanujan(r: int, s: int, n: int) -> int:
    """c_{r,s}(n) exactly, as the product of prime-power sums over p**a || r."""
    if r < 1:
        raise DomainError(f"cohen_ramanujan requires r >= 1, got {r}")
    if s < 1:
        raise DomainError(f"cohen_ramanujan requires s >= 1, got {s}")
    value = 1
    for p, a in factorize(r):
        value *= _prime_power_sum(p, a, s, _capped_valuation(n, p**s, a))
    return value


def ramanujan_classic(r: int, n: int) -> int:
    """The classic Ramanujan sum c_r(n), i.e. c_{r,1}(n)."""
    return cohen_ramanujan(r, 1, n)


def _pairwise_sum(terms: list[complex]) -> complex:
    """Cascade summation; error grows ~log2(len) rather than len."""
    k = len(terms)
    if k == 0:
        return 0j
    if k <= 8:
        total = 0j
        for t in terms:
            total += t
        return total
    half = k // 2
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


def cohen_ramanujan_direct(
    r: int,
    s: int,
    n: int,
    budget: int = DEFAULT_DIRECT_BUDGET,
    tol: float = DIRECT_TOLERANCE,
) -> int:
    """c_{r,s}(n) straight from the exponential definition.

    Sums e(n * j / r**s) over the j in [1, r**s] with (j, r**s)_s == 1,
    then snaps to the nearest integer.  A residual (imaginary part or
    distance to that integer) at or above `tol` means the exact path and
    this one cannot both be right, so it raises ConsistencyError rather
    than return a guess.
    """
    if r < 1:
        raise DomainError(f"cohen_ramanujan_direct requires r >= 1, got {r}")
    if s < 1:
        raise DomainError(f"cohen_ramanujan_direct requires s >= 1, got {s}")
    rs = r**s
    if rs > budget:
        raise BudgetExceededError(
            f"direct evaluation needs r**s = {rs} terms, budget is {budget}"
        )
    # (j, r**s)_s == 1 exactly when no prime p | r has p**s | j.
    blocked = [p**s for p, _ in factorize(r)]
    n_red = n % rs
    terms = []
    for j in range(1, rs + 1):
        if any(j % q == 0 for q in blocked):
            continue
        angle = 2.0 * math.pi * ((n_red * j) % rs) / rs
        terms.append(complex(math.cos(angle), math.sin(angle)))
    total = _pairwise_sum(terms)
    nearest = round(total.real)
    if abs(total.imag) >= tol or abs(total.real - nearest) >= tol:
        raise ConsistencyError(
            f"direct sum for c_{{{r},{s}}}({n}) = {total!r} is not within {tol} of an integer"
        )
    return int(nearest)
