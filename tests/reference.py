"""Reference implementations the tests compare the engine against.

None of this is on the engine's path.  It holds the classic s == 1
counts that the paper's restricted count generalizes (Lehmer's gcd
criterion, the Rademacher-Brauer prime product, the Nicol-Vandiver
Ramanujan-sum form), the Moebius divisor sum for c_{r,s}, which shares
nothing with Cohen's prime-power form, the full grid walk that fixes
the order in which `rescong.verification.engine_sweep` visits
instances, and the structural identity suites at fixed ranges, which
`engine_sweep` checks only on the k = 1 instances of its grid.
"""

from __future__ import annotations

import itertools
import math

from rescong.arith import divisors, factorize, generalized_gcd, jordan_totient, mobius
from rescong.congruence import CongruenceInstance
from rescong.errors import ConsistencyError, DomainError
from rescong.ramanujan import cohen_ramanujan


def is_prime(n: int) -> bool:
    """Primality by trial division over every f with 2 <= f <= sqrt(n)."""
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def count_unrestricted_lehmer(coefficients, b: int, n: int) -> int:
    """Unrestricted count of a_1*x_1 + ... + a_k*x_k == b (mod n) over Z_n**k.

    Solvable iff l | b for l = gcd(a_1, ..., a_k, n), and then there are
    exactly l * n**(k-1) solutions.
    """
    if n < 1:
        raise DomainError(f"modulus n must be >= 1, got {n}")
    coeffs = tuple(coefficients)
    if not coeffs:
        raise DomainError("count_unrestricted_lehmer requires at least one coefficient")
    l = math.gcd(n, *(abs(a) for a in coeffs))
    if b % l != 0:
        return 0
    return l * n ** (len(coeffs) - 1)


def count_units_rademacher(n: int, k: int, b: int) -> int:
    """Units-only count of x_1 + ... + x_k == b (mod n) as a prime product.

    phi(n)**k / n times one factor per prime p | n, the factor depending
    on whether p divides b.  The product is carried as one numerator
    over one denominator; it is provably integral and returned as an int.
    """
    if n < 1 or k < 1:
        raise DomainError(f"count_units_rademacher requires n, k >= 1, got n={n} k={k}")
    num, den = jordan_totient(n, 1) ** k, n
    for p, _ in factorize(n):
        # 1 - (-1)**j / (p - 1)**j with j = k - 1 when p | b, else j = k
        j = k - 1 if b % p == 0 else k
        num *= (p - 1) ** j - (-1) ** j
        den *= (p - 1) ** j
    if num % den != 0:
        raise ConsistencyError(
            f"units count came out non-integral ({num}/{den}) for n={n} k={k} b={b}"
        )
    return num // den


def count_units_nicol(n: int, k: int, b: int) -> int:
    """Units-only count as (1/n) * sum(c_d(b) * c_n(n/d)**k for d | n)."""
    if n < 1 or k < 1:
        raise DomainError(f"count_units_nicol requires n, k >= 1, got n={n} k={k}")
    total = 0
    for d in divisors(n):
        total += cohen_ramanujan(d, 1, b) * cohen_ramanujan(n, 1, n // d) ** k
    if total % n != 0:
        raise ConsistencyError(f"Ramanujan-sum total {total} is not divisible by n = {n}")
    return total // n


def _mobius_divisor_sum(r: int, s: int, m: int) -> int:
    """c_{r,s}(m) as sum(mobius(r // d) * d**s for d | r with d**s | m); m == 0 admits all d."""
    total = 0
    for d in divisors(r):
        ds = d**s
        if m % ds == 0:
            total += mobius(r // d) * ds
    return total


def iter_instances(cfg):
    """All instances of a `SweepConfig` grid, ascending by (n, s, k, t, b)."""
    for n in range(1, cfg.max_n + 1):
        divs = divisors(n)
        for s in sorted(set(cfg.s_values)):
            for k in range(cfg.max_k + 1):
                for t in itertools.product(divs, repeat=k):
                    for b in range(n**s):
                        yield CongruenceInstance(n=n, s=s, b=b, restrictions=t)


class PropertyReport:
    def __init__(self) -> None:
        self.checks = 0
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures


def identity_suites() -> PropertyReport:
    """Exhaustive structural identity checks at their documented ranges."""
    rep = PropertyReport()

    # (a, b)_s is b-periodic in its first argument.
    for s in (1, 2, 3):
        for a in range(1, 201):
            for b in range(1, 201):
                rep.checks += 1
                if generalized_gcd(a + b, b, s) != generalized_gcd(a, b, s):
                    rep.failures.append(f"ggcd b-periodicity: a={a} b={b} s={s}")

    # c_{r,s}(n): collapse to the reduced argument, period r**s, reflection.
    for r in range(1, 13):
        for s in (1, 2, 3):
            rs = r**s
            for n in range(rs):
                value = cohen_ramanujan(r, s, n)
                reduced = generalized_gcd(n, rs, s) ** s
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
                    collapsed = generalized_gcd(m, ns, s) ** s
                    if cohen_ramanujan(e, s, m) != cohen_ramanujan(e, s, collapsed):
                        rep.failures.append(f"(n,s)-evenness: n={n} s={s} e={e} m={m}")

    return rep
