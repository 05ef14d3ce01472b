"""Reference implementations the tests compare the engine against.

None of this is on the engine's path.  It holds the classic s == 1
counts that the paper's restricted count generalizes (Lehmer's gcd
criterion, the Rademacher-Brauer prime product, the Nicol-Vandiver
Ramanujan-sum form), the Moebius divisor sum for c_{r,s}, which shares
nothing with Cohen's prime-power form, Cohen's exponential definition
of c_{r,s} and the class character sums behind it, both in floating
point, the level recurrence of one prime's count and the two
identities that turn it into the paper's local sum, the full grid walk that fixes the order in which
`rescong.verification.engine_sweep` visits instances, and the
structural identity suites at fixed ranges, which `engine_sweep` checks
only on the k = 1 instances of its grid.
"""

from __future__ import annotations

import itertools
import math
from operator import index

from rescong.arith import check_power, divisors, factorize, generalized_gcd, jordan_totient, mobius
from rescong.congruence import DEFAULT_CLASS_BUDGET, CongruenceInstance, class_members
from rescong.errors import ConsistencyError, DomainError, show_int
from rescong.oracle import DEFAULT_VECTOR_BUDGET
from rescong.ramanujan import _prime_power_sum, cohen_ramanujan

# Round-off for <= 10**5 unit-modulus terms summed with math.fsum stays
# orders of magnitude below this.
DIRECT_TOLERANCE = 1e-6


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


def level_transfer(x: int, e: int, big_b: int, f: list[int]) -> list[int]:
    """Add one unknown of level B to the count vector f over levels 0 .. e.

    At p**e || n with x = p**s, the level of a residue z mod p**(e*s) is
    min(v_p(z) // s, e), and level j holds x**(e - j) - x**(e - j - 1)
    residues, 1 at j = e.  Entry c of f counts the ways to reach one
    residue z of level c; so does entry c of the result, with one more
    unknown.  Only class sizes and one coset count appear: no Ramanujan
    sum and no division.
    """
    size = [x ** (e - j) - x ** (e - j - 1) for j in range(e)] + [1]
    # above[c] = sum(size[j] * f[j] for c < j <= e)
    above = [0] * (e + 1)
    for c in range(e - 1, -1, -1):
        above[c] = above[c + 1] + size[c + 1] * f[c + 1]
    out = []
    for c in range(e + 1):
        if big_b < c:
            out.append(size[big_b] * f[big_b])
        elif big_b > c:
            out.append(size[big_b] * f[c])
        elif c == e:
            out.append(f[e])
        else:
            # y runs over level c: z - y stays at level c except on the
            # x**(e - c - 1) members of the coset z + p**((c+1)*s), where it
            # runs once over every residue above level c.
            out.append((size[c] - x ** (e - c - 1)) * f[c] + above[c])
    return out


def level_identity_failures(max_e: int) -> list[str]:
    """The identities that make the level recurrence the paper's local sum.

    For p**e || n, x = p**s and psi_a[j] = c_{p**(e-a),s}(p**(j*s)), read
    from the production kernel `_prime_power_sum`, for e = 0 .. max_e:

    (i)  level_transfer(x, e, B, psi_a) = c_{p**(e-B),s}(p**(a*s)) * psi_a
         for all a, B in 0 .. e: Cohen's sums diagonalize the recurrence;
    (ii) sum(psi_a over a) = x**e * delta_e, the divisor sum
         sum(c_{d,s}(m) for d | p**e) = p**(e*s) * [p**(e*s) | m].

    Expanding the start vector delta_e by (ii) and applying (i) once per
    unknown gives the paper's local sum over x**e, for every k and g.
    Returns one line per failed identity; none means both hold.
    """
    failures = []
    for e in range(max_e + 1):
        # The kernel branches only on its order and level, so every entry
        # on either side is an integer polynomial in x of degree at most 2e:
        # at most e for a sum or a class size, and products of two.  Two
        # such polynomials equal at 2e + 1 points are equal, so x = 2 ..
        # 2e + 2, prime powers or not, proves both at every x = p**s.
        points = range(2, 2 * e + 3)
        psis = {x: [[_prime_power_sum(x, e - a, j) for j in range(e + 1)] for a in range(e + 1)]
                for x in points}
        for a in range(e + 1):
            for big_b in range(e + 1):
                for x in points:
                    psi = psis[x][a]
                    eigenvalue = _prime_power_sum(x, e - big_b, a)
                    if level_transfer(x, e, big_b, psi) != [eigenvalue * v for v in psi]:
                        failures.append(f"(i) e={e} a={a} B={big_b}, first at x={x}")
                        break
        for x in points:
            if list(map(sum, zip(*psis[x]))) != [0] * e + [x**e]:
                failures.append(f"(ii) e={e}, first at x={x}")
                break
    return failures


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
