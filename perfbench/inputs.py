"""Seeded inputs for the three workloads.

Pure functions of the seed, written without the library under test so
that two commits see byte-identical inputs for the same seed.  Each
workload draws a fixed number of inputs per stratum; only the values
inside a stratum (restrictions, targets, primes, subsamples) depend on
the seed.
That keeps the cost mix of one seed close to the next, so the spread of
a metric across seeds measures the program and the machine, not the draw.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("warm-divisor-heavy", "cold-cli", "verify-sweep")

# warm-divisor-heavy: highly composite n (tau = 240, 192, 120, 60), and
# k log-spread over [1, 1000].
WARM_NS = (720720, 360360, 55440, 5040)
WARM_SS = (1, 2)
WARM_KS = (1, 4, 16, 63, 251, 1000)
# The count depends on b only through (b, n**s)_s, and so does its cost:
# a random nonzero target is b = g * u with u a random unit mod n and g
# fixed per k.  Every g divides every n in WARM_NS.
WARM_GCDS = (1, 2, 6, 12, 60, 2520)

# cold-cli: argv categories per pass, as (name, how many).
COLD_MIX = (("small", 8), ("composite", 8), ("prime-1e6", 5), ("prime-1e12", 1), ("huge", 2))
COLD_COMPOSITE_NS = (2520, 5040, 27720, 55440, 360360, 720720)
# Moduli n**s above 10**12, beyond the factorization limit of the
# library once an internal gcd reaches n**s.
COLD_HUGE = ((2, 50), (10000, 4), (1000003, 2), (3, 30), (1000, 5), (999983, 3))

# verify-sweep: the engine_sweep grid and how many of its instances one
# seeded subsample (one pass) checks.
SWEEP_MAX_N = 8
SWEEP_S = (1, 2)
SWEEP_MAX_K = 3
SWEEP_CAP = 9000
SWEEP_WARMUP_CAP = 1000


def rng_for(seed: int, *labels) -> random.Random:
    # String seeds hash with SHA-512 inside random, independent of
    # PYTHONHASHSEED.
    return random.Random(":".join(map(str, (seed,) + labels)))


def factor(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factor(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3 * 10**24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_below(limit: int, rng: random.Random, window: int) -> int:
    p = limit - 1 - rng.randrange(window)
    while not is_prime(p):
        p -= 1
    return p


# -- warm-divisor-heavy -----------------------------------------------------


def warm_queries(seed: int) -> list[tuple[int, int, int, tuple[int, ...]]]:
    """(n, s, b, t) count queries; half with b = 0, half with random b."""
    rng = rng_for(seed, "warm")
    queries = []
    for n in WARM_NS:
        divs = divisors(n)
        for s in WARM_SS:
            for i, (k, g) in enumerate(zip(WARM_KS, WARM_GCDS)):
                zero_b = (i + s) % 2 == 0  # b = 0 at every k, at one s or the other
                t = tuple(rng.choice(divs) for _ in range(k))
                b = 0
                while not zero_b and (b == 0 or math.gcd(b // g, n) != 1):
                    b = g * rng.randrange(n**s // g)
                queries.append((n, s, b, t))
    rng.shuffle(queries)
    return queries


# -- cold-cli ---------------------------------------------------------------


def _restriction_args(n: int, k: int, rng: random.Random) -> list[str]:
    divs = divisors(n)
    t = [rng.choice(divs) for _ in range(k)]
    if rng.random() < 0.5:
        return ["--t", ",".join(map(str, t))]
    g = [t.count(d) for d in divs]
    return ["--g", ",".join(map(str, g))]


def cold_argvs(seed: int) -> list[list[str]]:
    """argv lists for `python -m rescong`, one CLI round trip each."""
    rng = rng_for(seed, "cold")
    argvs = []
    for category, count in COLD_MIX:
        for _ in range(count):
            if category == "small":
                s = rng.randint(1, 3)
                n = rng.randint(2, 40 if s < 3 else 20)
                k = rng.randint(1, 4)
            elif category == "composite":
                n = rng.choice(COLD_COMPOSITE_NS)
                s = rng.randint(1, 2)
                k = rng.randint(1, 6)
            elif category == "prime-1e6":
                n = prime_below(10**6, rng, 2000)
                s = 2
                k = rng.randint(1, 3)
            elif category == "prime-1e12":
                n = prime_below(10**12, rng, 10**5)
                s = 1
                k = rng.randint(1, 3)
            else:
                n, s = rng.choice(COLD_HUGE)
                k = rng.randint(1, 3)
            if category == "huge" or rng.random() < 0.3:
                b = 0  # at b = 0 the gcd with n**s is n**s itself
            else:
                b = rng.randrange(n**s)
            argv = ["count", "--n", str(n), "--s", str(s), "--b", str(b)]
            argv += _restriction_args(n, k, rng)
            argvs.append(argv + ["--format", "json"])
    rng.shuffle(argvs)
    return argvs


def parse_count_argv(argv: list[str]) -> tuple[int, int, int, tuple[int, ...]]:
    """(n, s, b, t) of an argv made by cold_argvs."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    n, s, b = int(opts["--n"]), int(opts["--s"]), int(opts["--b"])
    if "--t" in opts:
        t = tuple(int(x) for x in opts["--t"].split(","))
    else:
        g = [int(x) for x in opts["--g"].split(",")]
        t = tuple(d for d, gj in zip(divisors(n), g) for _ in range(gj))
    return n, s, b, t


# -- verify-sweep -----------------------------------------------------------


def sweep_seeds(seed: int, part: int, count: int) -> list[int]:
    """Subsample seeds for engine_sweep: one per pass, distinct per worker."""
    rng = rng_for(seed, "sweep", part)
    return [rng.randrange(2**32) for _ in range(count)]


def workload_inputs(name: str, seed: int):
    """Every input a workload's first worker sees, for the determinism check."""
    if name == "warm-divisor-heavy":
        return warm_queries(seed)
    if name == "cold-cli":
        return cold_argvs(seed)
    return sweep_seeds(seed, 0, 64)
