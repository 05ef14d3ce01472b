"""Exact solution counting for restricted linear congruences.

Counts the tuples (x_1, ..., x_k) with x_1 + ... + x_k == b (mod n**s)
where each unknown is pinned to a generalized-gcd class of the modulus,
(x_i, n**s)_s == t_i**s for given divisors t_i of n.  The closed form
runs on Cohen's generalized Ramanujan sums in exact integer arithmetic;
independent brute-force and cyclic-convolution engines verify it.
"""

from .arith import (
    FACTORIZE_LIMIT,
    Factorization,
    GeneralizedGcd,
    divisors,
    euler_phi,
    factorize,
    generalized_gcd,
    iroot,
    jordan_totient,
    mobius,
)
from .congruence import (
    ClassProfile,
    CongruenceInstance,
    class_members,
    class_profile,
    count_restricted,
    count_units_nicol,
    count_units_rademacher,
    count_unrestricted_lehmer,
    fourier_numerator,
)
from .errors import BudgetExceededError, ConsistencyError, DomainError
from .oracle import (
    brute_force_count,
    class_character_sum,
    convolution_count,
    enumerate_solutions,
)
from .ramanujan import (
    cohen_ramanujan,
    cohen_ramanujan_direct,
    ramanujan_classic,
)

__version__ = "0.1.0"

__all__ = [
    "FACTORIZE_LIMIT",
    "Factorization",
    "GeneralizedGcd",
    "divisors",
    "euler_phi",
    "factorize",
    "generalized_gcd",
    "iroot",
    "jordan_totient",
    "mobius",
    "ClassProfile",
    "CongruenceInstance",
    "class_members",
    "class_profile",
    "count_restricted",
    "count_units_nicol",
    "count_units_rademacher",
    "count_unrestricted_lehmer",
    "fourier_numerator",
    "BudgetExceededError",
    "ConsistencyError",
    "DomainError",
    "brute_force_count",
    "class_character_sum",
    "convolution_count",
    "enumerate_solutions",
    "cohen_ramanujan",
    "cohen_ramanujan_direct",
    "ramanujan_classic",
]
