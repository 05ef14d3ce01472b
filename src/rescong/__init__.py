"""Exact solution counting for restricted linear congruences.

Counts the tuples (x_1, ..., x_k) with x_1 + ... + x_k == b (mod n**s)
where each unknown is pinned to a generalized-gcd class of the modulus,
(x_i, n**s)_s == t_i**s for given divisors t_i of n.  The closed form
runs on Cohen's generalized Ramanujan sums in exact integer arithmetic;
independent brute-force and cyclic-convolution engines verify it.
"""

from .congruence import (
    CongruenceInstance,
    class_members,
    class_profile,
    count_restricted,
    fourier_numerator,
)
from .errors import BudgetExceededError, ConsistencyError, DomainError
from .oracle import brute_force_count, convolution_count, enumerate_solutions
from .ramanujan import cohen_ramanujan

__version__ = "0.1.0"

__all__ = [
    "CongruenceInstance",
    "class_members",
    "class_profile",
    "count_restricted",
    "fourier_numerator",
    "BudgetExceededError",
    "ConsistencyError",
    "DomainError",
    "brute_force_count",
    "convolution_count",
    "enumerate_solutions",
    "cohen_ramanujan",
]
