"""Exception types shared across the package, and how their messages show an integer."""

# The most bits an integer is shown with in decimal in an error message.
# A larger one is shown by its size: its decimal form can pass the
# interpreter's 4300-digit cap on int -> str, which raises ValueError.
SHOWN_BITS = 256


def show_int(n: int) -> str:
    """n in decimal, or its size in bits past SHOWN_BITS bits."""
    if n.bit_length() <= SHOWN_BITS:
        return str(n)
    return f"{'a negative' if n < 0 else 'an'} integer of {n.bit_length()} bits"


def show_instance(inst) -> str:
    """A congruence instance by its n, s and b through show_int, and its k."""
    return f"n={show_int(inst.n)} s={show_int(inst.s)} b={show_int(inst.b)} k={inst.k}"


class DomainError(ValueError):
    """An argument falls outside an operation's domain."""


class BudgetExceededError(RuntimeError):
    """An enumeration or evaluation budget would be exceeded."""


class ConsistencyError(RuntimeError):
    """An internal exactness invariant failed; this always signals a bug."""
