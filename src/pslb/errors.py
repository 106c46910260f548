"""Exception types shared across the package, every budget limit, each
defined once and checked by `_check_budget`, the one source of BudgetError,
and `_as_int` and `_as_real`, the one check each that an integer input is an
integer and a real input a finite real number."""
import math
import numbers
import operator


class DomainError(ValueError):
    """Input outside an operation's stated domain."""


class BudgetError(RuntimeError):
    """Request exceeds the configured sieve / enumeration budget."""


class PrimorialOverflowError(OverflowError):
    """Primorial value would not fit in an unsigned 64-bit word."""


DEFAULT_PRIMALITY_BUDGET = 100_000_000  # integers per sieve or residue window, cells per residue grid
DEFAULT_FACTOR_BUDGET = 510_510  # the largest primorial a factor sieve expands, unless a caller sets its own
CENSUS_CEILING = 223_092_870  # 23#: the census streams its own windows, 0.5 s for 19# in 23#

_LIMITS = {
    "primality budget": DEFAULT_PRIMALITY_BUDGET,
    "trial-division reach": DEFAULT_PRIMALITY_BUDGET**2,  # trial divisors run to sqrt(n)
    "factor-sieve budget": DEFAULT_FACTOR_BUDGET,
    "census ceiling": CENSUS_CEILING,
    "census cycle cap": 1 << 17,  # the rows of 2^17 cycles hold about 100 MB
    "Eq. 1 seed cap": 20,  # Eq. 1 sums over every subset of its seeds
    "exact-product cap": 10_000,  # a Fraction normalised per prime costs the span squared
    # Below 211**2 (211 is the least prime past the sieve's byte patterns of 3
    # to 199) every odd integer free of 3 to 199 is prime, so one pre-sieve
    # gives the strided seeds of every sieve limit below 211**4, about 2e9.
    "seed reach": 211 * 211,
}


def _check_budget(asked: str, demand: int, name: str, limit: int | None = None) -> None:
    """BudgetError naming what was asked, its demand and the limit by its
    name when the demand exceeds the limit: _LIMITS[name], or a caller's own."""
    limit = _LIMITS[name] if limit is None else limit
    if demand > limit:
        raise BudgetError(f"{asked} {demand} exceeds {name} {limit}")


def _as_int(z, name: str) -> int:
    """z as an exact int (operator.index); DomainError if it is not integral."""
    try:
        return operator.index(z)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {z!r}") from None


# the least magnitude that float() rounds past the largest float
_FLOAT_END = 2**1024 - 2**970


def _as_real(x, name: str):
    """x itself if it is a finite real number within float range (an int, a
    float, a NumPy scalar, a Fraction); DomainError otherwise. An exact x is
    compared exactly, never converted to a float."""
    if not isinstance(x, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {x!r}")
    if isinstance(x, numbers.Rational):
        finite = -_FLOAT_END < x < _FLOAT_END
    else:
        finite = math.isfinite(x)
    if not finite:
        raise DomainError(f"{name} must be finite and within float range, got {x!r}")
    return x
