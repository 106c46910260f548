"""Primorial scaffold arithmetic: product factors, per-cycle averages and
the two- and three-primorial scaffold tables."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .census import potential_solutions_T
from .errors import DEFAULT_PRIMALITY_BUDGET, DomainError, _as_int, _as_real, _check_budget
from .primes import (Primorial, is_prime, max_seed_prime_for, next_prime, nth_primorial,
                     primes_up_to)

# the least table the scaffold asks for: it covers 2,724,109, the largest row
# bound, so every table row reads one prefix
PRODUCT_FACTOR_PRIME_LIMIT = 2_800_000
# primes per block of log1p terms while the prefix is built
_PREFIX_BLOCK = 1 << 13
# NumPy's guess at a term is kept only below 2**-11 in magnitude (the primes
# past 4,096), where _ulps_off is within 2**-10.7 ulp of its exact value, and
# only where it is nearer than half an ulp by more than this margin
_GUESS_RANGE = 2.0**-11
_ROUNDING_MARGIN = 2.0**-10


@dataclass(frozen=True)
class _LogPrefix:
    """The primes up to a limit with exact prefix sums of log1p(-2/q).

    Every term log1p(-2/q) over the odd primes is an exact multiple of
    2**-shift (the ulp of the smallest term). The scaled magnitudes are split
    into two exact int64 limbs, above and below 2**32, and each limb column is
    prefix-summed; up to the primality budget the sums stay below 2**56. A
    slice sum is therefore an exact integer, and dividing it by 2**shift
    rounds once, to the same float that math.fsum of the slice's math.log1p
    terms returns. That rests on _log_terms' rounding check: a term is
    NumPy's guess only where the check proves it correctly rounded, and
    math.log1p otherwise, and the tests find math.log1p equal to those terms
    at every prime up to 2.8M and at sampled primes up to 1e8. Entry k of
    each prefix is the sum over primes[:k]; prime 2 adds nothing.
    """

    primes: np.ndarray
    shift: int
    high: np.ndarray
    low: np.ndarray

    def log_sum(self, i: int, j: int) -> float:
        """Correctly rounded sum of log1p(-2/q) over primes[i:j], i >= 1."""
        exact = ((int(self.high[j]) - int(self.high[i])) << 32) + int(self.low[j]) - int(self.low[i])
        return -exact / (1 << self.shift)


def _ulps_off(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(log1p(x) - y) / ulp(y) for guesses y at log1p(x) with -2**-11 < y < 0,
    within 2**-10.7 of the exact figure; NaN where y is a power of two, whose
    ulp is halved below it.

    The residual r = x - expm1(y) is (x - y) - y**2/2 - (y**3/6 + y**4/24 +
    y**5/120), and r / (1 + x) = 1 - exp(y - log1p(x)), which is log1p(x) - y
    to a relative 2**-60. x - y is exact (Sterbenz), and the roundings after
    it add at most, in ulps of y (an ulp of y exceeds |y| * 2**-53):
    - |y|/2 for the rounding of y*y, halved (2**-54 * y**2);
    - 2**53 * |y|**5 / 719 for the series' tail, y**6/720 + ...;
    - 2**-20 for the rest: the cubic part to a relative 2**-50, the
      subtraction of a value near y**3/6, and the final division.
    Below 2**-11 that is 2**-12 + 2**-11.49 + 2**-20 < 2**-10.7 ulp, so
    _ROUNDING_MARGIN = 2**-10 covers it with no exact product of y*y.
    """
    y2 = y * y
    cubic = y * (1 / 120)
    cubic += 1 / 24
    cubic *= y
    cubic += 1 / 6
    cubic *= y
    cubic *= y2
    r = x - y
    y2 *= 0.5
    r -= y2
    r -= cubic
    r /= np.add(x, 1.0, out=cubic)
    # y = mantissa * 2**exponent with 1/2 <= |mantissa| < 1, so its ulp is 2**(exponent - 53)
    mantissa, exponent = np.frexp(y)
    np.ldexp(r, np.subtract(53, exponent, out=exponent), out=r)
    r[mantissa == -0.5] = np.nan
    return r


def _log_terms(q: np.ndarray) -> np.ndarray:
    """log1p(-2/q) for each prime q > 2, each correctly rounded or equal to
    math.log1p.

    np.log1p gives each term's guess y, which NumPy may take from a SIMD loop
    that is not correctly rounded. By Ziv's rounding test (ACM TOMS 17(3),
    1991), y is kept where it is provably the nearest float to log1p: below
    2**-11 in magnitude, not a power of two, and within 1/2 - _ROUNDING_MARGIN
    ulp by _ulps_off. Every other term is taken from math.log1p: up to 2.8M,
    977 of the 203,361 terms, 563 of them the primes below 4,096.
    """
    x = -2.0 / q
    y = np.log1p(x)
    off = _ulps_off(x, y)
    keep = off < 0.5 - _ROUNDING_MARGIN
    keep &= off > _ROUNDING_MARGIN - 0.5
    keep &= y > -_GUESS_RANGE
    redo = np.flatnonzero(~keep)
    y[redo] = [math.log1p(v) for v in x[redo].tolist()]
    return y


@lru_cache(maxsize=1)
def _build_log_prefix(limit: int) -> _LogPrefix:
    """The prefix over the primes up to limit.

    The limbs are filled one block of primes at a time and then prefix-summed
    in place, so the build holds the two limb arrays and one block of terms.
    """
    # the prime array of an uncached view, so it lives only as long as the prefix
    primes = primes_up_to.__wrapped__(limit).ordered_primes
    # the term smallest in magnitude is the largest prime's; it fixes the ulp
    shift = 53 - math.frexp(math.log1p(-2.0 / float(primes[-1])))[1]
    high = np.zeros(len(primes) + 1, dtype=np.int64)
    low = np.zeros(len(primes) + 1, dtype=np.int64)
    for b in range(1, len(primes), _PREFIX_BLOCK):
        scaled = _log_terms(primes[b:b + _PREFIX_BLOCK])
        np.negative(scaled, out=scaled)
        np.ldexp(scaled, shift - 32, out=scaled)
        top = np.floor(scaled)
        scaled -= top
        # term k of the block is prime b + k, which prefix entry b + k + 1 includes
        rows = slice(b + 1, b + 1 + len(scaled))
        high[rows] = top
        low[rows] = np.ldexp(scaled, 32, out=scaled)
    np.cumsum(high, out=high)
    np.cumsum(low, out=low)
    return _LogPrefix(primes, shift, high, low)


def _check_span(from_prime: int, to_prime: int, prime) -> None:
    """DomainError unless from_prime <= to_prime are both prime by `prime`."""
    if from_prime > to_prime:
        raise DomainError(f"need from_prime <= to_prime, got ({from_prime}, {to_prime})")
    if not (prime(from_prime) and prime(to_prime)):
        raise DomainError(f"bounds must be prime, got ({from_prime}, {to_prime})")


def _prime_span(from_prime: int, to_prime: int) -> tuple[_LogPrefix, int, int]:
    """The prefix table and the index range of the primes in [from_prime, to_prime].

    The prefix covers PRODUCT_FACTOR_PRIME_LIMIT doubled as often as to_prime
    needs (at most to the primality budget), so its size depends on to_prime
    alone, not on how far the shared prime table has grown. Only the prefix
    at PRODUCT_FACTOR_PRIME_LIMIT is cached; a longer one (132 MB at the
    budget) is dropped with its caller. The bounds are checked on the table
    the prefix reads, before the prefix is built.
    """
    from_prime, to_prime = _as_int(from_prime, "from_prime"), _as_int(to_prime, "to_prime")
    doublings = (max(to_prime - 1, 0) // PRODUCT_FACTOR_PRIME_LIMIT).bit_length()
    limit = max(to_prime, min(PRODUCT_FACTOR_PRIME_LIMIT << doublings, DEFAULT_PRIMALITY_BUDGET))
    _check_span(from_prime, to_prime, lambda n: primes_up_to(limit).is_prime(n))
    build = _build_log_prefix if limit == PRODUCT_FACTOR_PRIME_LIMIT else _build_log_prefix.__wrapped__
    table = build(limit)
    i = int(np.searchsorted(table.primes, from_prime, side="left"))
    j = int(np.searchsorted(table.primes, to_prime, side="right"))
    return table, i, j


def product_factor(from_prime: int, to_prime: int) -> float:
    """Product of (q - 2)/q over primes q in [from_prime, to_prime].

    exp of the correctly rounded sum of log1p(-2/q), read from the shared
    exact prefix table; the factor for q = 2 is 0.
    """
    table, i, j = _prime_span(from_prime, to_prime)
    if from_prime == 2:
        return 0.0
    return math.exp(table.log_sum(i, j))


def _least_prime_count(from_prime: int, to_prime: int) -> int:
    """A proven lower bound on the primes in [from_prime, to_prime], from
    Rosser and Schoenfeld (1962): pi(x) > x/ln x for x >= 17 and
    pi(x) < 1.25506 x/ln x for x > 1; each side is taken one further for the
    float roundings, and the bound is 0 below 17."""
    if to_prime < 17:
        return 0
    above = math.floor(to_prime / math.log(to_prime)) - 1
    below = 0 if from_prime < 3 else math.floor(1.25506 * (from_prime - 1) / math.log(from_prime - 1)) + 1
    return max(above - below, 0)


def product_factor_fraction(from_prime: int, to_prime: int) -> Fraction:
    """Exact rational product factor; for audit use on short prime ranges.

    The bounds are checked by trial division, and a span whose proven least
    prime count passes the exact-product cap of 10,000 is refused with
    nothing sieved. Otherwise the primes are read off the table's odd flags
    and counted before any product is taken: BudgetError past the cap.
    """
    from_prime, to_prime = _as_int(from_prime, "from_prime"), _as_int(to_prime, "to_prime")
    _check_span(from_prime, to_prime, is_prime)
    asked = f"primes in [{from_prime}, {to_prime}]"
    _check_budget(f"{asked} at least", _least_prime_count(from_prime, to_prime), "exact-product cap")
    span = primes_up_to(to_prime).odd_prime_mask()[from_prime // 2 :]
    _check_budget(asked, int(np.count_nonzero(span)) + (from_prime == 2), "exact-product cap")
    if from_prime == 2:
        return Fraction(0)
    out = Fraction(1)
    for q in (2 * (np.flatnonzero(span) + from_prime // 2) + 1).tolist():
        out *= Fraction(q - 2, q)
    return out


def avg_solutions_in_cycle(T_M: int, pf: float) -> float:
    """Average potential solutions per cycle: exact real product T * pf."""
    T_M, pf = _as_real(T_M, "T_M"), _as_real(pf, "pf")
    if T_M < 1:
        raise DomainError(f"need T >= 1, got {T_M}")
    if not 0.0 < pf <= 1.0:
        raise DomainError(f"product factor must lie in (0, 1], got {pf}")
    return T_M * pf


def round_display(x: float) -> int:
    """Round-half-up to the nearest integer, the tables' display convention."""
    return math.floor(_as_real(x, "x") + 0.5)


@dataclass(frozen=True)
class ScaffoldRow:
    """One row of a primorial scaffold table.

    C (when present) is carried by its largest factor only; its value can
    exceed 64 bits and is never materialized.
    """

    index: int
    A: Primorial
    B_largest_factor: int
    C_largest_factor: int | None
    P_a: int
    P_b: int
    P_s: int | None
    T_A: int
    product_factor: float
    avg_T_A: float
    avg_T_B: float | None
    smallest_non_core: int | None
    smallest_non_core_squared: int | None

    @property
    def avg_T_A_display(self) -> int:
        return round_display(self.avg_T_A)

    @property
    def avg_T_B_display(self) -> int | None:
        return None if self.avg_T_B is None else round_display(self.avg_T_B)


def _base_primorial(row: int) -> Primorial:
    # Row 1 starts at 210, the smallest primorial > 30.
    return nth_primorial(row + 3)


def build_table17(rows: int = 9) -> list[ScaffoldRow]:
    """Two-primorial scaffold: N's largest factor is the largest prime < sqrt(M)."""
    if not 1 <= rows <= 9:
        raise DomainError(f"table 17 supports 1..9 rows, got {rows}")
    out = []
    for k in range(1, rows + 1):
        M = _base_primorial(k)
        P_m = M.largest_factor
        P_s = next_prime(P_m)
        P_z = max_seed_prime_for(M.value)
        t = potential_solutions_T(M)
        pf = product_factor(P_s, P_z)
        out.append(
            ScaffoldRow(
                index=k, A=M, B_largest_factor=P_z, C_largest_factor=None,
                P_a=P_m, P_b=P_z, P_s=P_s, T_A=t, product_factor=pf,
                avg_T_A=avg_solutions_in_cycle(t, pf), avg_T_B=None,
                smallest_non_core=None, smallest_non_core_squared=None,
            )
        )
    return out


@dataclass(frozen=True)
class RatioRow:
    """One row of the successive-average-ratio table."""

    index: int
    M1: Primorial
    M2: Primorial
    avg_1: float
    avg_2: float
    ratio: float
    T_ratio: int
    pf_ratio: float


def build_table18(rows: int = 9) -> list[RatioRow]:
    """Ratios of successive per-cycle averages, computed on unrounded values."""
    if not 2 <= rows <= 9:
        raise DomainError(f"table 18 supports 2..9 rows, got {rows}")
    base = build_table17(rows)
    out = []
    for prev, cur in zip(base, base[1:]):
        out.append(
            RatioRow(
                index=cur.index,
                M1=prev.A,
                M2=cur.A,
                avg_1=prev.avg_T_A,
                avg_2=cur.avg_T_A,
                ratio=cur.avg_T_A / prev.avg_T_A,
                T_ratio=cur.T_A // prev.T_A,
                pf_ratio=cur.product_factor / prev.product_factor,
            )
        )
    return out


def build_table19_20(rows: int = 8) -> list[ScaffoldRow]:
    """Three-primorial scaffold A-B-C with C's factor bound by sqrt(B)."""
    if not 1 <= rows <= 8:
        raise DomainError(f"tables 19/20 support 1..8 rows, got {rows}")
    out = []
    for k in range(1, rows + 1):
        A = _base_primorial(k)
        B = nth_primorial(A.k + 1)
        P_a, P_b = A.largest_factor, B.largest_factor
        P_s = next_prime(P_b)
        P_c = max_seed_prime_for(B.value)
        t = potential_solutions_T(A)
        pf = product_factor(P_b, P_c)
        avg_a = avg_solutions_in_cycle(t, pf)
        P_z = next_prime(P_c)
        out.append(
            ScaffoldRow(
                index=k, A=A, B_largest_factor=P_b, C_largest_factor=P_c,
                P_a=P_a, P_b=P_b, P_s=P_s, T_A=t, product_factor=pf,
                avg_T_A=avg_a, avg_T_B=avg_a * P_b,
                smallest_non_core=P_z, smallest_non_core_squared=P_z * P_z,
            )
        )
    return out


def build_table21(rows: int = 9) -> list[ScaffoldRow]:
    """Goldbach two-primorial scaffold: the table-17 rows, each with the
    smallest non-core prime P_z; verifies P_z squared exceeds A."""
    if not 1 <= rows <= 9:
        raise DomainError(f"table 21 supports 1..9 rows, got {rows}")
    out = []
    for row in build_table17(rows):
        P_z = next_prime(row.P_b)
        if P_z * P_z <= row.A.value:
            raise AssertionError(f"scaffold row {row.index}: {P_z}^2 <= {row.A.value}")
        out.append(replace(row, smallest_non_core=P_z, smallest_non_core_squared=P_z * P_z))
    return out
