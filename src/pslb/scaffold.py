"""Primorial scaffold arithmetic: product factors, per-cycle averages and
the two- and three-primorial scaffold tables."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .census import potential_solutions_T
from .errors import DEFAULT_PRIMALITY_BUDGET, DomainError, _as_int, _check_budget
from .primes import (Primorial, PrimeTable, max_seed_prime_for,
                     next_prime, nth_primorial, primes_up_to)

# the least table the scaffold asks for: it covers 2,724,109, the largest row
# bound, so every table row reads one prefix
PRODUCT_FACTOR_PRIME_LIMIT = 2_800_000
# primes per block of log1p terms while the prefix is built
_PREFIX_BLOCK = 1 << 15

@dataclass(frozen=True)
class _LogPrefix:
    """The primes up to a limit with exact prefix sums of log1p(-2/q).

    Every term log1p(-2/q) over the odd primes is an exact multiple of
    2**-shift (the ulp of the smallest term). The scaled magnitudes are split
    into two exact int64 limbs, above and below 2**32, and each limb column is
    prefix-summed; up to the primality budget the sums stay below 2**56. A
    slice sum is therefore an exact integer, and dividing it by 2**shift
    rounds once, to the same float that math.fsum of the slice returns.
    Entry k of each prefix is the sum over primes[:k]; prime 2 adds nothing.
    """

    primes: np.ndarray
    shift: int
    high: np.ndarray
    low: np.ndarray

    def log_sum(self, i: int, j: int) -> float:
        """Correctly rounded sum of log1p(-2/q) over primes[i:j], i >= 1."""
        exact = ((int(self.high[j]) - int(self.high[i])) << 32) + int(self.low[j]) - int(self.low[i])
        return -exact / (1 << self.shift)


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
        block = primes[b:b + _PREFIX_BLOCK]
        terms = np.fromiter(map(math.log1p, memoryview(-2.0 / block)), dtype=np.float64, count=len(block))
        scaled = np.ldexp(-terms, shift - 32)
        top = np.floor(scaled)
        scaled -= top
        # term k of the block is prime b + k, which prefix entry b + k + 1 includes
        rows = slice(b + 1, b + 1 + len(block))
        high[rows] = top
        low[rows] = np.ldexp(scaled, 32)
    np.cumsum(high, out=high)
    np.cumsum(low, out=low)
    return _LogPrefix(primes, shift, high, low)


def _span_table(from_prime: int, to_prime: int, limit: int) -> PrimeTable:
    """primes_up_to(limit) for limit >= to_prime, once from_prime <= to_prime
    are both checked prime; DomainError otherwise."""
    if from_prime > to_prime:
        raise DomainError(f"need from_prime <= to_prime, got ({from_prime}, {to_prime})")
    table = primes_up_to(max(limit, 2))
    if not (table.is_prime(from_prime) and table.is_prime(to_prime)):
        raise DomainError(f"bounds must be prime, got ({from_prime}, {to_prime})")
    return table


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
    _span_table(from_prime, to_prime, limit)
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


def product_factor_fraction(from_prime: int, to_prime: int) -> Fraction:
    """Exact rational product factor; for audit use on short prime ranges.

    The primes are read off the table's odd flags and counted before any
    product is taken: BudgetError past the exact-product cap of 10,000.
    """
    span = _span_table(from_prime, to_prime, to_prime).odd_prime_mask()[from_prime // 2 :]
    count = int(np.count_nonzero(span)) + (from_prime == 2)
    _check_budget(f"primes in [{from_prime}, {to_prime}]", count, "exact-product cap")
    if from_prime == 2:
        return Fraction(0)
    out = Fraction(1)
    for q in (2 * (np.flatnonzero(span) + from_prime // 2) + 1).tolist():
        out *= Fraction(q - 2, q)
    return out


def avg_solutions_in_cycle(T_M: int, pf: float) -> float:
    """Average potential solutions per cycle: exact real product T * pf."""
    if T_M < 1:
        raise DomainError(f"need T >= 1, got {T_M}")
    if not 0.0 < pf <= 1.0:
        raise DomainError(f"product factor must lie in (0, 1], got {pf}")
    return T_M * pf


def round_display(x: float) -> int:
    """Round-half-up to the nearest integer, the tables' display convention."""
    return math.floor(x + 0.5)


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
