"""Reference arithmetic owned by the benchmark.

Every output check compares the program against these functions, never
against a stored copy of the program's output. They share no code with
`pslb`: a plain sieve of Eratosthenes over all integers, deterministic
Miller-Rabin, brute-force pair counts and exact rational products.
"""
from __future__ import annotations

import math
from functools import cache

import numpy as np

# The paper's eighteen structural claims, as the auditor names them.
CLAIM_IDS = ("T1", "T2", "T3", "C3.1", "C3.2", "T4", "T5", "T6", "L6.1", "L6.2",
             "L6.3", "T7", "T8", "T9", "FN14", "FN15", "P5", "P6")

# pi(10^8), from published prime-count tables.
PI_1E8 = 5_761_455

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class Mismatch(Exception):
    """An output disagrees with the reference."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def prime_flags(n: int) -> np.ndarray:
    """flags[v] is True exactly when v is prime, for 0 <= v <= n."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    flags.setflags(write=False)
    return flags


def primes_between(lo: int, hi: int) -> list[int]:
    return [int(p) + lo for p in np.flatnonzero(prime_flags(hi)[lo:])]


def first_primes(k: int) -> list[int]:
    out, n = [], 1
    while len(out) < k:
        n += 1
        if is_prime(n):
            out.append(n)
    return out


def next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


def prev_prime(n: int) -> int:
    while not is_prime(n):
        n -= 1
    return n


def primorial(k: int) -> int:
    return math.prod(first_primes(k))


def verdict(z: int, prim: int) -> str:
    """The classification of 1 <= z <= prim under the seed primes of prim.

    Every composite z <= prim has a factor at most sqrt(prim), which is a
    seed, so a non-seed z that shares no factor with the primorial is
    signature-certified exactly when it is prime.
    """
    if z == 1:
        return "unit"
    if z <= math.isqrt(prim) and is_prime(z):
        return "seed-prime"
    if math.gcd(z, prim) > 1:
        return "composite-by-core"
    return "signature-certified-prime" if is_prime(z) else "potential-prime"


@cache
def cycle_masks(n: int, core: tuple[int, ...]) -> dict[str, np.ndarray]:
    """Masks indexed by integer value 0..n under the core primes of a census.

    potential: shares no factor with the core. twin_anchor: a >= 5 with a and
    a - 2 potential. true_twin: a twin anchor with a and a - 2 prime.
    new_composite: potential, composite and > 1. Built by clearing strided
    slices, not by the program's per-seed modulo scans.
    """
    potential = np.ones(n + 1, dtype=bool)
    for p in core:
        potential[::p] = False
    flags = prime_flags(n)
    anchor = np.zeros(n + 1, dtype=bool)
    anchor[5:] = potential[5:] & potential[3:-2]
    true_twin = anchor.copy()
    true_twin[5:] &= flags[5:] & flags[3:-2]
    new_composite = potential & ~flags
    new_composite[1] = False
    return {"potential": potential, "twin_anchor": anchor, "true_twin": true_twin,
            "new_composite": new_composite}


def window_counts(mask: np.ndarray, width: int) -> list[int]:
    """Set entries of mask[1:] in each run of `width` integers: 1..width, ..."""
    return [int(c) for c in np.add.reduceat(mask[1:], np.arange(0, len(mask) - 1, width))]


def pair_count(E: int) -> int:
    """Prime pairs p1 <= p2 with p1 + p2 = E, by direct enumeration."""
    flags = prime_flags(E)
    return sum(1 for p in range(2, E // 2 + 1) if flags[p] and flags[E - p])


def least_squares(xs, ys) -> tuple[float, float]:
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    slope = sxy / sxx
    return slope, my - slope * mx


PRODUCT_BITS = 96


@cache
def product_enclosure(lo: int, hi: int) -> tuple[int, int]:
    """(L, U) with L <= 2**96 * prod((q - 2) / q) <= U over primes lo <= q <= hi.

    The exact rational product has millions of digits at the top of the
    scaffold tables, so it is evaluated in fixed point with directed
    rounding: L rounds every step down and U every step up.
    """
    low = high = 1 << PRODUCT_BITS
    for q in primes_between(lo, hi):
        low = low * (q - 2) // q
        high = -(-high * (q - 2) // q)
    return low, high


def matches_printed(printed: str, enclosure: tuple[int, int], scale: int = 1,
                    places: int = 6) -> bool:
    """Whether a printed decimal is the exact value rounded to `places`.

    The exact value is scale * prod, known to lie in the enclosure; a slack
    of 1e-12 admits either side of a tie.
    """
    from fractions import Fraction

    value = Fraction(printed)
    half = Fraction(1, 2 * 10**places) + Fraction(1, 10**12)
    lo = Fraction(enclosure[0] * scale, 1 << PRODUCT_BITS)
    hi = Fraction(enclosure[1] * scale, 1 << PRODUCT_BITS)
    return value - half <= lo and hi <= value + half


def rounded_half_up(enclosure: tuple[int, int], scale: int) -> set[int]:
    """Possible floor(x + 1/2) for x = scale * prod within the enclosure."""
    den = 1 << PRODUCT_BITS
    return {(2 * enclosure[0] * scale + den) // (2 * den),
            (2 * enclosure[1] * scale + den) // (2 * den)}
