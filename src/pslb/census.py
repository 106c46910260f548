"""Counting layer: totients, potential-solution products, new composites,
prime-count formulas and per-cycle censuses.

The census reads each prime-sieve window's packed bytes as they are (flags
most significant bit first, the one packed layout of `pslb.primes`), next to
a potential-prime row of the odd core seeds' byte patterns, as big-endian
64-bit words: flag i of a window is bit 63 - i % 64 of word i // 64."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice

import numpy as np

# CENSUS_CEILING and DEFAULT_FACTOR_BUDGET are importable from here too
from .errors import (CENSUS_CEILING, DEFAULT_FACTOR_BUDGET, DEFAULT_PRIMALITY_BUDGET, _LIMITS, DomainError,
                     _as_int, _check_budget)
from .primes import (Primorial, _and_patterns, _as_primorial, _byte_patterns, _prime_windows, _read_only,
                     is_prime, max_seed_prime_for)
from .signatures import potential_twin_mask


def totient_of_primorial(p: Primorial) -> int:
    """Euler totient of a primorial: product of (factor - 1)."""
    p = _as_primorial(p, "p")
    return math.prod(f - 1 for f in p.prime_factors)


def potential_solutions_T(p: Primorial) -> int:
    """Potential twin / Goldbach solution count: product of (factor - 2)
    over the odd prime factors."""
    p = _as_primorial(p, "p")
    if p.value < 6:
        raise DomainError(f"need primorial >= 6, got {p.value}")
    return math.prod(f - 2 for f in p.prime_factors[1:])


@dataclass(frozen=True)
class NewCompositeSet:
    """Composites up to a primorial whose smallest prime factor is non-core."""

    primorial: Primorial
    members: np.ndarray

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def least_member(self) -> int | None:
        """The least member, or None for an empty set (up to 5# = 30 every seed is core)."""
        return int(self.members[0]) if len(self.members) else None


def _window_words(p: Primorial):
    """Per prime-sieve window up to p.value, (lo, size, words): rows 0 and 1
    hold the potential-prime (no core factor) and prime flags of 2i + 1, i in
    lo .. lo + size - 1, as native 64-bit words read big-endian from the
    packed bytes, so flag i is bit 63 - i % 64 of word i // 64, and 0 past
    the last flag. The prime row is the window's bytes as sieved; the
    potential row is 0xFF bytes with the odd core seeds' patterns ANDed in."""
    patterns = _byte_patterns(p.prime_factors)
    for lo, bits in _prime_windows(p.value):
        size = min(8 * bits.size, (p.value + 1) // 2 - lo)
        rows = np.zeros((2, -(-size // 64) * 8), dtype=np.uint8)
        rows[1, : bits.size] = bits
        potential = rows[0, : bits.size]
        potential.fill(0xFF)
        _and_patterns(potential, lo // 8, patterns)
        potential[-1] &= 0xFF << (-size % 8) & 0xFF  # clear the padding bits after the last flag
        yield lo, size, rows.view(">u8").astype(np.uint64)


@lru_cache(maxsize=1)
def _kept_words(p: Primorial) -> tuple:
    """The windows of _window_words(p), read-only, kept for p within the primality
    budget (2 x 606 KB at 19#) so the readers of one primorial sieve it once."""
    return tuple((lo, size, _read_only(words)) for lo, size, words in _window_words(p))


def _check_census(p: Primorial, budget: int) -> None:
    _check_budget("primorial", p.value, "factor-sieve budget", budget)
    _check_budget("primorial", p.value, "census ceiling")


def _census_fold(p: Primorial, width: int, budget: int) -> np.ndarray:
    """Counts of the potential primes, potential twins, true twins and new
    composites (rows 0-3) per segment of `width` odd flags up to p.value, the
    last possibly shorter; _check_census refuses p before any window.

    A new composite is a potential prime that is neither prime nor 1. A twin
    anchor o2 >= 5 is potential when o2 - 2 and o2 are, and true when both are
    prime: each flag row is ANDed with itself moved on one flag (one bit
    down), the last flag of the window before carried in at the top. A
    window's count up to a flag is the popcount of its words before that
    flag's word, from prefix sums, plus the bits of that word above it.
    """
    _check_census(p, budget)
    counts = np.zeros((4, -(-(p.value // 2) // width)), dtype=np.int64)
    carry = np.zeros(2, dtype=np.uint64)
    for lo, size, flags in _kept_words(p) if p.value <= DEFAULT_PRIMALITY_BUDGET else _window_words(p):
        up = flags >> np.uint64(1)
        up[:, 1:] |= flags[:, :-1] << np.uint64(63)
        up[:, 0] |= carry << np.uint64(63)
        carry = flags[:, -1] >> np.uint64(63 - (size - 1) % 64) & np.uint64(1)
        (pp, prime), pt = flags, flags[0] & up[0]
        words = np.stack([pp, pt, pt & prime & up[1], pp & ~prime])
        if lo == 0:
            words[1:3, 0] &= ~np.uint64(3 << 62)  # anchors start at 5
            words[3, 0] &= ~np.uint64(1 << 63)  # 1 is no composite
        s, edges = lo // width, np.arange(-(lo % width), size + width, width)
        edges[0], edges[-1] = 0, size  # the window meets segments s, s + 1, ...; s began at or before it
        before = np.zeros((4, words.shape[1] + 1), dtype=np.int64)
        np.cumsum(np.bitwise_count(words), axis=1, out=before[:, 1:])
        q, below = edges >> 6, ~(~np.uint64(0) >> (edges & 63).astype(np.uint64))
        upto = before[:, q] + np.bitwise_count(words.take(q, axis=1, mode="clip") & below)
        counts[:, s : s + edges.size - 1] += np.diff(upto, axis=1)
    return counts


def new_composites(p: Primorial, budget: int = DEFAULT_FACTOR_BUDGET) -> NewCompositeSet:
    """Exact member set of composites generated first by non-core seeds.

    A member is an odd composite > 1 that no core seed prime divides; its
    smallest factor is therefore a non-core seed prime. BudgetError past the
    budget or the primality budget, where the members would pass 100 MB.
    """
    p = _as_primorial(p, "p")
    _check_budget("new composites of primorial", p.value, "primality budget")
    _check_budget("primorial", p.value, "factor-sieve budget", budget)
    windows = [(lo, words[0] & ~words[1]) for lo, _, words in _kept_words(p)]  # potential, not prime
    windows[0][1][0] &= ~np.uint64(1 << 63)  # 1 is no composite
    members, found = np.empty(sum(int(np.bitwise_count(w).sum()) for _, w in windows), dtype=np.int64), 0
    for lo, words in windows:
        for a in range(0, words.size, 1 << 11):  # 2^17 flags at a time, so the unpacked bools stay small
            bits = words[a : a + (1 << 11)].astype(">u8").view(np.uint8)
            at = np.flatnonzero(np.unpackbits(bits).view(bool))
            out = members[found : found + at.size]
            np.multiply(at, 2, out=out)
            out += 2 * (lo + 64 * a) + 1  # index i holds 2i + 1
            found += at.size
    return NewCompositeSet(p, members)


def prime_count_via_eq3(p: Primorial, budget: int = DEFAULT_FACTOR_BUDGET) -> int:
    """Prime count below a primorial from core count, totient and new composites."""
    p = _as_primorial(p, "p")
    n_b = int(_census_fold(p, p.value, budget)[3, 0])
    return len(p.prime_factors) + totient_of_primorial(p) - 1 - n_b


def seed_multiple_level_counts(n: int) -> list[int]:
    """Per-depth inclusion-exclusion sums of seed multiples up to n.

    The seeds are the primes <= sqrt(n). Level k holds the sum of
    floor(n / product) over all k-subsets of them; the signed alternating
    total counts distinct seed multiples (e.g. 117 - 45 + 6 - 0 = 78 for
    n = 100, seeds 2, 3, 5, 7). The seeds are found by trial division, and
    one past the Eq. 1 seed cap refuses n, so no sieve is run.
    """
    n = _as_int(n, "n")
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    seeds = tuple(islice(filter(is_prime, range(2, math.isqrt(n) + 1)), _LIMITS["Eq. 1 seed cap"] + 1))
    _check_budget(f"Eq. 1 seeds of {n}, at least", len(seeds), "Eq. 1 seed cap")
    levels = []
    for k in range(1, len(seeds) + 1):
        total = 0
        for combo in combinations(seeds, k):
            prod = math.prod(combo)
            if prod <= n:
                total += n // prod
        levels.append(total)
    return levels


def prime_count_via_eq1(n: int) -> int:
    """Legendre-style count: n - 1 + #seeds - #multiples-of-seeds, with the
    primes <= sqrt(n) as seeds.

    The inclusion-exclusion multiple count includes the seed primes
    themselves; the +#seeds term compensates.
    """
    levels = seed_multiple_level_counts(n)  # one level per seed
    multiples = sum(v if k % 2 == 0 else -v for k, v in enumerate(levels))
    return n - 1 + len(levels) - multiples


@dataclass(frozen=True)
class CensusCounts:
    """One cycle row of a per-cycle census (Table-5 shape)."""

    cycle_index: int
    cycle_end: int
    cycle_length: int
    potential_primes: int
    potential_twins: int
    false_twins: int
    true_twins: int
    cumulative_potential_primes: int
    cumulative_potential_twins: int
    cumulative_false_twins: int
    cumulative_true_twins: int
    new_composites_cumulative: int


def twin_masks(limit: int, core, odd_flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(potential-twin mask, true-twin mask) over the odd anchors up to limit
    (index i holds 2i + 1).

    `odd_flags` are prime flags over the odd integers and reach at least limit
    (DomainError if they stop short); a true twin is a potential-twin anchor
    o2 with o2 - 2 and o2 both prime.
    """
    pt = potential_twin_mask(limit, core)
    if len(odd_flags) < len(pt):
        raise DomainError(f"odd_flags hold {len(odd_flags)} odd integers, not the {len(pt)} up to {limit}")
    anchor_prime = odd_flags[: len(pt)]
    tt = pt & anchor_prime  # pt already excludes anchors below 5
    tt[1:] &= anchor_prime[:-1]  # o2 - 2 is the previous odd integer
    return pt, tt


def cycle_census(inner: Primorial, outer: Primorial,
                 budget: int = DEFAULT_FACTOR_BUDGET) -> list[CensusCounts]:
    """Per-cycle tallies of potential primes and twins of `inner` inside `outer`.

    Potential counts use the core seeds of the outer primorial; a pair is a
    true twin only when its anchor is a potential twin and both members are
    prime, which keeps anchors whose partner is a core seed out of the count.
    """
    inner, outer = _as_primorial(inner, "inner"), _as_primorial(outer, "outer")
    if outer.value % inner.value != 0:
        raise DomainError(f"{inner.value} does not divide {outer.value}")
    _check_budget("cycles", outer.value // inner.value, "census cycle cap")
    # one row per cycle of integers (c-1)*inner+1 .. c*inner: inner/2 odd flags;
    # every true-twin anchor is a potential one, so false twins are the difference
    pp_n, pt_n, tt_n, nc_n = _census_fold(outer, inner.value // 2, budget)
    per_cycle = np.stack([pp_n, pt_n, pt_n - tt_n, tt_n, nc_n], axis=1)
    cum = np.cumsum(per_cycle, axis=0)
    # a row's fields in order: the cycle, its four counts and the five running totals
    return [CensusCounts(c + 1, (c + 1) * inner.value, inner.value, *row[:4], *total)
            for c, (row, total) in enumerate(zip(per_cycle.tolist(), cum.tolist()))]


@dataclass(frozen=True)
class Figure1Window:
    """One window of the potential-prime / new-composite series."""

    index: int
    window_end: int
    window_length: int
    potential_primes: int
    cumulative_new_composites: int


def figure1_series(p: Primorial, budget: int = DEFAULT_FACTOR_BUDGET) -> list[Figure1Window]:
    """Potential primes per window of twice the max seed prime, with the
    running new-composite total; the final window keeps its true length."""
    p = _as_primorial(p, "p")
    _check_census(p, budget)  # before the max seed's table is read
    max_seed = max_seed_prime_for(p.value)  # a window's odd half is max_seed flags
    counts = _census_fold(p, max_seed, budget)
    starts = np.arange(0, p.value, 2 * max_seed)
    ends = np.minimum(starts + 2 * max_seed, p.value)
    potential, cum = counts[0], np.cumsum(counts[3])
    return [
        Figure1Window(
            index=i + 1,
            window_end=hi,
            window_length=hi - lo,
            potential_primes=int(potential[i]),
            cumulative_new_composites=int(cum[i]),
        )
        for i, (lo, hi) in enumerate(zip(starts.tolist(), ends.tolist()))
    ]


def true_twin_count(limit_primorial: Primorial, budget: int = DEFAULT_FACTOR_BUDGET) -> int:
    """True twins up to a primorial under its own core-seed conventions."""
    limit_primorial = _as_primorial(limit_primorial, "limit_primorial")
    return int(_census_fold(limit_primorial, limit_primorial.value, budget)[2, 0])
