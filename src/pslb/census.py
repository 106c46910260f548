"""Counting layer: totients, potential-solution products, new composites,
prime-count formulas and per-cycle censuses."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import BudgetError, DomainError
from .primes import Primorial, primes_up_to, seed_prime_set
from .signatures import potential_prime_mask, potential_twin_mask

DEFAULT_FACTOR_BUDGET = 510_510


def totient_of_primorial(p: Primorial) -> int:
    """Euler totient of a primorial: product of (factor - 1)."""
    out = 1
    for f in p.prime_factors:
        out *= f - 1
    return out


def potential_solutions_T(p: Primorial) -> int:
    """Potential twin / Goldbach solution count: product of (factor - 2)
    over the odd prime factors."""
    if p.value < 6:
        raise DomainError(f"need primorial >= 6, got {p.value}")
    out = 1
    for f in p.prime_factors[1:]:
        out *= f - 2
    return out


@dataclass(frozen=True)
class NewCompositeSet:
    """Composites up to a primorial whose smallest prime factor is non-core."""

    primorial: Primorial
    members: np.ndarray

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def least_member(self) -> int:
        return int(self.members[0])


def _census_masks(p: Primorial, budget: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(prime mask over 0..p.value, potential-prime mask, new-composite mask
    over 1..p.value), or BudgetError when p.value exceeds the factor budget.

    A new composite is a potential prime (odd, no core factor) that is
    neither prime nor 1.
    """
    if p.value > budget:
        raise BudgetError(f"primorial {p.value} exceeds factor-sieve budget {budget}")
    prime_value_mask = primes_up_to(p.value).prime_mask()
    pp = potential_prime_mask(p.value, p.prime_factors)
    new_comp = pp & ~prime_value_mask[1:]
    new_comp[:1] = False  # z = 1
    return prime_value_mask, pp, new_comp


def new_composites(p: Primorial, budget: int = DEFAULT_FACTOR_BUDGET) -> NewCompositeSet:
    """Exact member set of composites generated first by non-core seeds.

    A member is an odd composite > 1 that no core seed prime divides; its
    smallest factor is therefore a non-core seed prime.
    """
    new_comp = _census_masks(p, budget)[2]
    return NewCompositeSet(p, np.flatnonzero(new_comp) + 1)


def prime_count_via_eq3(p: Primorial, budget: int = DEFAULT_FACTOR_BUDGET) -> int:
    """Prime count below a primorial from core count, totient and new composites."""
    n_b = new_composites(p, budget=budget).count
    return len(p.prime_factors) + totient_of_primorial(p) - 1 - n_b


def _check_eq1_seeds(n: int, seeds) -> tuple[int, ...]:
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    seeds = tuple(int(s) for s in seeds)
    if len(seeds) > 20:
        raise BudgetError(f"{len(seeds)} seeds is too many for subset enumeration")
    root = math.isqrt(n)
    expected = tuple(int(q) for q in primes_up_to(max(root, 2)).ordered_primes if q <= root)
    if seeds != expected:
        raise DomainError(f"seeds must be all primes <= sqrt({n}) = {expected}, got {seeds}")
    return seeds


def seed_multiple_level_counts(n: int, seeds) -> list[int]:
    """Per-depth inclusion-exclusion sums of seed multiples up to n.

    Level k holds the sum of floor(n / product) over all k-subsets of the
    seeds; the signed alternating total counts distinct seed multiples
    (e.g. 117 - 45 + 6 - 0 = 78 for n = 100, seeds 2, 3, 5, 7).
    """
    seeds = _check_eq1_seeds(n, seeds)
    levels = []
    for k in range(1, len(seeds) + 1):
        total = 0
        for combo in combinations(seeds, k):
            prod = 1
            for s in combo:
                prod *= s
            if prod <= n:
                total += n // prod
        levels.append(total)
    return levels


def prime_count_via_eq1(n: int, seeds) -> int:
    """Legendre-style count: n - 1 + #seeds - #multiples-of-seeds.

    The inclusion-exclusion multiple count includes the seed primes
    themselves; the +#seeds term compensates.
    """
    levels = seed_multiple_level_counts(n, seeds)  # one level per seed
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


def twin_masks(limit: int, core, prime_value_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(potential-twin mask, true-twin mask) over anchors 1..limit.

    `prime_value_mask` is indexed by integer value and reaches at least limit;
    a true twin is a potential-twin anchor o2 with o2 - 2 and o2 both prime.
    """
    pt = potential_twin_mask(limit, core)
    anchor_prime = prime_value_mask[1 : limit + 1]
    tt = pt & anchor_prime  # pt already excludes anchors below 5
    tt[2:] &= anchor_prime[:-2]
    return pt, tt


def cycle_census(inner: Primorial, outer: Primorial,
                 budget: int = DEFAULT_FACTOR_BUDGET) -> list[CensusCounts]:
    """Per-cycle tallies of potential primes and twins of `inner` inside `outer`.

    Potential counts use the core seeds of the outer primorial; a pair is a
    true twin only when its anchor is a potential twin and both members are
    prime, which keeps anchors whose partner is a core seed out of the count.
    """
    if outer.value % inner.value != 0:
        raise DomainError(f"{inner.value} does not divide {outer.value}")
    value_mask, pp, new_comp = _census_masks(outer, budget)
    pt, tt = twin_masks(outer.value, outer.prime_factors, value_mask)
    n_cycles = outer.value // inner.value
    # one row per cycle of integers (c-1)*inner+1 .. c*inner
    per_cycle = np.stack([
        m.reshape(n_cycles, inner.value).sum(axis=1)
        for m in (pp, pt, pt & ~tt, tt, new_comp)
    ], axis=1)
    cum = np.cumsum(per_cycle, axis=0)
    return [
        CensusCounts(
            cycle_index=c + 1,
            cycle_end=(c + 1) * inner.value,
            cycle_length=inner.value,
            potential_primes=int(per_cycle[c, 0]),
            potential_twins=int(per_cycle[c, 1]),
            false_twins=int(per_cycle[c, 2]),
            true_twins=int(per_cycle[c, 3]),
            cumulative_potential_primes=int(cum[c, 0]),
            cumulative_potential_twins=int(cum[c, 1]),
            cumulative_false_twins=int(cum[c, 2]),
            cumulative_true_twins=int(cum[c, 3]),
            new_composites_cumulative=int(cum[c, 4]),
        )
        for c in range(n_cycles)
    ]


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
    pp, new_comp = _census_masks(p, budget)[1:]
    width = 2 * seed_prime_set(p).max_seed
    starts = np.arange(0, p.value, width)
    ends = np.minimum(starts + width, p.value)
    potential = np.add.reduceat(pp, starts, dtype=np.int64)
    cum = np.cumsum(np.add.reduceat(new_comp, starts, dtype=np.int64))
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
    rows = cycle_census(limit_primorial, limit_primorial, budget=budget)
    return rows[-1].cumulative_true_twins
