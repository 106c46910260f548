"""Counting layer: totients, potential-solution products, new composites,
prime-count formulas and per-cycle censuses."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import BudgetError, DomainError
from .primes import Primorial, max_seed_prime_for, primes_up_to
from .signatures import potential_prime_mask, potential_twin_mask

DEFAULT_FACTOR_BUDGET = 510_510


def totient_of_primorial(p: Primorial) -> int:
    """Euler totient of a primorial: product of (factor - 1)."""
    return math.prod(f - 1 for f in p.prime_factors)


def potential_solutions_T(p: Primorial) -> int:
    """Potential twin / Goldbach solution count: product of (factor - 2)
    over the odd prime factors."""
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


def _odd_prime_flags(p: Primorial, budget: int) -> np.ndarray:
    """The prime table's odd flags up to p.value; BudgetError past the budget."""
    if p.value > budget:
        raise BudgetError(f"primorial {p.value} exceeds factor-sieve budget {budget}")
    return primes_up_to(p.value).odd_prime_mask()


def _census_masks(p: Primorial, budget: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(prime flags, potential-prime mask, new-composite mask) over the odd
    integers up to p.value, or BudgetError when p.value exceeds the budget.

    A new composite is a potential prime (odd, no core factor) that is
    neither prime nor 1.
    """
    flags = _odd_prime_flags(p, budget)
    pp = potential_prime_mask(p.value, p.prime_factors)
    new_comp = ~flags
    new_comp &= pp
    new_comp[:1] = False  # z = 1
    return flags, pp, new_comp


def new_composites(p: Primorial, budget: int = DEFAULT_FACTOR_BUDGET) -> NewCompositeSet:
    """Exact member set of composites generated first by non-core seeds.

    A member is an odd composite > 1 that no core seed prime divides; its
    smallest factor is therefore a non-core seed prime.
    """
    members = np.flatnonzero(_census_masks(p, budget)[2])
    members *= 2
    members += 1  # index i holds 2i + 1; in place, so one int64 array at the peak
    return NewCompositeSet(p, members)


def prime_count_via_eq3(p: Primorial, budget: int = DEFAULT_FACTOR_BUDGET) -> int:
    """Prime count below a primorial from core count, totient and new composites."""
    n_b = int(np.count_nonzero(_census_masks(p, budget)[2]))
    return len(p.prime_factors) + totient_of_primorial(p) - 1 - n_b


def _eq1_seeds(n: int) -> tuple[int, ...]:
    """The primes <= sqrt(n), the seeds Eq. 1 sieves n with."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    root = math.isqrt(n)
    seeds = tuple(primes_up_to(root).ordered_primes.tolist()) if root >= 2 else ()
    if len(seeds) > 20:
        raise BudgetError(f"{len(seeds)} seeds is too many for subset enumeration")
    return seeds


def seed_multiple_level_counts(n: int) -> list[int]:
    """Per-depth inclusion-exclusion sums of seed multiples up to n.

    The seeds are the primes <= sqrt(n). Level k holds the sum of
    floor(n / product) over all k-subsets of them; the signed alternating
    total counts distinct seed multiples (e.g. 117 - 45 + 6 - 0 = 78 for
    n = 100, seeds 2, 3, 5, 7).
    """
    seeds = _eq1_seeds(n)
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

    `odd_flags` are prime flags over the odd integers and reach at least limit;
    a true twin is a potential-twin anchor o2 with o2 - 2 and o2 both prime.
    """
    pt = potential_twin_mask(limit, core)
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
    if outer.value % inner.value != 0:
        raise DomainError(f"{inner.value} does not divide {outer.value}")
    n_cycles = outer.value // inner.value
    # one row per cycle of integers (c-1)*inner+1 .. c*inner: inner/2 odd flags;
    # two masks are counted and dropped before the twin masks are built
    width = inner.value // 2
    flags, pp, new_comp = _census_masks(outer, budget)
    pp_n, nc_n = _window_counts(pp, width), _window_counts(new_comp, width)
    del pp, new_comp
    pt, tt = twin_masks(outer.value, outer.prime_factors, flags)
    # every true-twin anchor is a potential one, so false twins are the difference
    pt_n, tt_n = _window_counts(pt, width), _window_counts(tt, width)
    per_cycle = np.stack([pp_n, pt_n, pt_n - tt_n, tt_n, nc_n], axis=1)
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


def _window_counts(mask: np.ndarray, width: int) -> np.ndarray:
    """True entries per window of `width`, the last window possibly shorter."""
    return np.array([np.count_nonzero(mask[i : i + width]) for i in range(0, len(mask), width)],
                    dtype=np.int64)


def figure1_series(p: Primorial, budget: int = DEFAULT_FACTOR_BUDGET) -> list[Figure1Window]:
    """Potential primes per window of twice the max seed prime, with the
    running new-composite total; the final window keeps its true length."""
    pp, new_comp = _census_masks(p, budget)[1:]
    max_seed = max_seed_prime_for(p.value)  # a window's odd half is max_seed flags
    starts = np.arange(0, p.value, 2 * max_seed)
    ends = np.minimum(starts + 2 * max_seed, p.value)
    potential = _window_counts(pp, max_seed)
    cum = np.cumsum(_window_counts(new_comp, max_seed))
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
