"""Goldbach pair enumeration, mod-3 rules, residue addition grids and the
signature-mismatch solution procedure."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, _as_int, _check_budget
from .primes import (
    _LADDER,
    _shared_table,
    largest_primorial_at_most,
    max_seed_prime_for,
    next_prime,
    primes_up_to,
    seed_free_odd_mask,
    smallest_primorial_at_least,
)


@dataclass(frozen=True)
class GoldbachPair:
    """Ordered prime pair p1 <= p2 with p1 + p2 = E."""

    E: int
    p1: int
    p2: int

    def residue_triples(self, seeds) -> list[tuple[int, int, int, int]]:
        """(seed, E residue, p1 residue, p2 residue) per seed prime."""
        return [(q, self.E % q, self.p1 % q, self.p2 % q) for q in seeds]


def _even(E) -> int:
    """E as an int; DomainError unless it is an even integer > 4."""
    E = _as_int(E, "E")
    if E <= 4 or E % 2 != 0:
        raise DomainError(f"need an even integer > 4, got {E}")
    return E


def _paired(flags: np.ndarray, partners: np.ndarray, h: int, lo: int, hi: int) -> np.ndarray:
    """The odd indexes k in [lo, hi) where flags[k] and partners[h - k] are set.

    With h = E/2 - 1, h - k is the odd index of E - (2k + 1), the partner of
    p1 = 2k + 1, so the partners' flags are one slice read backwards: no
    gather and no prime array. Needs lo <= hi <= h + 1.
    """
    return lo + np.flatnonzero(flags[lo:hi] & partners[h - hi + 1 : h - lo + 1][::-1])


def _partners(E: int, flags: np.ndarray) -> np.ndarray:
    """Odd primes p1 <= E/2 whose partner E - p1 is prime, ascending.

    The odd prime flags must reach E - 3. p1 = 2 never pairs: E - 2 is even and > 2.
    """
    return 2 * _paired(flags, flags, E // 2 - 1, 1, (E + 2) // 4) + 1


def goldbach_pairs(E: int) -> list[GoldbachPair]:
    """All prime pairs summing to E, ascending by the smaller member."""
    E = _even(E)
    flags = primes_up_to(E).odd_prime_mask()
    return [GoldbachPair(E, p1, E - p1) for p1 in _partners(E, flags).tolist()]


def pair_count_table(upper: int) -> list[tuple[int, int, int]]:
    """(E, E mod 3, pair count) for every even 6 <= E <= upper."""
    upper = _as_int(upper, "upper")
    if upper < 6:
        raise DomainError(f"need upper >= 6, got {upper}")
    flags = primes_up_to(upper).odd_prime_mask()
    return [(E, E % 3, len(_partners(E, flags))) for E in range(6, upper + 1, 2)]


CLASS_0, CLASS_1, CLASS_2, SEED_3 = "[0]", "[1]", "[2]", "3"

_MOD3_COMBINATIONS = {
    0: frozenset({(CLASS_1, CLASS_2), (CLASS_2, CLASS_1)}),
    1: frozenset({(SEED_3, CLASS_1), (CLASS_2, CLASS_2)}),
    2: frozenset({(SEED_3, CLASS_2), (CLASS_1, CLASS_1)}),
}


@dataclass(frozen=True)
class Mod3Rule:
    """Allowed mod-3 class combinations for Goldbach pairs of one E."""

    e_class: int
    allowed_combinations: frozenset
    exception_pair: tuple[int, int] | None = None

    @staticmethod
    def _label(p: int) -> str:
        return SEED_3 if p == 3 else f"[{p % 3}]"

    def conforms(self, pair: GoldbachPair) -> bool:
        if self.exception_pair and (pair.p1, pair.p2) == self.exception_pair:
            return True
        combo = (self._label(pair.p1), self._label(pair.p2))
        return combo in self.allowed_combinations or combo[::-1] in self.allowed_combinations


def mod3_rule(E: int) -> Mod3Rule:
    """The Table-9 rule row that applies to E."""
    E = _even(E)
    cls = E % 3
    return Mod3Rule(cls, _MOD3_COMBINATIONS[cls], (3, 3) if E == 6 else None)


def residue_addition_table(p: int) -> np.ndarray:
    """p x p grid of residue sums: grid[a, b] = (a + b) mod p.

    A grid of more cells than the primality budget raises BudgetError
    before anything is allocated.
    """
    p = _as_int(p, "p")
    if p < 2:
        raise DomainError(f"need p >= 2, got {p}")
    _check_budget("residue addition grid cells", p * p, "primality budget")
    a = np.arange(p, dtype=np.int64)
    grid = np.add.outer(a, a)
    return np.remainder(grid, p, out=grid)  # in place: one grid at the peak


def _mismatch_end(E: int, max_seed: int) -> int:
    """End of the odd indexes k whose p1 = 2k + 1 the mismatch filter reads.

    p1 = E (mod q) exactly when q divides the partner E - p1. The partner lies
    below the least primorial >= E, and the seeds reach its square root (T2),
    so it has no seed factor exactly when it is a prime above the largest seed:
    p1 < E/2 gives k < E // 4, and E - p1 > max_seed gives k < (E - max_seed) // 2.
    """
    return min(E // 4, (E - max_seed) // 2)


def mismatch_filter(E: int) -> list[int]:
    """Primes p1 below E/2 whose residues differ from E's at every seed prime.

    The trivial solution p1 = E/2 (when prime) is appended; it is the one
    case where a shared residue class is allowed. p1 = 2 never passes: its
    partner is even and 2 is a seed.
    """
    E = _even(E)
    table = primes_up_to(E)
    flags = table.odd_prime_mask()
    k = _paired(flags, flags, E // 2 - 1, 1, _mismatch_end(E, max_seed_prime_for(E)))
    out = (2 * k + 1).tolist()
    if table.is_prime(E // 2):
        out.append(E // 2)
    return out


def mismatch_violations(upper: int) -> list[tuple[int, int]]:
    """(E, p1) pairs where the mismatch filter yields a composite partner.

    Covers all even 6 <= E <= upper by sieving the seed multiples out of the
    partners, not by T2 as mismatch_filter does. Neither the trivial half
    (its partner is itself) nor p1 = 2 (its partner is even) contributes.
    """
    upper = _as_int(upper, "upper")
    if upper < 6:
        raise DomainError(f"need upper >= 6, got {upper}")
    flags = primes_up_to(upper).odd_prime_mask()
    # Seed sets only change at primorial boundaries; group evens by them.
    violations = []
    lo = 6
    while lo <= upper:
        prim = smallest_primorial_at_least(lo)
        hi = min(prim.value, upper)
        # Over the odd indexes of the band's partners, which lie in
        # (lo/2, hi - 3], the composites that pass the filter. The seeds of a
        # full seed set leave none, and such a band is skipped.
        first = (lo // 2 + 1) // 2
        seed_flags = primes_up_to(max_seed_prime_for(prim.value)).odd_prime_mask()
        seeds = (2 * np.flatnonzero(seed_flags) + 1).tolist()
        rough_composite = seed_free_odd_mask(first, (hi - 3) // 2, seeds)
        partners = flags[first : first + rough_composite.size]
        np.greater(rough_composite, partners, out=rough_composite)  # and not prime
        if rough_composite.any():  # odd primes p1 < E/2 paired with a band flag
            for E in range(lo, hi + 1, 2):
                k = _paired(flags, rough_composite, E // 2 - 1 - first, 1, E // 4)
                violations.extend((E, p) for p in (2 * k + 1).tolist())
        lo = hi + 2  # primorials are even; an odd hi is upper, which ends the loop
    return violations


def exact_potential_goldbach_count(E: int) -> int:
    """Residue classes mod the least primorial >= E that stay odd, coprime to
    the core seeds and mismatched with E at each of them."""
    E = _even(E)
    return math.prod((q - 1) if E % q == 0 else (q - 2)
                     for q in smallest_primorial_at_least(E).prime_factors[1:])


@dataclass(frozen=True)
class GoldbachSolution:
    """One Goldbach pair together with the solution path that produced it."""

    pair: GoldbachPair
    case: str  # "case-1" | "case-2a" | "case-2b"
    A_value: int | None = None
    B_largest_factor: int | None = None
    P_Z: int | None = None
    scaffold_certified: bool | None = None
    note: str = ""


def goldbach_solve(E: int) -> GoldbachSolution:
    """Produce one pair for E and report which solution case found it.

    The pair is the least Goldbach pair: p1 = 2k + 1 walks up the shared
    table's odd flags from 3, a short scan since the least Goldbach prime
    stays below 10^4 up to 4e18 (Oliveira e Silva, Herzog & Pardi, Math.
    Comp. 83 (2014)). The mismatch filter holds exactly the pairs with k
    below _mismatch_end, so the least pair passed it exactly when its k does,
    and is then its least.
    """
    E = _even(E)
    flags, half = _shared_table(E).odd_prime_mask(), E // 2
    if half % 2 and flags[half // 2]:  # E/2 >= 3 is an odd prime
        return GoldbachSolution(GoldbachPair(E, half, half), "case-1")
    h = half - 1  # h - k is the odd index of E - p1
    for k in range(1, (E + 2) // 4):
        if flags[k] and flags[h - k]:
            break
    else:
        raise AssertionError(f"no Goldbach pair found for {E}: conjecture counterexample candidate")
    p1, max_seed = 2 * k + 1, max_seed_prime_for(E)
    filtered = k < _mismatch_end(E, max_seed)
    if filtered and p1 <= max_seed:  # the seeds are the primes up to the max seed
        return GoldbachSolution(GoldbachPair(E, p1, E - p1), "case-2a")
    # the divergence of an empty filter is flagged rather than hidden
    note = "" if filtered else "mismatch filter empty; pair found by direct enumeration"
    # Scaffold existence path, anchored at the largest primorial <= E.
    A = largest_primorial_at_most(E).value
    P_B, P_Z = _scaffold_anchor(A)
    return GoldbachSolution(GoldbachPair(E, p1, E - p1), "case-2b", A_value=A,
                            B_largest_factor=P_B, P_Z=P_Z, scaffold_certified=P_Z * P_Z > A,
                            note=note)


@lru_cache(maxsize=len(_LADDER))  # one entry per ladder primorial
def _scaffold_anchor(primorial: int) -> tuple[int, int]:
    """(P_B, P_Z) of a primorial A: its largest seed and the prime after it."""
    P_B = max_seed_prime_for(primorial)
    return P_B, next_prime(P_B)


def figure2_slopes(upper: int = 210) -> dict[int, tuple[float, float]]:
    """Ordinary-least-squares (slope, intercept) of pair count vs E per
    mod-3 class over the Goldbach count table."""
    rows = pair_count_table(upper)
    out = {}
    for cls in (0, 1, 2):
        xs = np.array([e for e, c, _ in rows if c == cls], dtype=float)
        ys = np.array([n for e, c, n in rows if c == cls], dtype=float)
        slope, intercept = np.polyfit(xs, ys, 1)
        out[cls] = (float(slope), float(intercept))
    return out
