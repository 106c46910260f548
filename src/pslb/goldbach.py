"""Goldbach pair enumeration, mod-3 rules, residue addition grids and the
signature-mismatch solution procedure."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .primes import (
    PrimeTable,
    SeedPrimeSet,
    largest_primorial_at_most,
    next_prime,
    prev_prime,
    primes_up_to,
    seed_prime_set,
    smallest_primorial_at_least,
)
from .signatures import residue_sieve


@dataclass(frozen=True)
class GoldbachPair:
    """Ordered prime pair p1 <= p2 with p1 + p2 = E."""

    E: int
    p1: int
    p2: int

    def residue_triples(self, seeds) -> list[tuple[int, int, int, int]]:
        """(seed, E residue, p1 residue, p2 residue) per seed prime."""
        return [(q, self.E % q, self.p1 % q, self.p2 % q) for q in seeds]


def _check_even(E: int) -> None:
    if E <= 4 or E % 2 != 0:
        raise DomainError(f"need an even integer > 4, got {E}")


def _partners(E: int, table: PrimeTable) -> np.ndarray:
    """Odd primes p1 <= E/2 whose partner E - p1 is prime, ascending.

    `table` must reach E - 3. p1 = 2 never pairs, since E - 2 is even and > 2.
    """
    primes = table.ordered_primes
    p1 = primes[1 : np.searchsorted(primes, E // 2, side="right")]
    return p1[table.odd_prime_mask()[(E - p1) // 2]]


def goldbach_pairs(E: int) -> list[GoldbachPair]:
    """All prime pairs summing to E, ascending by the smaller member."""
    _check_even(E)
    return [GoldbachPair(E, p1, E - p1) for p1 in _partners(E, primes_up_to(E)).tolist()]


def pair_count_table(upper: int) -> list[tuple[int, int, int]]:
    """(E, E mod 3, pair count) for every even 6 <= E <= upper."""
    if upper < 6:
        raise DomainError(f"need upper >= 6, got {upper}")
    table = primes_up_to(upper)
    return [(E, E % 3, len(_partners(E, table))) for E in range(6, upper + 1, 2)]


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
    _check_even(E)
    cls = E % 3
    return Mod3Rule(cls, _MOD3_COMBINATIONS[cls], (3, 3) if E == 6 else None)


def residue_addition_table(p: int) -> np.ndarray:
    """p x p grid of residue sums: grid[a, b] = (a + b) mod p."""
    if p < 2:
        raise DomainError(f"need p >= 2, got {p}")
    a = np.arange(p)
    return (a[:, None] + a[None, :]) % p


def _seed_free_mask(lo: int, hi: int, seeds) -> np.ndarray:
    """Mask over lo..hi of the integers that no seed prime divides."""
    return residue_sieve(lo, hi, {q: (0,) for q in seeds})


def mismatch_filter(E: int, sps: SeedPrimeSet) -> list[int]:
    """Primes p1 below E/2 whose residues differ from E's at every seed prime.

    The trivial solution p1 = E/2 (when prime) is appended; it is the one
    case where a shared residue class is allowed.

    p1 and E share a residue mod q exactly when q divides the partner E - p1,
    so the rule is evaluated as one seed-multiple sieve over the partner
    window (E/2, E - 2], gathered at E - p1.
    """
    _check_even(E)
    expected = smallest_primorial_at_least(E)
    if sps.primorial.value != expected.value:
        raise DomainError(
            f"seed set is for {sps.primorial.value}, expected smallest primorial >= {E} "
            f"({expected.value})"
        )
    table = primes_up_to(E)
    primes = table.ordered_primes
    p1 = primes[: np.searchsorted(primes, E // 2)]  # 2 * p1 < E
    lo = E // 2 + 1
    keep = _seed_free_mask(lo, E - 2, sps.all_seeds)
    out = p1[keep[E - p1 - lo]].tolist()
    if table.is_prime(E // 2):
        out.append(E // 2)
    return out


def mismatch_violations(upper: int) -> list[tuple[int, int]]:
    """(E, p1) pairs where the mismatch filter yields a composite partner.

    Covers all even 6 <= E <= upper; equivalent to running mismatch_filter
    per E and testing E - p1 for primality. The trivial half never
    contributes, since its partner is itself.
    """
    if upper < 6:
        raise DomainError(f"need upper >= 6, got {upper}")
    table = primes_up_to(upper)
    mask = table.prime_mask()
    primes = table.ordered_primes
    half = primes[primes * 2 < upper]
    # Seed sets only change at primorial boundaries; group evens by them.
    violations = []
    lo = 6
    while lo <= upper:
        prim = smallest_primorial_at_least(lo)
        hi = min(prim.value, upper)
        # 6 is the only enclosing primorial below 30; its lone seed is 2.
        seeds = seed_prime_set(prim).all_seeds if prim.value >= 30 else (2,)
        # composite partners that pass the filter; index = partner value
        rough_composite = _seed_free_mask(0, hi, seeds) & ~mask[: hi + 1]
        for E in range(lo, hi + 1, 2):
            p1 = half[: np.searchsorted(half, E // 2)]
            violations.extend((E, p) for p in p1[rough_composite[E - p1]].tolist())
        lo = hi + 2  # primorials are even; an odd hi is upper, which ends the loop
    return violations


def exact_potential_goldbach_count(E: int, p) -> int:
    """Residue classes mod the enclosing primorial that stay odd, coprime to
    the core seeds and mismatched with E at each of them."""
    _check_even(E)
    expected = smallest_primorial_at_least(E)
    if p.value != expected.value:
        raise DomainError(f"primorial {p.value} does not enclose {E} (expected {expected.value})")
    out = 1
    for q in p.prime_factors[1:]:
        out *= (q - 1) if E % q == 0 else (q - 2)
    return out


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
    """Produce one pair for E and report which solution case found it."""
    _check_even(E)
    table = primes_up_to(E)
    if table.is_prime(E // 2):
        return GoldbachSolution(GoldbachPair(E, E // 2, E // 2), "case-1")
    sps = seed_prime_set(smallest_primorial_at_least(E))
    passing = mismatch_filter(E, sps)
    # the seeds are exactly the primes up to max_seed, and passing ascends
    if passing and passing[0] <= sps.max_seed:
        p1 = passing[0]
        return GoldbachSolution(GoldbachPair(E, p1, E - p1), "case-2a")
    # Scaffold existence path, anchored at the largest primorial <= E.
    A = largest_primorial_at_most(E)
    P_B = prev_prime(math.isqrt(A.value))
    P_Z = next_prime(P_B)
    certified = P_Z * P_Z > A.value
    if passing:
        p1 = passing[0]
        return GoldbachSolution(
            GoldbachPair(E, p1, E - p1), "case-2b",
            A_value=A.value, B_largest_factor=P_B, P_Z=P_Z,
            scaffold_certified=certified,
        )
    # The mismatch filter came up empty; fall back to direct enumeration and
    # flag the divergence rather than hiding it.
    pairs = goldbach_pairs(E)
    if not pairs:
        raise AssertionError(f"no Goldbach pair found for {E}: conjecture counterexample candidate")
    return GoldbachSolution(
        pairs[0], "case-2b",
        A_value=A.value, B_largest_factor=P_B, P_Z=P_Z, scaffold_certified=certified,
        note="mismatch filter empty; pair found by direct enumeration",
    )


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
