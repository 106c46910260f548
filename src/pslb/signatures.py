"""Modular signatures: residue sequences, CRT reconstruction, classification."""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetError, DomainError
from .primes import DEFAULT_PRIMALITY_BUDGET, SeedPrimeSet, is_prime, primes_up_to

VERDICT_UNIT = "unit"
VERDICT_SEED_PRIME = "seed-prime"
VERDICT_COMPOSITE_BY_CORE = "composite-by-core"
VERDICT_POTENTIAL_PRIME = "potential-prime"
VERDICT_CERTIFIED_PRIME = "signature-certified-prime"


@dataclass(frozen=True)
class ModularSignature:
    """Ordered residues of one integer under an ascending seed-prime list."""

    subject: int
    seed_primes: tuple[int, ...]
    residues: tuple[int, ...]


@lru_cache(maxsize=8)
def _check_seeds(seeds: tuple[int, ...]) -> tuple[int, ...]:
    """The seed tuple itself once it passes; an invalid tuple raises on every call."""
    if not seeds:
        raise DomainError("seed prime list is empty")
    if list(seeds) != sorted(set(seeds)):
        raise DomainError(f"seed primes must be strictly ascending: {seeds}")
    table = primes_up_to(max(seeds[-1], 2))
    for s in seeds:
        if not table.is_prime(s):
            raise DomainError(f"seed {s} is not prime")
    return seeds


def signature(z: int, seeds) -> ModularSignature:
    """Residue sequence of z under each seed prime, in seed order."""
    if z < 1:
        raise DomainError(f"need z >= 1, got {z}")
    seeds = _check_seeds(tuple(int(s) for s in seeds))
    return ModularSignature(z, seeds, tuple(z % s for s in seeds))


@lru_cache(maxsize=8)
def _crt_basis(moduli: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Subproduct tree of non-empty moduli, leaves first, and s_i = (M / m_i)^-1 mod m_i.

    An odd node at the end of a level is carried up unchanged; the last level
    holds M alone. pow raises ValueError when the moduli are not coprime.
    """
    levels = [moduli]
    while len(levels[-1]) > 1:
        below = levels[-1]
        levels.append(tuple(a * b for a, b in zip(below[::2], below[1::2])) + below[len(below) & ~1 :])
    root = levels[-1][0]
    # (M / m) mod m = (M mod m^2) / m: a short remainder instead of a long quotient
    return tuple(levels), tuple(pow(root % (m * m) // m, -1, m) for m in moduli)


def crt_reconstruct(sig: ModularSignature) -> int:
    """Unique solution in [0, prod(seeds)) matching every residue.

    x = sum(c_i * M / m_i) with c_i = r_i * s_i mod m_i, summed pairwise up a
    subproduct tree (Borodin & Moenck 1974): a node combines its children as
    x_L * m_R + x_R * m_L, so the only division is the final one by M.
    """
    # a residue tuple shorter than the seeds fixes only the leading seeds
    moduli = tuple(sig.seed_primes[: len(sig.residues)])
    if not moduli:
        return 0
    levels, inverses = _crt_basis(moduli)
    xs = [r * s % m for r, s, m in zip(sig.residues, inverses, levels[0])]
    for level in levels[:-1]:
        xs = [
            xs[i] * level[i + 1] + xs[i + 1] * level[i] for i in range(0, len(xs) - 1, 2)
        ] + xs[len(xs) & ~1 :]
    return xs[0] % levels[-1][0]


@dataclass(frozen=True)
class Classification:
    """Verdict on one integer from its signature under a seed-prime set."""

    subject: int
    is_odd: bool
    zero_core_residues: tuple[int, ...]
    zero_noncore_residues: tuple[int, ...]
    verdict: str

    @property
    def is_potential_prime(self) -> bool:
        return self.verdict in (VERDICT_POTENTIAL_PRIME, VERDICT_CERTIFIED_PRIME)


def classify(z: int, sps: SeedPrimeSet) -> Classification:
    """Classify z by its core / non-core zero residues.

    A non-core seed prime dividing z (e.g. 29 | 2291) counts as an ordinary
    zero residue; the seed-prime verdict applies only when z itself is a seed.
    """
    if not 1 <= z <= sps.primorial.value:
        raise DomainError(f"z must lie in [1, {sps.primorial.value}], got {z}")
    zero_core = tuple(p for p in sps.core if z % p == 0)
    zero_noncore = tuple(p for p in sps.non_core if z % p == 0)
    is_odd = z % 2 == 1
    if z == 1:
        verdict = VERDICT_UNIT
    elif z in sps.core or z in sps.non_core:
        verdict = VERDICT_SEED_PRIME
    elif zero_core:
        verdict = VERDICT_COMPOSITE_BY_CORE
    elif zero_noncore:
        verdict = VERDICT_POTENTIAL_PRIME
    else:
        verdict = VERDICT_CERTIFIED_PRIME
    return Classification(z, is_odd, zero_core, zero_noncore, verdict)


def is_potential_twin(o2: int, sps: SeedPrimeSet) -> bool:
    """Whether the pair (o2-2, o2) survives every odd core seed prime.

    The pair is anchored at its larger member o2; it survives a core seed p
    when o2 is neither 0 nor 2 mod p (the latter would zero out o2-2).
    """
    if o2 % 2 == 0:
        raise DomainError(f"twin anchor must be odd, got {o2}")
    if not 5 <= o2 <= sps.primorial.value:
        raise DomainError(f"twin anchor must lie in [5, {sps.primorial.value}], got {o2}")
    for p in sps.core:
        if p == 2:
            continue
        r = o2 % p
        if r == 0 or r == 2 % p:
            return False
    return True


def residue_cycle(p: int, parity: str) -> tuple[int, ...]:
    """One full residue cycle of length p through same-parity integers."""
    if p == 2 or not is_prime(p):
        raise DomainError(f"need an odd prime, got {p}")
    if parity not in ("odd", "even"):
        raise DomainError(f"parity must be 'odd' or 'even', got {parity!r}")
    start = 1 if parity == "odd" else 2
    return tuple((start + 2 * k) % p for k in range(p))


def residue_sieve(lo: int, hi: int, forbidden: Mapping[int, Iterable[int]]) -> np.ndarray:
    """Mask over the integers lo..hi (inclusive) whose residue mod each q
    avoids every class in forbidden[q].

    Index i corresponds to the integer lo+i. Each forbidden class clears one
    strided slice, so the cost is O((hi - lo) * sum(|R_q| / q)). A window past
    the primality budget raises BudgetError before anything is allocated.
    """
    size = max(hi - lo + 1, 0)
    if size > DEFAULT_PRIMALITY_BUDGET:
        raise BudgetError(f"residue window of {size} integers exceeds primality budget "
                          f"{DEFAULT_PRIMALITY_BUDGET}")
    keep = np.ones(size, dtype=bool)
    for q, residues in forbidden.items():
        if q < 1:
            raise DomainError(f"residue modulus must be >= 1, got {q}")
        for r in residues:
            keep[(r - lo) % q :: q] = False
    return keep


def _odd_seed_classes(seeds, classes: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """The even integers plus the given classes at every odd seed."""
    return {2: (0,), **{p: classes for p in seeds if p != 2}}


def potential_prime_mask(limit: int, core: tuple[int, ...]) -> np.ndarray:
    """Mask over 1..limit of odd integers with no zero core residue.

    Index i corresponds to the integer i+1.
    """
    return residue_sieve(1, limit, _odd_seed_classes(core, (0,)))


def potential_twin_mask(limit: int, core: tuple[int, ...]) -> np.ndarray:
    """Mask over 1..limit of twin anchors surviving the odd core seeds."""
    mask = residue_sieve(1, limit, _odd_seed_classes(core, (0, 2)))
    mask[:4] = False  # anchors start at 5
    return mask


def certified_mask(limit: int, seeds: tuple[int, ...]) -> np.ndarray:
    """Mask over 1..limit of odd z > 1 with no zero residue at any seed."""
    mask = residue_sieve(1, limit, _odd_seed_classes(seeds, (0,)))
    mask[:1] = False  # z = 1
    return mask
