"""Modular signatures: residue sequences, CRT reconstruction, classification."""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import NamedTuple

import numpy as np

from .errors import DomainError, _as_int
# residue_sieve is only re-exported: pslb.signatures.residue_sieve is the kernel
from .primes import SeedPrimeSet, _as_seed_set, is_prime, primes_up_to, residue_sieve, seed_free_odd_mask

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

    def __reduce__(self):
        # the three fields only: a copy or an unpickled signature has no row
        # of `signature` (a private attribute), so crt_reconstruct takes the
        # general path
        return ModularSignature, (self.subject, self.seed_primes, self.residues)


_INT64_END = 1 << 63

# The Garner steps a signature made by `signature` can take: 17 suffice, as
# any 16 distinct primes multiply to at least 16# > 2^63 > z
_ROW_STEPS = 17

# A seed record holds the shared residue ints (about 36 bytes each) only while
# its largest seed is below this: every seed set up to 23# (largest seed
# 14,929), but not 37#, whose 2.7 million ints would take about 100 MB
_SHARED_INTS_END = 1 << 16


class _SeedTuple(NamedTuple):
    """A checked seed tuple, cached once per tuple by _check_seeds."""

    ints: tuple[int, ...]
    array: np.ndarray  # the seeds as a read-only int64 array
    # the ints 0 .. largest seed - 1 as a read-only object array, so equal
    # residues are one int; None when the largest seed is _SHARED_INTS_END or more
    values: np.ndarray | None
    inverses: tuple[int, ...]  # the Garner inverses of the leading _ROW_STEPS seeds


def _identity_first(fn):
    """fn of one tuple, memoised by an lru_cache(maxsize=8) behind a one-entry
    lookup by identity: a call with the very tuple of the last call returns
    its value without hashing it (23# has 1,748 seeds).

    A call that raises stores nothing. cache_info is the lru_cache's, and
    cache_clear clears both.
    """
    cached = lru_cache(maxsize=8)(fn)
    last = (None, None)  # (tuple, value), read and replaced whole

    @wraps(fn)
    def lookup(key: tuple):
        nonlocal last
        seen, value = last
        if key is not seen:
            value = cached(key)
            last = key, value
        return value

    def cache_clear() -> None:
        nonlocal last
        last = (None, None)
        cached.cache_clear()

    lookup.cache_info, lookup.cache_clear = cached.cache_info, cache_clear
    return lookup


@_identity_first
def _check_seeds(seeds: tuple) -> _SeedTuple:
    """The record of a seed tuple, keyed on the tuple as passed; an invalid
    tuple raises on every call. A tuple of exact ints is kept as the
    record's own, so signatures over it carry that very tuple."""
    ints = seeds if all(type(s) is int for s in seeds) else tuple(_as_int(s, "each seed") for s in seeds)
    if not ints:
        raise DomainError("seed prime list is empty")
    if list(ints) != sorted(set(ints)):
        raise DomainError(f"seed primes must be strictly ascending: {ints}")
    table = primes_up_to(max(ints[-1], 2))  # BudgetError past 1e8, so the seeds fit int64
    seed_array = np.array(ints, dtype=np.int64)
    seed_array.flags.writeable = False
    # one gather on the odd flags: the seeds ascend, so only the first can be
    # 2 and the next is the least of the rest; the loop only names a bad seed
    odd = seed_array[1:] if ints[0] == 2 else seed_array
    if odd.size and (odd[0] < 3 or not (odd & 1).all()
                     or not table.odd_prime_mask()[odd >> 1].all()):
        for s in ints:
            if not table.is_prime(s):
                raise DomainError(f"seed {s} is not prime")
    values = None
    if ints[-1] < _SHARED_INTS_END:
        values = np.arange(ints[-1]).astype(object)
        values.flags.writeable = False
    # the record is the only cache these inverses need: walked uncached
    inverses = _garner_basis.__wrapped__(ints[:_ROW_STEPS])[0]
    return _SeedTuple(ints, seed_array, values, inverses)


def signature(z: int, seeds) -> ModularSignature:
    """Residue sequence of z under each seed prime, in seed order.

    While z fits in int64 the residues are one np.remainder row, and the
    signature keeps that row and the seed record as a private attribute for
    crt_reconstruct (not a field: ==, hash, repr, pickle and copy see only
    the three fields).
    """
    z = _as_int(z, "z")
    if z < 1:
        raise DomainError(f"need z >= 1, got {z}")
    try:
        seeds = tuple(seeds)
    except TypeError:
        raise DomainError(f"seeds must be an iterable of primes, got {seeds!r}") from None
    rec = _check_seeds(seeds)
    if z >= _INT64_END:
        return ModularSignature(z, rec.ints, tuple(z % s for s in rec.ints))
    row = np.remainder(z, rec.array)
    residues = tuple((row if rec.values is None else rec.values[row]).tolist())
    sig = ModularSignature(z, rec.ints, residues)
    object.__setattr__(sig, "_row", (row, rec))
    return sig


@_identity_first
def _garner_basis(moduli: tuple[int, ...]) -> tuple[tuple[int, ...], np.ndarray | None]:
    """M_k^-1 mod m_k for each modulus m_k, M_k the product of the moduli
    before it, and the moduli as an int64 array when each is a positive int64.

    pow raises ValueError at the first modulus not coprime to those before
    it, and % ZeroDivisionError at a zero modulus, whichever comes first.
    """
    inverses, prefix = [], 1
    for m in moduli:
        inverses.append(pow(prefix % m, -1, m))
        prefix *= m
    try:
        moduli_array = np.array(moduli, dtype=np.int64)
    except OverflowError:
        return tuple(inverses), None
    moduli_array.flags.writeable = False
    return tuple(inverses), moduli_array if moduli_array.min() >= 1 else None


def _meets_every_residue(x: int, moduli: np.ndarray | None, residues) -> bool:
    """Whether x (< 2^63) mod each modulus is the residue at its place; the
    residues are a sequence or an int64 array.

    Without a moduli array, or with a residue that is not an int64 (too
    large, or not an integer), it never is.
    """
    if moduli is None:
        return False
    if not isinstance(residues, np.ndarray):
        try:
            residues = np.frombuffer(array("q", residues), dtype=np.int64)
        except (OverflowError, TypeError):
            return False
    return np.array_equal(np.remainder(x, moduli), residues)


def _crt_of_row(residues: tuple[int, ...], row: np.ndarray, rec: _SeedTuple) -> int:
    """crt_reconstruct of a signature made by `signature`: x reaches z < 2^63
    within 16 steps and the 17th finds t = 0, so the walk reads only the
    record's _ROW_STEPS inverses. Fewer seeds are all walked, giving z mod M.
    """
    last_m, last_r = rec.ints[-1], residues[-1]
    x, prefix = 0, 1
    for m, inverse, r in zip(rec.ints, rec.inverses, residues):
        t = (r - x) * inverse % m
        if t == 0 and x % last_m == last_r and _meets_every_residue(x, rec.array, row):
            return x
        x += t * prefix
        prefix *= m
    return x


def _as_signature(sig, name: str) -> ModularSignature:
    """sig itself if it is a ModularSignature; DomainError naming the argument otherwise."""
    if not isinstance(sig, ModularSignature):
        raise DomainError(f"{name} must be a ModularSignature, got {sig!r}")
    return sig


def crt_reconstruct(sig: ModularSignature) -> int:
    """Unique solution in [0, prod(seeds)) matching every residue.

    Garner's mixed-radix steps (Garner 1959): step k makes x meet the residue
    at m_k by x += t_k * M_k with t_k = (r_k - x) * M_k^-1 mod m_k, M_k the
    product of the moduli before m_k. x stays below M_k, so once a step finds
    t_k = 0 and x meets every residue, x is the solution in [0, M) and the
    steps stop (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 5).
    That compare takes one remainder over the moduli's int64 array while
    x < 2^63; the last residue is tried first, as a cheap filter for the
    steps where t_k is 0 by chance. A signature made by `signature` for
    z < 2^63 is compared with its own remainder row instead.
    """
    own = _as_signature(sig, "sig").__dict__.get("_row")
    if own is not None:
        return _crt_of_row(sig.residues, *own)
    # a residue tuple shorter than the seeds fixes only the leading seeds
    moduli = tuple(sig.seed_primes[: len(sig.residues)])
    if not moduli:
        return 0
    inverses, moduli_array = _garner_basis(moduli)
    residues = tuple(_as_int(r, "each residue") for r in sig.residues[: len(moduli)])
    last_m, last_r = moduli[-1], residues[-1]
    x, prefix = 0, 1
    for m, inverse, r in zip(moduli, inverses, residues):
        t = (r - x) * inverse % m
        if (t == 0 and x < _INT64_END and x % last_m == last_r
                and _meets_every_residue(x, moduli_array, residues)):
            return x
        x += t * prefix
        prefix *= m
    return x % prefix  # a no-op unless a modulus is negative


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
    z, sps = _as_int(z, "z"), _as_seed_set(sps, "sps")
    if not 1 <= z <= sps.primorial.value:
        raise DomainError(f"z must lie in [1, {sps.primorial.value}], got {z}")
    # z <= 47# < 2^63, and the core seeds lead the seed tuple
    rec = _check_seeds(sps.all_seeds)
    divides = np.flatnonzero(np.remainder(z, rec.array) == 0).tolist()
    n_core = len(sps.core)
    zero_core = tuple(rec.ints[i] for i in divides if i < n_core)
    zero_noncore = tuple(rec.ints[i] for i in divides if i >= n_core)
    is_odd = z % 2 == 1
    if z == 1:
        verdict = VERDICT_UNIT
    elif z in zero_core or z in zero_noncore:  # a seed is one of the seeds dividing it
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

    The pair is anchored at its larger member o2; it survives when o2 and
    o2 - 2 are both potential primes, neither divisible by an odd core seed.
    """
    o2, sps = _as_int(o2, "twin anchor"), _as_seed_set(sps, "sps")
    if o2 % 2 == 0:
        raise DomainError(f"twin anchor must be odd, got {o2}")
    if not 5 <= o2 <= sps.primorial.value:
        raise DomainError(f"twin anchor must lie in [5, {sps.primorial.value}], got {o2}")
    return all(o2 % q and (o2 - 2) % q for q in sps.core if q != 2)


def residue_cycle(p: int, parity: str) -> tuple[int, ...]:
    """One full residue cycle of length p through same-parity integers."""
    p = _as_int(p, "p")
    if p == 2 or not is_prime(p):
        raise DomainError(f"need an odd prime, got {p}")
    if parity not in ("odd", "even"):
        raise DomainError(f"parity must be 'odd' or 'even', got {parity!r}")
    start = 1 if parity == "odd" else 2
    return tuple((start + 2 * k) % p for k in range(p))


def potential_prime_mask(limit: int, core: tuple[int, ...]) -> np.ndarray:
    """Mask over the odd integers up to limit (index i holds 2i + 1) with no
    zero core residue."""
    return seed_free_odd_mask(0, (limit - 1) // 2, core)


def potential_twin_mask(limit: int, core: tuple[int, ...]) -> np.ndarray:
    """Mask over the odd integers up to limit (index i holds 2i + 1) of twin
    anchors o2 >= 5 where o2 and o2 - 2 are both potential primes."""
    mask = seed_free_odd_mask(0, (limit - 1) // 2, core)  # the potential primes
    mask[1:] &= mask[:-1]  # o2 - 2 is the previous odd integer; NumPy reads before writing
    mask[:2] = False  # anchors start at 5
    return mask


def certified_mask(limit: int, seeds: tuple[int, ...]) -> np.ndarray:
    """Mask over the odd integers up to limit (index i holds 2i + 1) of z > 1
    with no zero residue at any seed."""
    mask = seed_free_odd_mask(0, (limit - 1) // 2, seeds)
    mask[:1] = False  # z = 1
    return mask
