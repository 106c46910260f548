"""Prime generation, primorials and the seed-prime partition.

Every mask indexes the odd integers (index i holds 2i + 1): the prime flags
and every residue mask are one `seed_free_odd_mask` over `residue_sieve`, the
lab's one strided kernel. One module-level table serves every prime lookup:
`primes_up_to`, `prev_prime` and `next_prime` read its odd flags, and it is
re-sieved, at least doubled and at most to the primality budget, only when a
limit past its end is asked for.
Likewise one ladder of the 64-bit primorials, built at import by trial
division (no sieve), serves every primorial lookup.
"""
from __future__ import annotations

import math
import struct
import zlib
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import BudgetError, DomainError, PrimorialOverflowError

U64_MAX = 2**64 - 1

CACHE_MAGIC = b"PSLB"
CACHE_VERSION = 2
# magic, version byte, little-endian u64 limit, then a u32 CRC-32 of the limit
# bytes and the bitset body
_CACHE_HEADER = 17

DEFAULT_PRIMALITY_BUDGET = 100_000_000


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


# Integers per residue-sieve window: 1 MB of flags, about one L2 cache, so each
# class's strided pass stays in cache instead of going out to main memory.
_WINDOW = 1 << 20


def residue_sieve(lo: int, hi: int, forbidden: Mapping[int, Iterable[int]]) -> np.ndarray:
    """Mask over the integers lo..hi (inclusive) whose residue mod each q
    avoids every class in forbidden[q].

    Index i corresponds to the integer lo+i. A segmented sieve (Bays &
    Hudson, BIT 17 (1977)): each forbidden class clears one strided slice per
    window of _WINDOW integers, its offset worked out again in every window,
    so the cost is O((hi - lo) * sum(|R_q| / q)). A window past the primality
    budget raises BudgetError before anything is allocated.
    """
    size = max(hi - lo + 1, 0)
    if size > DEFAULT_PRIMALITY_BUDGET:
        raise BudgetError(f"residue window of {size} integers exceeds primality budget "
                          f"{DEFAULT_PRIMALITY_BUDGET}")
    keep = np.ones(size, dtype=bool)
    for w in range(0, size or 1, _WINDOW):  # an empty mask still checks its moduli
        window = keep[w : w + _WINDOW]
        start = lo + w  # the integer at window[0]
        for q, residues in forbidden.items():
            if q < 1:
                raise DomainError(f"residue modulus must be >= 1, got {q}")
            for r in residues:
                window[(r - start) % q :: q] = False
    return keep


def seed_free_odd_mask(lo: int, hi: int, seeds: Iterable[int]) -> np.ndarray:
    """Mask over the odd integers 2i + 1, i in lo..hi (inclusive), that no
    seed divides: odd q divides 2i + 1 exactly when i = q // 2 (mod q), 2 never."""
    return residue_sieve(lo, hi, {q: (q // 2,) for q in seeds if q != 2})


def sieve_odd_flags(limit: int) -> np.ndarray:
    """Prime flags for the odd integers 1, 3, 5, ... up to limit (index i holds 2i+1)."""
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if limit > DEFAULT_PRIMALITY_BUDGET:
        raise BudgetError(f"sieve limit {limit} exceeds primality budget {DEFAULT_PRIMALITY_BUDGET}")
    return _odd_flags(limit)


def _odd_flags(limit: int) -> np.ndarray:
    """The odd flags up to limit >= 1: the odd integers free of the odd seeds
    up to sqrt(limit), which come from the same sieve one level down; their
    own flags are set back afterwards.
    """
    root = math.isqrt(limit)
    seeds = (2 * np.flatnonzero(_odd_flags(root)) + 1).tolist() if root >= 3 else []
    flags = seed_free_odd_mask(0, (limit - 1) // 2, seeds)
    flags[[p // 2 for p in seeds]] = True  # the seeds themselves are prime
    flags[0] = False  # 1 is not prime
    return flags


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class PrimeTable:
    """Queryable set of primes up to an inclusive limit; its arrays are read-only."""

    def __init__(self, limit: int, _odd_flags: np.ndarray | None = None):
        if limit < 2:
            raise DomainError(f"PrimeTable limit must be >= 2, got {limit}")
        self.limit = limit
        if _odd_flags is None:
            _odd_flags = sieve_odd_flags(limit)
        self._odd = _read_only(_odd_flags)
        self._primes: np.ndarray | None = None
        self._parent: PrimeTable | None = None  # set on views, whose primes are cut from it

    def is_prime(self, n: int) -> bool:
        if n < 2 or n > self.limit:
            return False
        if n % 2 == 0:
            return n == 2
        return bool(self._odd[n // 2])

    def __contains__(self, n: int) -> bool:
        return self.is_prime(n)

    @property
    def ordered_primes(self) -> np.ndarray:
        if self._primes is None:
            if self._parent is not None:
                primes = self._parent.ordered_primes
                self._primes = primes[: np.searchsorted(primes, self.limit, side="right")]
            else:
                self._primes = _read_only(np.concatenate([[2], 2 * np.flatnonzero(self._odd) + 1]))
        return self._primes

    @property
    def prime_count(self) -> int:
        """pi(limit), counted off the odd flags without building the prime array."""
        return 1 + int(np.count_nonzero(self._odd))  # limit >= 2, so 2 counts

    def odd_prime_mask(self) -> np.ndarray:
        """Read-only flag array over odd integers (index i holds 2i+1)."""
        return self._odd

    def prime_mask(self) -> np.ndarray:
        """Boolean mask indexed by integer value, 0..limit: the odd flags at
        the odd values, and 2."""
        mask = np.zeros(self.limit + 1, dtype=bool)
        mask[1::2] = self._odd
        mask[2] = True  # limit >= 2
        return mask

    def _view(self, limit: int) -> "PrimeTable":
        """The table up to limit <= self.limit, as slices of this one's arrays;
        its prime array is cut from this one's only when first asked for."""
        view = PrimeTable(limit, _odd_flags=self._odd[: (limit + 1) // 2])
        view._parent = self
        return view

    # -- cache file ----------------------------------------------------------

    def save(self, path) -> None:
        limit = struct.pack("<Q", self.limit)
        body = np.packbits(self._odd)  # written and checksummed as a buffer, no bytes copy
        with open(path, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(struct.pack("<B", CACHE_VERSION))
            fh.write(limit)
            fh.write(struct.pack("<I", zlib.crc32(body, zlib.crc32(limit))))
            fh.write(body)

    @classmethod
    def load(cls, path) -> "PrimeTable":
        """Read a cache file; DomainError if it is corrupt or of another version.

        The body is checksummed and unpacked through a memoryview, and the
        unpacked bytes are viewed as the flags, so nothing is copied.
        """
        with open(path, "rb") as fh:
            blob = memoryview(fh.read())
        if len(blob) < 5:
            raise DomainError(f"bad sieve cache: file is only {len(blob)} bytes")
        if blob[:4] != CACHE_MAGIC:
            raise DomainError("bad sieve cache: wrong magic bytes")
        if blob[4] != CACHE_VERSION:
            # version 1 had no checksum, so a corrupt v1 body cannot be told apart
            raise DomainError(f"bad sieve cache: unsupported version {blob[4]} "
                              f"(rebuild it with `pslb cache build`)")
        if len(blob) < _CACHE_HEADER:
            raise DomainError(
                f"bad sieve cache: expected a {_CACHE_HEADER}-byte header, found {len(blob)} bytes"
            )
        (limit,) = struct.unpack("<Q", blob[5:13])
        size = (limit + 1) // 2
        expected = (size + 7) // 8
        body = blob[_CACHE_HEADER:]
        if len(body) != expected:
            raise DomainError(
                f"bad sieve cache: expected {expected} bitset bytes, found {len(body)}"
            )
        (stored,) = struct.unpack("<I", blob[13:17])
        if zlib.crc32(body, zlib.crc32(blob[5:13])) != stored:
            raise DomainError("bad sieve cache: checksum mismatch")
        flags = np.unpackbits(np.frombuffer(body, dtype=np.uint8), count=size).view(bool)
        return cls(limit, _odd_flags=flags)


# The shared table; it starts at _TABLE_FLOOR so small limits sieve once.
# Each growth at least doubles the limit up to the budget and drops the views
# cached by primes_up_to, so the table it replaces is freed once no caller
# holds a view of it.
_TABLE_FLOOR = 1 << 16
_table: PrimeTable | None = None


def _shared_table(limit: int) -> PrimeTable:
    """The shared table, re-sieved first if it ends below limit."""
    global _table
    if _table is None or _table.limit < limit:
        grown = 2 * _table.limit if _table is not None else _TABLE_FLOOR
        _table = PrimeTable(max(limit, min(grown, DEFAULT_PRIMALITY_BUDGET)))
        primes_up_to.cache_clear()
    return _table


@lru_cache(maxsize=32)
def primes_up_to(limit: int) -> PrimeTable:
    """All primes up to limit (inclusive): a read-only view of the shared table."""
    if limit < 2:
        raise DomainError(f"PrimeTable limit must be >= 2, got {limit}")
    return _shared_table(limit)._view(limit)


def prev_prime(n: int) -> int:
    """Largest prime <= n, read off the shared table's odd flags down from n."""
    if n < 2:
        raise DomainError(f"no prime at or below {n}")
    flags = _shared_table(n).odd_prime_mask()
    i = (n - 1) // 2  # the largest odd integer <= n
    while i and not flags[i]:
        i -= 1
    return 2 * i + 1 if i else 2  # index 0 holds 1, so i reaches 0 only at n = 2


def next_prime(n: int) -> int:
    """Smallest prime > n, read off the shared table's odd flags up from n.

    The shared table grows only when it holds no prime above n, and then to
    2n (by Bertrand's postulate a prime lies in (n, 2n]), or to the primality
    budget if that comes first.
    """
    if n < 2:
        return 2
    for limit in (2, max(n + 1, min(2 * n, DEFAULT_PRIMALITY_BUDGET))):
        flags = _shared_table(limit).odd_prime_mask()
        i = (n + 1) // 2  # the least odd integer > n
        while i < len(flags) and not flags[i]:
            i += 1
        if i < len(flags):
            return 2 * i + 1
    raise BudgetError(f"no prime above {n} within primality budget {DEFAULT_PRIMALITY_BUDGET}")


@dataclass(frozen=True)
class Primorial:
    """Product of the first k primes."""

    value: int
    prime_factors: tuple[int, ...]

    @property
    def largest_factor(self) -> int:
        return self.prime_factors[-1]

    @property
    def k(self) -> int:
        return len(self.prime_factors)

    def __str__(self) -> str:
        return f"{self.largest_factor}#"


def _primorial_ladder() -> tuple[Primorial, ...]:
    """2#, 3#, 5#, ..., 47#: every primorial that fits in 64 bits (53# does not)."""
    ladder = [Primorial(2, (2,))]
    for p in filter(is_prime, range(3, 54)):
        prev = ladder[-1]
        if prev.value * p > U64_MAX:
            break
        ladder.append(Primorial(prev.value * p, prev.prime_factors + (p,)))
    return tuple(ladder)


_LADDER = _primorial_ladder()
_LADDER_VALUES = [p.value for p in _LADDER]


def nth_primorial(k: int) -> Primorial:
    """Product of the first k primes; rejects values beyond 64 bits."""
    if k < 1:
        raise DomainError(f"primorial index must be >= 1, got {k}")
    if k > len(_LADDER):
        raise PrimorialOverflowError(f"primorial of {k} primes exceeds 64-bit range")
    return _LADDER[k - 1]


def smallest_primorial_at_least(n: int) -> Primorial:
    """Least primorial >= n."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    i = bisect_left(_LADDER_VALUES, n)
    if i == len(_LADDER):
        raise PrimorialOverflowError(f"no 64-bit primorial reaches {n}")
    return _LADDER[i]


def largest_primorial_at_most(n: int) -> Primorial:
    """Greatest primorial <= n (47# for every n past it)."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    return _LADDER[bisect_right(_LADDER_VALUES, n) - 1]


@dataclass(frozen=True)
class SeedPrimeSet:
    """Core/non-core partition of a primorial's seed primes.

    Seed primes are all primes up to the largest prime <= sqrt(primorial);
    the core ones are the primorial's own factors.
    """

    primorial: Primorial
    core: tuple[int, ...]
    non_core: tuple[int, ...]

    @property
    def max_seed(self) -> int:
        return self.non_core[-1] if self.non_core else self.core[-1]

    @property
    def smallest_non_core(self) -> int | None:
        return self.non_core[0] if self.non_core else None

    @cached_property
    def all_seeds(self) -> tuple[int, ...]:
        return self.core + self.non_core


@lru_cache(maxsize=8)
def seed_prime_set(p: Primorial) -> SeedPrimeSet:
    """Partition the seed primes of a primorial into core and non-core.

    Memoised per primorial; a primorial below 30 raises on every call.
    """
    if p.value < 30:
        raise DomainError(f"seed prime partition needs primorial >= 30, got {p.value}")
    primes = primes_up_to(math.isqrt(p.value)).ordered_primes
    non_core = tuple(primes[np.searchsorted(primes, p.largest_factor, side="right"):].tolist())
    return SeedPrimeSet(p, p.prime_factors, non_core)


def max_seed_prime_for(n: int) -> int:
    """Largest prime <= sqrt of the smallest primorial >= n."""
    if n < 4:
        raise DomainError(f"need n >= 4, got {n}")
    return _max_seed_prime(smallest_primorial_at_least(n).value)


@lru_cache(maxsize=len(_LADDER))  # one entry per ladder primorial
def _max_seed_prime(primorial: int) -> int:
    return prev_prime(math.isqrt(primorial))
