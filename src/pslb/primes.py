"""Prime generation, primorials and the seed-prime partition.

The sieve stores one flag per odd integer and is built segment by segment;
segment boundaries never change the result, so any worker count produces
bit-identical tables.
"""
from __future__ import annotations

import math
import struct
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, PrimorialOverflowError

U64_MAX = 2**64 - 1

CACHE_MAGIC = b"PSLB"
CACHE_VERSION = 2
# magic, version byte, little-endian u64 limit; v2 then adds a u32 CRC-32 of
# the limit bytes and the bitset body
_CACHE_HEADER = {1: 13, 2: 17}

DEFAULT_SEGMENT = 1 << 20

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


def _simple_odd_sieve(limit: int) -> np.ndarray:
    """Boolean flags for odd integers 1,3,5,... up to limit."""
    size = (limit + 1) // 2
    flags = np.ones(size, dtype=bool)
    flags[0] = False  # 1 is not prime
    for p in range(3, math.isqrt(limit) + 1, 2):
        if flags[p // 2]:
            start = p * p
            flags[start // 2 :: p] = False
    return flags


def _mark_segment(flags: np.ndarray, lo_i: int, hi_i: int, odd_primes: np.ndarray) -> None:
    """Clear composite flags for odd values 2*lo_i+1 .. 2*(hi_i-1)+1."""
    lo_v = 2 * lo_i + 1
    hi_v = 2 * (hi_i - 1) + 1
    for p in odd_primes:
        p = int(p)
        start = max(p * p, ((lo_v + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        if start > hi_v:
            continue
        flags[start // 2 : hi_i : p] = False


def sieve_odd_flags(limit: int, segment_size: int = DEFAULT_SEGMENT, threads: int = 1) -> np.ndarray:
    """Odd-only prime flags up to limit, segment-partitioned.

    Segments are disjoint index ranges, so parallel marking is race-free and
    the output does not depend on segment size or thread count.
    """
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    root = math.isqrt(limit)
    if limit <= max(root, 3) ** 2 or limit <= segment_size * 2:
        return _simple_odd_sieve(limit)
    base = _simple_odd_sieve(root)
    odd_primes = 2 * np.flatnonzero(base) + 1
    size = (limit + 1) // 2
    flags = np.ones(size, dtype=bool)
    flags[0] = False
    base_size = (root + 1) // 2
    flags[:base_size] = base
    spans = [
        (lo, min(lo + segment_size, size))
        for lo in range(base_size, size, segment_size)
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda s: _mark_segment(flags, s[0], s[1], odd_primes), spans))
    else:
        for lo, hi in spans:
            _mark_segment(flags, lo, hi, odd_primes)
    return flags


class PrimeTable:
    """Queryable set of primes up to an inclusive limit."""

    def __init__(self, limit: int, segment_size: int = DEFAULT_SEGMENT, threads: int = 1,
                 _odd_flags: np.ndarray | None = None):
        if limit < 2:
            raise DomainError(f"PrimeTable limit must be >= 2, got {limit}")
        self.limit = limit
        if _odd_flags is None:
            _odd_flags = sieve_odd_flags(limit, segment_size=segment_size, threads=threads)
        self._odd = _odd_flags
        self._primes: np.ndarray | None = None

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
            odd = 2 * np.flatnonzero(self._odd) + 1
            self._primes = np.concatenate([[2], odd]) if self.limit >= 2 else odd
        return self._primes

    @property
    def prime_count(self) -> int:
        return len(self.ordered_primes)

    def odd_prime_mask(self) -> np.ndarray:
        """Read-only flag array over odd integers (index i holds 2i+1)."""
        return self._odd

    def prime_mask(self) -> np.ndarray:
        """Boolean mask indexed by integer value, 0..limit."""
        mask = np.zeros(self.limit + 1, dtype=bool)
        mask[self.ordered_primes] = True
        return mask

    def largest_prime_at_most(self, n: int) -> int:
        if n > self.limit:
            raise DomainError(f"{n} exceeds table limit {self.limit}")
        while n >= 2:
            if self.is_prime(n):
                return n
            n -= 1
        raise DomainError("no prime at or below 1")

    def smallest_prime_above(self, n: int) -> int:
        n += 1
        while n <= self.limit:
            if self.is_prime(n):
                return n
            n += 1
        raise DomainError(f"no prime above {n - 1} within table limit {self.limit}")

    # -- cache file ----------------------------------------------------------

    def save(self, path) -> None:
        limit = struct.pack("<Q", self.limit)
        body = np.packbits(self._odd).tobytes()
        with open(path, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(struct.pack("<B", CACHE_VERSION))
            fh.write(limit)
            fh.write(struct.pack("<I", zlib.crc32(body, zlib.crc32(limit))))
            fh.write(body)

    @classmethod
    def load(cls, path) -> "PrimeTable":
        """Read a v2 (checksummed) or v1 cache file; DomainError if it is corrupt."""
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < 5:
            raise DomainError(f"bad sieve cache: file is only {len(blob)} bytes")
        if blob[:4] != CACHE_MAGIC:
            raise DomainError("bad sieve cache: wrong magic bytes")
        version = blob[4]
        header = _CACHE_HEADER.get(version)
        if header is None:
            raise DomainError(f"bad sieve cache: unsupported version {version}")
        if len(blob) < header:
            raise DomainError(
                f"bad sieve cache: expected a {header}-byte header, found {len(blob)} bytes"
            )
        (limit,) = struct.unpack("<Q", blob[5:13])
        size = (limit + 1) // 2
        expected = (size + 7) // 8
        body = blob[header:]
        if len(body) != expected:
            raise DomainError(
                f"bad sieve cache: expected {expected} bitset bytes, found {len(body)}"
            )
        if version == 2:
            (stored,) = struct.unpack("<I", blob[13:17])
            if zlib.crc32(body, zlib.crc32(blob[5:13])) != stored:
                raise DomainError("bad sieve cache: checksum mismatch")
        flags = np.unpackbits(np.frombuffer(body, dtype=np.uint8))[:size].astype(bool)
        return cls(limit, _odd_flags=flags)


@lru_cache(maxsize=32)
def primes_up_to(limit: int, threads: int = 1) -> PrimeTable:
    """All primes up to limit (inclusive)."""
    return PrimeTable(limit, threads=threads)


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


def _consecutive_primes():
    p = 2
    while True:
        yield p
        p += 1
        while not is_prime(p):
            p += 1


def nth_primorial(k: int) -> Primorial:
    """Product of the first k primes; rejects values beyond 64 bits."""
    if k < 1:
        raise DomainError(f"primorial index must be >= 1, got {k}")
    value = 1
    factors = []
    gen = _consecutive_primes()
    for _ in range(k):
        p = next(gen)
        if value > U64_MAX // p:
            raise PrimorialOverflowError(
                f"primorial of {k} primes exceeds 64-bit range (factors so far: {factors})"
            )
        value *= p
        factors.append(p)
    return Primorial(value, tuple(factors))


def smallest_primorial_at_least(n: int) -> Primorial:
    """Least primorial >= n."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    value = 1
    factors = []
    gen = _consecutive_primes()
    while value < n:
        p = next(gen)
        if value > U64_MAX // p:
            raise PrimorialOverflowError(f"no 64-bit primorial reaches {n}")
        value *= p
        factors.append(p)
    if not factors:  # n == 1; smallest primorial is 2
        return nth_primorial(1)
    return Primorial(value, tuple(factors))


def largest_primorial_at_most(n: int) -> Primorial:
    """Greatest primorial <= n."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    best = nth_primorial(1)
    k = 2
    while True:
        try:
            cand = nth_primorial(k)
        except PrimorialOverflowError:
            return best
        if cand.value > n:
            return best
        best = cand
        k += 1


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

    @property
    def all_seeds(self) -> tuple[int, ...]:
        return self.core + self.non_core


def seed_prime_set(p: Primorial) -> SeedPrimeSet:
    """Partition the seed primes of a primorial into core and non-core."""
    if p.value < 30:
        raise DomainError(f"seed prime partition needs primorial >= 30, got {p.value}")
    primes = primes_up_to(math.isqrt(p.value)).ordered_primes
    non_core = tuple(primes[np.searchsorted(primes, p.largest_factor, side="right"):].tolist())
    return SeedPrimeSet(p, p.prime_factors, non_core)


def max_seed_prime_for(n: int) -> int:
    """Largest prime <= sqrt of the smallest primorial >= n."""
    if n < 4:
        raise DomainError(f"need n >= 4, got {n}")
    p = smallest_primorial_at_least(n)
    root = math.isqrt(p.value)
    return primes_up_to(root).largest_prime_at_most(root)
