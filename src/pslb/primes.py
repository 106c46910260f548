"""Prime generation, primorials and the seed-prime partition.

Every mask indexes the odd integers (index i holds 2i + 1), and every packed
flag array (a sieve window, a cache file's body, a byte pattern, a census
word) holds them 8 to a byte, most significant bit first. Every residue mask,
each byte pattern's period included, is one `seed_free_odd_mask` over
`residue_sieve`, the one strided class kernel; the prime flags are one
segmented sieve, `_prime_windows`, whose windows clear each seed from 211 up
from its square and then take the seeds 3 to 199 from cached byte patterns.
One module-level table serves every prime lookup: `primes_up_to`, `prev_prime`
and `next_prime` read its odd flags; it is re-sieved, at least doubled and at
most to the primality budget, only when a limit past its end is asked for.
Every table holds its odd flags packed as a cache file's body from birth,
sieved window by window straight into that form, read from a cache file or
sliced from the shared table's, and answers lookups, counts and saves from
them; its bool flags, one per odd integer, are only ever unpacked from them
or sliced from the shared table's, so no table packs its flags again. A
cache file is written by one chunked writer, `_write_cache`, and read by one
chunked reader, `_read_cache`: `pslb cache build` streams the sieve's
windows through the writer and `pslb cache verify` reads 1 MB at a time, so
neither holds the bitset. One ladder of the 64-bit primorials, built at
import by trial division, serves every primorial lookup.
"""
from __future__ import annotations

import math
import operator
import os
import stat
import struct
import zlib
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DEFAULT_PRIMALITY_BUDGET, _LIMITS, DomainError, PrimorialOverflowError, _as_int, _check_budget

U64_MAX = 2**64 - 1

CACHE_MAGIC = b"PSLB"
CACHE_VERSION = 2
# magic, version byte, little-endian u64 limit, then a u32 CRC-32 of the limit
# bytes and the bitset body
_CACHE_HEADER = struct.Struct("<4sBQI")  # 17 bytes
# bytes of body `pslb cache verify` reads at a time, into one reused buffer
_CACHE_CHUNK = 1 << 20


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test.

    Its divisors run to sqrt(n), so past the square of the primality budget
    (the trial-division reach) it raises BudgetError instead of running for hours.
    """
    n = _as_int(n, "n")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    if n > _LIMITS["trial-division reach"]:
        _check_budget("trial division of", n, "trial-division reach")
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


# Integers per residue-sieve window: 1 MB of flags, about one L2 cache, so each
# class's strided pass stays in cache instead of going out to main memory.
_WINDOW = 1 << 20
# The odd seeds 3 to 199 are removed from each packed window by ANDing in
# patterns, as primesieve's PreSieve does (K. Walisch): the seeds in greedy
# groups whose product, a pattern's period in bytes, is at most _PATTERN_BYTES
# (3 * 5 * 7 * 11 * 13, then 17 * 19 * 23, ...). Larger seeds clear strided
# slices: at 1e8, removing 211 to 359 as well saves about what the AND passes
# of their 13 pair patterns cost (8 ms), and past 359 a group holds one seed.
_PATTERN_PRIMES = tuple(filter(is_prime, range(3, 200)))
_PATTERN_BYTES = 1 << 17


def residue_sieve(lo: int, hi: int, forbidden: Mapping[int, Iterable[int]]) -> np.ndarray:
    """Mask over the integers lo..hi (inclusive) whose residue mod each q
    avoids every class in forbidden[q].

    Index i corresponds to the integer lo+i. Segmented as in Bays & Hudson,
    BIT 17 (1977), but by class: each forbidden class clears one strided
    slice per window of _WINDOW integers from its first member in it, so the
    cost is O((hi - lo) * sum(|R_q| / q)). A window past the primality
    budget raises BudgetError before anything is allocated; a modulus below
    1, or a modulus or class that is not an integer, raises DomainError.
    """
    size = max(hi - lo + 1, 0)
    if size > DEFAULT_PRIMALITY_BUDGET:
        _check_budget("residue window of integers", size, "primality budget")
    try:  # a modulus or class that is not an integer fails here, in an empty window too
        classes = []  # each class read once, so a one-shot iterable serves every window
        for q, residues in forbidden.items():
            if operator.index(q) < 1:
                raise DomainError(f"residue modulus must be >= 1, got {q}")
            classes.append((q, tuple(residues)))
        keep = np.ones(size, dtype=bool)
        for w in range(0, max(size, 1), _WINDOW):
            window = keep[w : w + _WINDOW]
            for q, residues in classes:
                for r in residues:
                    window[(r - lo - w) % q :: q] = False
    except TypeError:
        raise DomainError("residue moduli and classes must be integers") from None
    return keep


def seed_free_odd_mask(lo: int, hi: int, seeds: Iterable[int]) -> np.ndarray:
    """Mask over the odd integers 2i + 1, i in lo..hi (inclusive), that no
    seed divides: odd q divides 2i + 1 exactly when i = q // 2 (mod q), 2 never."""
    return residue_sieve(lo, hi, {q: (q // 2,) for q in seeds if q != 2})


def sieve_odd_flags(limit: int) -> np.ndarray:
    """Prime flags for the odd integers 1, 3, 5, ... up to limit (index i holds 2i+1)."""
    return np.unpackbits(_sieve_bits(limit), count=(limit + 1) // 2).view(bool)


def _prime_windows(limit: int):
    """Sieve the prime flags of the odd integers up to limit >= 1 one window
    at a time, and yield (lo, bits) as each is done: bits packs the flags of
    2i + 1 for i from lo 8 to a byte, most significant bit first, as a cache
    file's body does, with 0 in the padding bits after the last flag.

    A window starts all set; each prime q from 211 to sqrt(limit) clears its
    odd multiples from q*q on (Bays & Hudson), skipping windows below q*q.
    The window is then packed, each pattern of the seeds 3 to 199 is ANDed in
    from its byte (lo // 8) % P, each such seed up to limit is set back, and
    window 0 clears the flag of 1. A pattern seed past sqrt(limit) clears
    only composites and itself, so the same patterns serve every limit.
    Windows hold _WINDOW flags rounded up to whole bytes, so each packs alone.
    """
    root = math.isqrt(limit)
    if root >= _LIMITS["seed reach"]:  # the strided seeds stop below the reach
        _check_budget(f"sieve limit {limit}: seeds below", root + 1, "seed reach")
    patterns, seeds = _presieve()
    seeds = seeds[: np.searchsorted(seeds, root, side="right")]
    squares = seeds * seeds // 2  # the odd index of each q*q, ascending
    back = np.zeros(_PATTERN_PRIMES[-1] // 2 + 1, dtype=bool)
    back[[q // 2 for q in _PATTERN_PRIMES if q <= limit]] = True
    back = np.packbits(back)  # the pattern seeds to set back
    size = (limit + 1) // 2
    step = -(-_WINDOW // 8) * 8
    buffer = np.empty(min(step, size), dtype=bool)
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        window = buffer[: hi - lo]
        window.fill(True)
        window[0] = lo > 0  # the flag of 1, in window 0, is the one no seed clears
        live = seeds[: np.searchsorted(squares, hi)]  # each from q*q, or its first odd multiple past lo
        for q, at in zip(live.tolist(), np.maximum(squares[: live.size] - lo, (live // 2 - lo) % live).tolist()):
            window[at::q] = False
        bits = np.packbits(window)
        _and_patterns(bits, lo // 8, patterns)
        head = back[lo // 8 : lo // 8 + bits.size]
        bits[: head.size] |= head
        yield lo, bits


@lru_cache(maxsize=1)
def _presieve() -> tuple[tuple[tuple[int, np.ndarray], ...], np.ndarray]:
    """What every sieve starts from, read-only and built once per process:

    - (P, pattern) per greedy group of _PATTERN_PRIMES: P is the group's
      product and pattern two periods (2P bytes) of the odd integers free of
      the group, packed as the windows are;
    - the strided seeds: the primes from 211 below the seed reach, 211**2.
    """
    first = _PATTERN_PRIMES[-1] + 2  # 201, whose index is first // 2
    free = seed_free_odd_mask(first // 2, _LIMITS["seed reach"] // 2 - 1, _PATTERN_PRIMES)
    return _byte_patterns(_PATTERN_PRIMES), _read_only(2 * np.flatnonzero(free) + first)


@lru_cache(maxsize=2)
def _byte_patterns(seeds: tuple[int, ...]) -> tuple[tuple[int, np.ndarray], ...]:
    """(P, pattern) per greedy group of the odd seeds whose product P is at
    most _PATTERN_BYTES: the flags of the odd integers free of the group
    repeat every P bytes, and pattern holds two periods (2P bytes, read-only)
    of them packed as the sieve's windows are."""
    groups = [[]]
    for q in seeds:
        if q == 2:
            continue
        if math.prod(groups[-1]) * q > _PATTERN_BYTES:
            groups.append([])
        groups[-1].append(q)
    patterns = []
    for group in filter(None, groups):
        period = math.prod(group)
        keep = seed_free_odd_mask(0, 8 * period - 1, group)  # 8P flags, a period of P bytes
        patterns.append((period, _read_only(np.tile(np.packbits(keep), 2))))
    return tuple(patterns)


def _and_patterns(bits: np.ndarray, at: int, patterns) -> None:
    """AND each (P, pattern) of _byte_patterns into the packed flags bits,
    whose first byte is byte `at` of the odd integers: one pass of rows of
    P bytes, from the pattern's byte at % P."""
    for period, pattern in patterns:
        phase, n = pattern[at % period :], bits.size // period * period
        rows = bits[:n].reshape(-1, period)  # a view of bits, ANDed in place
        rows &= phase[:period]
        bits[n:] &= phase[: bits.size - n]


def _sieve_limit(limit) -> int:
    """limit as an int; DomainError below 2, BudgetError past the primality budget."""
    limit = _as_int(limit, "sieve limit")
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    _check_budget("sieve limit", limit, "primality budget")
    return limit


def _sieve_bits(limit: int) -> np.ndarray:
    """The odd flags up to limit packed as a cache file's body: each window
    of _prime_windows copied straight in. The limit is checked first."""
    limit = _sieve_limit(limit)
    bits = np.empty(((limit + 1) // 2 + 7) // 8, dtype=np.uint8)
    for lo, window in _prime_windows(limit):
        bits[lo // 8 : lo // 8 + window.size] = window
    return bits


def _popcount(bits: np.ndarray) -> int:
    """The bits set in a byte array: np.bitwise_count over its 64-bit words
    64 KB at a time (each block's count summed as uint32, so no cast buffer
    of uint64), then over its tail bytes."""
    words, step = bits[: bits.size // 8 * 8].view(np.uint64), 1 << 13  # any alignment will do
    return int(np.bitwise_count(bits[words.size * 8 :]).sum()) + sum(
        int(np.bitwise_count(words[i : i + step]).sum(dtype=np.uint32)) for i in range(0, words.size, step))


# -- cache file ----------------------------------------------------------------


def _open_seekable(path):
    """path opened to write a cache file. DomainError if it cannot seek back
    to its checksum, as a pipe or a FIFO cannot; a FIFO is refused before it
    is opened, since opening one for writing waits for a reader."""
    try:
        fifo = stat.S_ISFIFO(os.stat(path).st_mode)
    except OSError:  # no such file yet; open reports any other fault
        fifo = False
    if not fifo:
        fh = open(path, "wb")
        if fh.seekable():
            return fh
        fh.close()
    raise DomainError(f"sieve cache output must be a file that can seek, got {path}")


def _write_cache(path, limit: int, chunks: Iterable[np.ndarray]) -> int:
    """Write the cache file of limit whose body is the packed byte arrays
    chunks, in order, and return its prime count (2 and the bits set).

    The header goes first with a placeholder checksum, each chunk is written,
    checksummed and counted as it comes, and the checksum is written last,
    over the placeholder. So the output is opened, and refused if it cannot
    seek, before any chunk is asked for, and a write cut short leaves a file
    that `_read_cache` refuses: its body is short or its checksum wrong.
    """
    with _open_seekable(path) as fh:
        fh.write(_CACHE_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, limit, 0))
        crc, count = zlib.crc32(struct.pack("<Q", limit)), 1
        for chunk in chunks:
            fh.write(chunk)
            crc, count = zlib.crc32(chunk, crc), count + _popcount(chunk)
        fh.seek(_CACHE_HEADER.size - 4)
        fh.write(struct.pack("<I", crc))
    return count


def _read_cache(path, chunk: int | None = None) -> tuple[int, np.ndarray, int | None]:
    """Read a cache file: (limit, buffer, prime count); DomainError if it is
    corrupt or of another version.

    The header is checked before the body is read, so no limit past the
    primality budget is read. The body is read into one buffer and each
    piece checksummed as it is read: with chunk, a buffer of chunk bytes
    reused from piece to piece, each piece's bits counted before the next
    overwrites it; without, the whole body, which the caller keeps and counts
    only if asked, so the count is None. The body's length, a byte past it,
    its checksum and its padding bits are checked here alone.
    """
    with open(path, "rb") as fh:
        head = fh.read(_CACHE_HEADER.size)
        if head[:4] != CACHE_MAGIC:
            raise DomainError("bad sieve cache: wrong magic bytes")
        if len(head) < _CACHE_HEADER.size:
            raise DomainError(f"bad sieve cache: file is only {len(head)} bytes, "
                              f"shorter than its {_CACHE_HEADER.size}-byte header")
        _, version, limit, stored = _CACHE_HEADER.unpack(head)
        if version != CACHE_VERSION:
            # version 1 had no checksum, so a corrupt v1 body cannot be told apart
            raise DomainError(f"bad sieve cache: unsupported version {version} "
                              f"(rebuild it with `pslb cache build`)")
        if not 2 <= limit <= DEFAULT_PRIMALITY_BUDGET:
            raise DomainError(f"bad sieve cache: limit {limit} is below 2 or past the "
                              f"primality budget {DEFAULT_PRIMALITY_BUDGET}")
        size = ((limit + 1) // 2 + 7) // 8
        buffer = np.empty(size if chunk is None else min(size, chunk), dtype=np.uint8)
        crc, count, found = zlib.crc32(head[5:13]), 1, 0
        while found < size:
            piece = buffer[: fh.readinto(buffer[: size - found])]
            if not piece.size:
                break
            crc, found = zlib.crc32(piece, crc), found + piece.size
            if chunk is not None:
                count += _popcount(piece)
        if found != size or fh.read(1):
            raise DomainError(f"bad sieve cache: expected {size} bitset bytes, found "
                              f"{found if found < size else 'more'}")
    if crc != stored:
        raise DomainError("bad sieve cache: checksum mismatch")
    pad = -((limit + 1) // 2) % 8  # the bits of the last byte past the last flag
    if piece[-1] & ((1 << pad) - 1):
        raise DomainError("bad sieve cache: padding bits set after the last flag")
    return limit, buffer, None if chunk is None else count


def _build_cache(path, limit) -> int:
    """`pslb cache build`: write the cache file of limit straight from the
    windows of `_prime_windows`, each as it is sieved, so no bitset is held;
    its prime count. The limit is checked before path is opened."""
    limit = _sieve_limit(limit)
    return _write_cache(path, limit, (bits for _, bits in _prime_windows(limit)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _table_limit(limit) -> int:
    """limit as an int; DomainError unless it is an integer >= 2."""
    limit = _as_int(limit, "PrimeTable limit")
    if limit < 2:
        raise DomainError(f"PrimeTable limit must be >= 2, got {limit}")
    return limit


class PrimeTable:
    """Queryable set of primes up to an inclusive limit; its arrays are read-only.

    A table holds its odd flags packed 8 to a byte, as a cache file keeps
    them, from birth: `PrimeTable(limit)` and `packed` sieve them, `load`
    reads them, and a `primes_up_to` view is a slice of the shared table's.
    `is_prime`, `prime_count` and `save` read them. The bool flags, one per
    odd integer, are only ever unpacked from them: at birth by
    `PrimeTable(limit)`, on first use by `packed` and `load`, and a view
    slices the shared table's. `odd_prime_mask`, `prime_mask` and
    `ordered_primes` read those.
    """

    def __init__(self, limit: int, _bits: np.ndarray | None = None):
        self.limit = _table_limit(limit)
        self._bits = _read_only(_sieve_bits(self.limit) if _bits is None else _bits)
        self._primes: np.ndarray | None = None
        if _bits is None:
            self.odd_prime_mask()  # a sieved table unpacks its bool flags at birth

    @cached_property
    def _odd(self) -> np.ndarray:
        """The bool form: one flag per odd integer, index i holds 2i + 1."""
        return _read_only(np.unpackbits(self._bits, count=(self.limit + 1) // 2).view(bool))

    @cached_property
    def _bytes(self) -> memoryview:
        return memoryview(self._bits)  # indexed, a Python int; no NumPy scalar

    def _last_byte(self) -> int:
        """The last byte of the packed flags with the bits past the limit
        cleared: in a view it may hold the shared table's next flags."""
        pad = -((self.limit + 1) // 2) % 8
        return self._bytes[-1] >> pad << pad

    def is_prime(self, n: int) -> bool:
        n = _as_int(n, "n")
        if n < 2 or n > self.limit:
            return False
        if n % 2 == 0:
            return n == 2
        i = n // 2
        return bool(self._bytes[i >> 3] >> (7 - (i & 7)) & 1)

    def __contains__(self, n: int) -> bool:
        return self.is_prime(n)

    @property
    def ordered_primes(self) -> np.ndarray:
        if self._primes is None:
            self._primes = _read_only(np.concatenate([[2], 2 * np.flatnonzero(self._odd) + 1]))
        return self._primes

    @property
    def prime_count(self) -> int:
        """pi(limit): 2, the bits set before the last byte and those of the
        last byte up to the limit."""
        return 1 + _popcount(self._bits[:-1]) + self._last_byte().bit_count()

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

    @classmethod
    def packed(cls, limit: int) -> "PrimeTable":
        """The table up to limit: each packed window of `_prime_windows`, its
        seeds up to 199 ANDed in as byte patterns, is copied straight into the
        bitset a cache file keeps; no bool flag array is ever built."""
        return cls(limit, _bits=_sieve_bits(limit))

    # -- cache file ----------------------------------------------------------

    def save(self, path) -> None:
        """Write the table as a cache file: its packed bits, with those of
        the last byte past the limit cleared, no copy."""
        _write_cache(path, self.limit, (self._bits[:-1], np.array([self._last_byte()], dtype=np.uint8)))

    @classmethod
    def load(cls, path) -> "PrimeTable":
        """Read a cache file; DomainError if it is corrupt or of another version.

        `_read_cache` reads the body into one buffer, after checking the
        header, and the table keeps that buffer as its bitset: the flags are
        unpacked only if asked for.
        """
        limit, body, _ = _read_cache(path)
        return cls(limit, _bits=body)


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


@lru_cache(maxsize=32, typed=True)  # typed: a float limit is refused, not a hit
def primes_up_to(limit: int) -> PrimeTable:
    """All primes up to limit (inclusive): a view whose packed and bool flags
    are read-only slices of the shared table's, no copy, and whose prime
    array, if asked for, is built from its own flags alone."""
    limit = _table_limit(limit)
    table, size = _shared_table(limit), (limit + 1) // 2
    view = PrimeTable(limit, _bits=table._bits[: (size + 7) // 8])
    view._odd = table.odd_prime_mask()[:size]
    return view


def prev_prime(n: int) -> int:
    """Largest prime <= n, read off the shared table's odd flags down from n."""
    n = _as_int(n, "n")
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
    2n (by Bertrand's postulate a prime lies in (n, 2n]). If 2n is past the
    primality budget, (n, budget] is scanned by `is_prime` instead, which
    stops at the first prime, one prime gap on; if it holds none, the sieve
    limit 2n is refused, with nothing sieved.
    """
    n = _as_int(n, "n")
    if n < 2:
        return 2
    for limit in (2, 2 * n):
        if limit > DEFAULT_PRIMALITY_BUDGET:
            found = next(filter(is_prime, range(n + 1, DEFAULT_PRIMALITY_BUDGET + 1)), None)
            if found is None:
                _check_budget("sieve limit", limit, "primality budget")
            return found
        flags = _shared_table(limit).odd_prime_mask()
        i = (n + 1) // 2  # the least odd integer > n
        while i < len(flags) and not flags[i]:
            i += 1
        if i < len(flags):
            return 2 * i + 1


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


def _as_primorial(p, name: str) -> Primorial:
    """p itself if it is one of the ladder's primorials (nth_primorial's);
    DomainError naming the argument otherwise, a hand-built Primorial
    whose value or factors are not a primorial's included."""
    if not (isinstance(p, Primorial) and 0 < p.k <= len(_LADDER) and _LADDER[p.k - 1] == p):
        raise DomainError(f"{name} must be a Primorial from nth_primorial, got {p!r}")
    return p


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
    k = _as_int(k, "primorial index")
    if k < 1:
        raise DomainError(f"primorial index must be >= 1, got {k}")
    if k > len(_LADDER):
        raise PrimorialOverflowError(f"primorial of {k} primes exceeds 64-bit range")
    return _LADDER[k - 1]


def smallest_primorial_at_least(n: int) -> Primorial:
    """Least primorial >= n."""
    n = _as_int(n, "n")
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    i = bisect_left(_LADDER_VALUES, n)
    if i == len(_LADDER):
        raise PrimorialOverflowError(f"no 64-bit primorial reaches {n}")
    return _LADDER[i]


def largest_primorial_at_most(n: int) -> Primorial:
    """Greatest primorial <= n (47# for every n past it)."""
    n = _as_int(n, "n")
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


def _as_seed_set(sps, name: str) -> SeedPrimeSet:
    """The seed_prime_set of sps's own ladder primorial if sps is it or equals
    it (a copy); DomainError naming the argument otherwise, a hand-built
    SeedPrimeSet whose fields are not a seed set's included."""
    if isinstance(sps, SeedPrimeSet):
        try:
            own = seed_prime_set(_as_primorial(sps.primorial, name))
            if sps is own or sps == own:
                return own
        except ValueError:  # a DomainError, or an array field compared elementwise
            pass
    raise DomainError(f"{name} must be a SeedPrimeSet from seed_prime_set, got {sps!r}")


@lru_cache(maxsize=8)
def seed_prime_set(p: Primorial) -> SeedPrimeSet:
    """Partition the seed primes of a primorial into core and non-core.

    Memoised per primorial; a primorial below 30 raises on every call.
    """
    p = _as_primorial(p, "p")
    if p.value < 30:
        raise DomainError(f"seed prime partition needs primorial >= 30, got {p.value}")
    odd = 2 * np.flatnonzero(primes_up_to(math.isqrt(p.value)).odd_prime_mask()) + 1
    non_core = tuple(odd[odd > p.largest_factor].tolist())
    return SeedPrimeSet(p, p.prime_factors, non_core)


def max_seed_prime_for(n: int) -> int:
    """Largest prime <= sqrt of the smallest primorial >= n."""
    n = _as_int(n, "n")
    if n < 4:
        raise DomainError(f"need n >= 4, got {n}")
    return _max_seed_prime(smallest_primorial_at_least(n).value)


@lru_cache(maxsize=len(_LADDER))  # one entry per ladder primorial
def _max_seed_prime(primorial: int) -> int:
    return prev_prime(math.isqrt(primorial))
