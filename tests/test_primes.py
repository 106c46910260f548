"""Sieve, primorial and seed-partition tests against brute-force oracles."""
import gc
import hashlib
import math
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
import zlib
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslb import cli, primes
from pslb.errors import BudgetError, DomainError, PrimorialOverflowError
from pslb.primes import (
    PrimeTable,
    is_prime,
    largest_primorial_at_most,
    max_seed_prime_for,
    next_prime,
    nth_primorial,
    prev_prime,
    primes_up_to,
    seed_prime_set,
    sieve_odd_flags,
    smallest_primorial_at_least,
)


def brute_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, n))


def test_trial_division_matches_brute_force():
    for n in range(500):
        assert is_prime(n) == brute_is_prime(n), n


def test_trial_division_past_the_squared_budget_raises_at_once():
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        is_prime(10**16 + 1)
    assert time.perf_counter() - start < 0.1
    assert is_prime(10**16) is False


def test_sieve_matches_trial_division_to_1e5():
    table = primes_up_to(100_000)
    for n in list(range(2, 2000)) + [99989, 99991, 100_000]:
        assert table.is_prime(n) == is_prime(n), n


def plain_odd_flags(limit: int) -> np.ndarray:
    """Reference sieve: one strided pass per odd seed over the whole flag array."""
    flags = np.ones((limit + 1) // 2, dtype=bool)
    flags[0] = False
    for p in range(3, math.isqrt(limit) + 1, 2):
        if flags[p // 2]:
            flags[p * p // 2 :: p] = False
    return flags


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_windowed_sieve_matches_plain_sieve(data):
    # small windows put window edges inside a seed's stride and a seed's
    # square in a later window; the limit keeps the window count below 1024
    window = data.draw(st.integers(8, 4096), label="window")
    limit = data.draw(st.integers(2, min(300_000, 2048 * window)), label="limit")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "_WINDOW", window)
        assert np.array_equal(sieve_odd_flags(limit), plain_odd_flags(limit))


@pytest.mark.parametrize("window", [8, 9, 64, primes._WINDOW])
@pytest.mark.parametrize("edge", [-1, 0, 1])
def test_windowed_sieve_at_window_edges(window, edge):
    limit = 2 * window + edge  # the flag array holds window or window + 1 odd integers
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "_WINDOW", window)
        assert np.array_equal(sieve_odd_flags(limit), plain_odd_flags(limit))


def test_seed_squares_at_window_edges():
    # with 8-flag windows, 7*7 (index 24) and 17*17 (index 144) are the first
    # flags of windows 3 and 18; an odd square's index is 0 mod 4, so a square
    # is a window's last flag only when the limit cuts the window there
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "_WINDOW", 8)
        for q in (7, 17):
            assert q * q // 2 % 8 == 0
            for limit in (q * q - 2, q * q, q * q + 2, q * q + 14, q * q + 16):
                assert np.array_equal(sieve_odd_flags(limit), plain_odd_flags(limit)), (q, limit)


@pytest.mark.parametrize("window", [8, 9, 64, primes._WINDOW])
def test_sieve_at_seed_squares(window):
    # q joins the seeds at limit q*q, whose flag it then clears and no other
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "_WINDOW", window)
        for q in (3, 5, 7, 11, 13, 17, 31, 97):
            for limit in (q * q - 2, q * q, q * q + 2):
                flags = sieve_odd_flags(limit)
                assert np.array_equal(flags, plain_odd_flags(limit)), (q, limit)
                assert flags[q // 2] and (limit < q * q or not flags[q * q // 2])


def test_sieve_flags_to_1e7_are_pinned():
    digest = hashlib.sha256(np.packbits(sieve_odd_flags(10**7))).hexdigest()
    assert digest == "071f8b5771d0115b6c2a6920371be47db9ec5135eff45243db5ebc8a8f66926b"


def test_prime_counts():
    assert primes_up_to(100).prime_count == 25
    assert primes_up_to(2310).ordered_primes[0] == 2
    assert primes_up_to(30030).prime_count == 3248


def test_neighbor_queries():
    assert prev_prime(14) == 13
    assert next_prime(13) == 17
    assert prev_prime(2) == 2
    assert next_prime(1) == next_prime(-5) == 2
    assert next_prime(99) == 101
    with pytest.raises(DomainError):
        prev_prime(1)


@contextmanager
def empty_shared_table():
    """Run with the shared table unbuilt, as in a fresh process."""
    saved = primes._table
    primes._table = None
    primes_up_to.cache_clear()
    try:
        yield
    finally:
        primes._table = saved
        primes_up_to.cache_clear()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2, 300_000), min_size=1, max_size=8))
def test_shared_table_views_equal_fresh_tables(limits):
    with empty_shared_table():  # grow the shared table in the drawn order
        for limit in limits:
            view, fresh = primes_up_to(limit), PrimeTable(limit)
            assert view.limit == fresh.limit and view.prime_count == fresh.prime_count
            assert np.array_equal(view.ordered_primes, fresh.ordered_primes)
            assert np.array_equal(view.prime_mask(), fresh.prime_mask())
            for n in (limit, limit + 1):
                assert view.is_prime(n) == fresh.is_prime(n)
            with pytest.raises(ValueError):
                view.ordered_primes[0] = 4
            with pytest.raises(ValueError):
                view.odd_prime_mask()[0] = True


def test_growth_frees_the_replaced_table():
    with empty_shared_table():
        primes_up_to(1000).ordered_primes  # cache a view cut from the first table
        old = primes._table
        refs = [weakref.ref(x) for x in (old, old.odd_prime_mask(), old.ordered_primes)]
        del old
        primes_up_to(primes._table.limit + 1)
        gc.collect()
        assert [ref() for ref in refs] == [None] * 3


def scatter_prime_mask(table):
    """Reference value mask: the ordered primes scattered into zeros."""
    mask = np.zeros(table.limit + 1, dtype=bool)
    mask[table.ordered_primes] = True
    return mask


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 300_000))
def test_prime_mask_matches_ordered_primes_scatter(tmp_path_factory, limit):
    path = tmp_path_factory.mktemp("mask") / "p.sieve"
    PrimeTable(limit).save(path)
    for table in (PrimeTable(limit), primes_up_to(limit), PrimeTable.load(path)):
        mask = table.prime_mask()
        assert mask.dtype == bool and mask.flags.writeable
        assert np.array_equal(mask, scatter_prime_mask(table))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 300_000))
def test_prime_count_matches_ordered_primes(limit):
    fresh = PrimeTable(limit)
    count = fresh.prime_count
    assert fresh._primes is None  # counted off the flags
    assert count == len(fresh.ordered_primes) == fresh.prime_count
    view = primes_up_to(limit)
    assert view.prime_count == len(view.ordered_primes) == count


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 300_000))
def test_prime_count_of_a_loaded_table(tmp_path_factory, limit):
    path = tmp_path_factory.mktemp("count") / "p.sieve"
    PrimeTable(limit).save(path)
    loaded = PrimeTable.load(path)
    assert loaded.prime_count == len(loaded.ordered_primes) == len(PrimeTable(limit).ordered_primes)


def test_prime_count_at_budget_builds_no_prime_array():
    table = PrimeTable(100_000_000)
    assert table.prime_count == 5_761_455
    assert table._primes is None


def check_neighbors(n):
    above, below = next_prime(n), prev_prime(n)  # next_prime first: it may grow the table
    assert below <= n < above and is_prime(below) and is_prime(above)
    assert not any(is_prime(m) for m in range(below + 1, above) if m != n)
    assert is_prime(n) == (below == n)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 3_000_000))
def test_prev_and_next_prime_match_trial_division(n):
    check_neighbors(n)


def test_prev_and_next_prime_at_shared_table_limit():
    primes_up_to(1000)  # the shared table exists
    limit = primes._table.limit
    for n in (limit - 1, limit, limit + 1):
        check_neighbors(n)
    assert primes._table.limit > limit  # next_prime(limit) grew the table


@pytest.mark.parametrize("n, expected", [
    (65_535, 65_537), (65_536, 65_537), (100_000, 100_003), (1_000_000, 1_000_003),
])
def test_next_prime_past_a_fresh_table(n, expected):
    with empty_shared_table():  # the first table ends at 65,536
        assert next_prime(n) == expected


def test_neighbor_queries_read_the_flags_without_a_prime_array():
    with empty_shared_table():
        primes_up_to(10**7)  # its prime array alone would take 5.3 MB
        assert traced_peak(lambda: prev_prime(14936)) < 2**20
        assert traced_peak(lambda: next_prime(14936)) < 2**20
        assert (prev_prime(14936), next_prime(14936)) == (14929, 14939)
        assert primes._table._primes is None


def test_nth_primorial_values():
    values = [2, 6, 30, 210, 2310, 30030, 510510, 9699690]
    for k, v in enumerate(values, start=1):
        assert nth_primorial(k).value == v
    assert nth_primorial(6).largest_factor == 13
    assert str(nth_primorial(6)) == "13#"


def test_primorial_overflow_guard():
    # the first 15 primes multiply to ~6.1e17, the 16th pushes past 2^64
    nth_primorial(15)
    with pytest.raises(PrimorialOverflowError):
        nth_primorial(16)


def test_primorial_brackets():
    assert smallest_primorial_at_least(68).value == 210
    assert smallest_primorial_at_least(210).value == 210
    assert smallest_primorial_at_least(211).value == 2310
    assert largest_primorial_at_most(250_000).value == 30030
    with pytest.raises(DomainError):
        smallest_primorial_at_least(0)


def brute_primorials():
    """(value, factors) for each primorial by a plain product loop, up to 53#,
    the first one past 64 bits."""
    out, value, factors, p = [], 1, (), 1
    while value <= 2**64 - 1:
        p += 1
        if brute_is_prime(p):
            value *= p
            factors += (p,)
            out.append((value, factors))
    return out


BRUTE_PRIMORIALS = [vf for vf in brute_primorials() if vf[0] <= 2**64 - 1]


def outcome(lookup, x):
    """(value, factors) of a lookup's primorial, or the type of its exception."""
    try:
        prim = lookup(x)
    except (DomainError, PrimorialOverflowError) as exc:
        return type(exc)
    return prim.value, prim.prime_factors


def brute_nth(k):
    if k < 1:
        return DomainError
    return BRUTE_PRIMORIALS[k - 1] if k <= len(BRUTE_PRIMORIALS) else PrimorialOverflowError


def brute_smallest(n):
    if n < 1:
        return DomainError
    return next((vf for vf in BRUTE_PRIMORIALS if vf[0] >= n), PrimorialOverflowError)


def brute_largest(n):
    if n < 2:
        return DomainError
    return [vf for vf in BRUTE_PRIMORIALS if vf[0] <= n][-1]


def check_ladder(n):
    assert outcome(smallest_primorial_at_least, n) == brute_smallest(n), n
    assert outcome(largest_primorial_at_most, n) == brute_largest(n), n


def test_ladder_holds_the_64_bit_primorials():
    assert BRUTE_PRIMORIALS[-1][1][-1] == 47  # 47# is the last 64-bit primorial
    for k in range(-2, 20):
        assert outcome(nth_primorial, k) == brute_nth(k), k


@pytest.mark.parametrize("n", sorted(
    {v + d for v, _ in BRUTE_PRIMORIALS for d in (-1, 0, 1)} | {-2, 2**64 - 1, 2**64, 2**70}))
def test_ladder_lookups_at_each_primorial(n):
    check_ladder(n)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(min_value=-2, max_value=2**64 + 10),
                 st.integers(min_value=-2, max_value=10**6)))
def test_ladder_lookups_match_brute_product_loop(n):
    check_ladder(n)


def test_import_builds_no_prime_table():
    src = os.path.dirname(os.path.dirname(primes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import pslb; assert pslb.primes._table is None, pslb.primes._table.limit"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_seed_prime_partition():
    sps = seed_prime_set(nth_primorial(4))  # 210
    assert sps.core == (2, 3, 5, 7)
    assert sps.non_core == (11, 13)
    assert sps.max_seed == 13
    assert sps.smallest_non_core == 11
    sps = seed_prime_set(nth_primorial(5))  # 2310
    assert sps.non_core == (13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    with pytest.raises(DomainError):
        seed_prime_set(nth_primorial(2))


def test_seed_prime_set_is_memoised_and_errors_are_not():
    p = nth_primorial(8)
    assert seed_prime_set(p) is seed_prime_set(nth_primorial(8))
    sps = seed_prime_set(p)
    assert sps.all_seeds is sps.all_seeds == sps.core + sps.non_core
    for _ in range(2):
        with pytest.raises(DomainError):
            seed_prime_set(nth_primorial(2))
        with pytest.raises(BudgetError):
            seed_prime_set(nth_primorial(14))


@pytest.mark.parametrize("k", range(3, 10))  # 5# ... 23#
def test_seed_prime_sets_match_trial_division(k):
    p = nth_primorial(k)
    sps = seed_prime_set(p)
    assert sps.core == p.prime_factors
    assert sps.non_core == tuple(
        q for q in range(p.largest_factor + 1, math.isqrt(p.value) + 1) if is_prime(q))


def test_seed_prime_set_reads_the_flags_without_a_prime_array():
    with empty_shared_table():
        primes_up_to(10**7)  # its prime array alone would take 5.3 MB
        seed_prime_set.cache_clear()
        assert traced_peak(lambda: seed_prime_set(nth_primorial(9))) < 2**20
        assert len(seed_prime_set(nth_primorial(9)).non_core) == 1739
        assert primes._table._primes is None


def test_max_seed_prime_for():
    assert max_seed_prime_for(68) == 13
    assert max_seed_prime_for(2310) == 47
    assert max_seed_prime_for(30030) == 173


def test_max_seed_prime_for_each_side_of_a_primorial():
    # memoised per ladder primorial, so both sides of each edge are checked
    for n in (4, 6, 7, 30, 31, 210, 211, 2310, 2311, 30030, 30031, 510510, 510511):
        assert max_seed_prime_for(n) == prev_prime(math.isqrt(smallest_primorial_at_least(n).value)), n


def test_sieve_budget():
    with pytest.raises(BudgetError):
        sieve_odd_flags(100_000_001)
    with pytest.raises(BudgetError):
        primes_up_to(100_000_001)
    with pytest.raises(BudgetError):
        prev_prime(100_000_001)
    with pytest.raises(BudgetError):
        next_prime(100_000_000)


@pytest.mark.parametrize("seeds_of", [
    lambda: seed_prime_set(nth_primorial(14)),  # sqrt(43#) ~ 1.14e8
    lambda: seed_prime_set(smallest_primorial_at_least(10**17)),  # 47#
    lambda: max_seed_prime_for(10**17),
], ids=["seeds_of_43#", "seeds_of_47#", "max_seed_of_1e17"])
def test_seed_primes_over_budget(seeds_of):
    with pytest.raises(BudgetError):
        seeds_of()


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=4, max_value=500_000))
def test_smallest_primorial_bound_property(n):
    prim = smallest_primorial_at_least(n)
    assert prim.value >= n
    k = prim.k
    if k > 1:
        assert nth_primorial(k - 1).value < n


def test_cache_round_trip(tmp_path):
    path = tmp_path / "p.sieve"
    table = PrimeTable(12345)
    table.save(path)
    loaded = PrimeTable.load(path)
    assert loaded.limit == 12345
    assert np.array_equal(loaded.odd_prime_mask(), table.odd_prime_mask())


@pytest.mark.parametrize("limit", (2, 3, 17, 100_001))  # odd counts 1, 2, 9, 50001
def test_cache_round_trip_with_a_partial_last_byte(tmp_path, limit):
    path = tmp_path / "p.sieve"
    table = PrimeTable(limit)
    table.save(path)
    loaded = PrimeTable.load(path)
    assert loaded.limit == limit
    flags = loaded.odd_prime_mask()
    assert flags.dtype == bool and flags.view(np.uint8).max() == (limit > 2)
    assert np.array_equal(flags, table.odd_prime_mask())
    assert np.array_equal(loaded.ordered_primes, table.ordered_primes)
    with pytest.raises(ValueError):
        flags[0] = True
    with pytest.raises(ValueError):
        loaded.ordered_primes[0] = 4
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 1  # the last bit of the bitset, a padding bit when the count is not a multiple of 8
    path.write_bytes(bytes(blob))
    with pytest.raises(DomainError):
        PrimeTable.load(path)


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cache_load_makes_no_copy_of_the_flags(tmp_path):
    path = tmp_path / "p.sieve"
    PrimeTable(10_000_000).save(path)
    assert traced_peak(lambda: PrimeTable.load(path)) <= 1.5 * 5_000_000


def test_prime_mask_builds_no_prime_array():
    table = PrimeTable(10_000_000)
    assert traced_peak(table.prime_mask) <= 1.2 * (table.limit + 1)
    assert table._primes is None


def test_views_build_their_primes_from_their_own_flags():
    with empty_shared_table():
        view = primes_up_to(1000)
        view.prime_mask(), view.prime_count
        assert view._primes is None
        assert np.array_equal(view.ordered_primes, PrimeTable(1000).ordered_primes)
        with pytest.raises(ValueError):
            view.ordered_primes[0] = 4
        assert primes._table._primes is None


def test_cache_header_layout(tmp_path):
    path = tmp_path / "p.sieve"
    PrimeTable(1000).save(path)
    blob = path.read_bytes()
    assert blob[:4] == b"PSLB"
    assert blob[4] == 2
    assert int.from_bytes(blob[5:13], "little") == 1000
    assert int.from_bytes(blob[13:17], "little") == zlib.crc32(blob[17:], zlib.crc32(blob[5:13]))
    assert len(blob) == 17 + 63


def test_cache_refuses_v1(tmp_path):
    # v1 was the same header without the checksum field, so a corrupt body
    # went unseen: with every bit of file byte 20 flipped it read as 172
    # primes below 1000 instead of 168
    body = bytearray(np.packbits(PrimeTable(1000).odd_prime_mask()).tobytes())
    body[20 - 13] ^= 0xFF
    path = tmp_path / "p.sieve"
    path.write_bytes(b"PSLB" + bytes([1]) + (1000).to_bytes(8, "little") + bytes(body))
    with pytest.raises(DomainError, match="rebuild"):
        PrimeTable.load(path)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cache_single_byte_flip_detected(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("flip") / "p.sieve"
    PrimeTable(1000).save(path)
    blob = bytearray(path.read_bytes())
    pos = data.draw(st.integers(5, len(blob) - 1), label="byte")
    blob[pos] ^= data.draw(st.integers(1, 255), label="xor")
    path.write_bytes(bytes(blob))
    with pytest.raises(DomainError):
        PrimeTable.load(path)


@pytest.mark.parametrize("mutate", [
    lambda b: b"XXXX" + b[4:],                 # bad magic
    lambda b: b[:4] + bytes([9]) + b[5:],      # bad version
    lambda b: b[:-1],                          # truncated bitset
    lambda b: b + b"\x00",                     # trailing bytes
])
def test_cache_corruption_detected(tmp_path, mutate):
    path = tmp_path / "p.sieve"
    PrimeTable(1000).save(path)
    path.write_bytes(mutate(path.read_bytes()))
    with pytest.raises(DomainError):
        PrimeTable.load(path)


@pytest.mark.parametrize("window", [8, 9, 12, 64])
def test_packed_build_equals_the_packed_sieve(window):
    # a window that is not a multiple of 8 must still pack on byte boundaries
    limits = (2, 3, 17, 2 * window - 1, 2 * window + 1, 100_001)
    expected = [np.packbits(sieve_odd_flags(limit)) for limit in limits]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "_WINDOW", window)
        for limit, bits in zip(limits, expected):
            table = PrimeTable.packed(limit)
            assert table.limit == limit
            assert np.array_equal(table._bitset(), bits), limit
            assert "_odd" not in vars(table)  # never unpacked


def check_every_sieve_against_plain(limit, path):
    """sieve_odd_flags, PrimeTable.packed and that table saved and loaded all
    equal the plain sieve at limit; the padding bits of the last byte are 0."""
    flags = plain_odd_flags(limit)
    assert np.array_equal(sieve_odd_flags(limit), flags), limit
    table = PrimeTable.packed(limit)
    assert np.array_equal(table._bitset(), np.packbits(flags)), limit
    table.save(path)  # load refuses set padding bits
    assert np.array_equal(PrimeTable.load(path)._bitset(), np.packbits(flags)), limit


PATTERN_EDGE_SEEDS = primes._PATTERN_PRIMES + (211,)  # 211: the first seed cleared stride by stride


def test_pattern_seeds_are_every_odd_seed_below_211():
    assert PATTERN_EDGE_SEEDS == tuple(q for q in range(3, 212, 2) if is_prime(q))
    assert primes._presieve()[0][0][0] == 3 * 5 * 7 * 11 * 13  # the first pattern's period


@pytest.mark.parametrize("window, last", [(primes._WINDOW, 2_100), (8, 450)])
def test_every_small_limit_equals_the_plain_sieve(window, last):
    # each limit sets back the pattern seeds up to it and clears 1; with
    # 8-flag windows the seeds 3 to 199 fall in windows 0 to 12
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "_WINDOW", window)
        for limit in range(2, last + 1):
            flags = plain_odd_flags(limit)
            assert np.array_equal(sieve_odd_flags(limit), flags), limit
            assert np.array_equal(PrimeTable.packed(limit)._bitset(), np.packbits(flags)), limit


@pytest.mark.parametrize("window", [8, 9, 64, primes._WINDOW])
def test_pattern_seeds_at_their_own_flags(tmp_path, window):
    # a pattern seed q is set back from limit q on, in whichever window holds
    # it; below q its flag lies past the last one, and a packed window pads
    # the rest of its last byte with 0, so e.g. 101, 103, 107 and 109 are not
    # set in the padding after limit 100
    limits = [limit for q in PATTERN_EDGE_SEEDS for limit in (q - 1, q)]
    assert any((limit + 1) // 2 % 8 for limit in limits)  # some end in a part-filled byte
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "_WINDOW", window)
        for limit in limits:
            check_every_sieve_against_plain(limit, tmp_path / "p.sieve")


@pytest.mark.parametrize("window", [64, primes._WINDOW])
def test_pattern_seeds_at_their_squares(tmp_path, window):
    # a pattern seed clears its square whether or not the limit reaches it;
    # 211 joins the strided seeds at 211 * 211 (8- and 9-flag windows take
    # about 40 s for these limits)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "_WINDOW", window)
        for q in PATTERN_EDGE_SEEDS:
            for limit in (q * q - 2, q * q, q * q + 2):
                check_every_sieve_against_plain(limit, tmp_path / "p.sieve")


def test_a_second_packed_table_builds_no_pattern():
    PrimeTable.packed(1000)  # NumPy's own first-call allocations, outside the traces
    primes._presieve.cache_clear()
    primes._byte_patterns.cache_clear()  # else the first build finds its patterns cached
    first = traced_peak(lambda: PrimeTable.packed(10**6))
    second = traced_peak(lambda: PrimeTable.packed(10**6))
    pattern_bytes = sum(pattern.nbytes for _, pattern in primes._presieve()[0])
    assert 2**19 < pattern_bytes < 2**20
    assert second < first - pattern_bytes // 2


def test_strided_seeds_reach_every_limit_below_211_to_the_fourth():
    # the cached strided seeds are the primes from 211 below 211**2
    seeds = primes._presieve()[1]
    odd_primes = 2 * np.flatnonzero(plain_odd_flags(211 * 211 - 1)) + 1
    assert np.array_equal(seeds, odd_primes[odd_primes >= 211])
    lo, bits = next(primes._prime_windows(211**4 - 1))  # the largest limit it takes: its first window
    assert lo == 0 and np.array_equal(bits, np.packbits(plain_odd_flags(2 * 8 * bits.size)[: 8 * bits.size]))
    with pytest.raises(BudgetError):
        next(primes._prime_windows(211**4))


@pytest.mark.parametrize("limit", [2, 3, 5, 17, 29, 197, 199, 100_001])
def test_packed_table_membership_up_to_its_last_padded_byte(tmp_path, limit):
    path = tmp_path / "p.sieve"
    PrimeTable.packed(limit).save(path)
    size = (limit + 1) // 2
    last = 16 * ((size + 7) // 8) - 1  # the largest odd integer the last byte could hold
    for table in (PrimeTable.packed(limit), PrimeTable.load(path)):
        for n in range(max(-1, limit - 40), last + 3):
            assert table.is_prime(n) == (n in table) == (n <= limit and is_prime(n)), (limit, n)


def test_packed_build_checks_its_limit():
    with pytest.raises(DomainError):
        PrimeTable.packed(1)
    with pytest.raises(BudgetError):
        PrimeTable.packed(100_000_001)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 300_000), st.lists(st.integers(-3, 300_003), max_size=40))
def test_loaded_table_answers_from_its_bits(tmp_path_factory, limit, ns):
    path = tmp_path_factory.mktemp("bits") / "p.sieve"
    sieved = PrimeTable(limit)
    sieved.save(path)
    loaded = PrimeTable.load(path)
    assert loaded.prime_count == sieved.prime_count
    for n in ns + [-1, 0, 1, 2, 3, limit - 1, limit, limit + 1]:
        assert loaded.is_prime(n) == (n in loaded) == sieved.is_prime(n) == (n <= limit and is_prime(n)), n
    assert "_odd" not in vars(loaded)  # all of it answered before any unpack


def test_packed_tables_unpack_once_into_read_only_flags(tmp_path):
    limit = 100_001
    path = tmp_path / "p.sieve"
    PrimeTable.packed(limit).save(path)
    sieved = PrimeTable(limit)
    for table in (PrimeTable.packed(limit), PrimeTable.load(path)):
        flags = table.odd_prime_mask()
        assert flags is table.odd_prime_mask()
        assert np.array_equal(flags, sieved.odd_prime_mask())
        assert np.array_equal(table.ordered_primes, sieved.ordered_primes)
        with pytest.raises(ValueError):
            flags[1] = False
        with pytest.raises(ValueError):
            table.ordered_primes[0] = 4
        assert table.prime_count == sieved.prime_count


def test_cache_build_at_1e7_holds_no_bool_flags(tmp_path, capsys):
    path = tmp_path / "p.sieve"
    argv = ["cache", "build", "--limit", "10000000", "--out-path", str(path)]
    assert traced_peak(lambda: cli.main(argv)) < 4 * 2**20  # the flags alone are 5 MB
    assert path.read_bytes()[17:] == np.packbits(sieve_odd_flags(10**7)).tobytes()


def test_cache_load_and_lookups_at_1e7_read_the_bits(tmp_path):
    path = tmp_path / "p.sieve"
    PrimeTable.packed(10**7).save(path)
    ns = range(9_990_001, 10**7 + 1, 10)
    expected = [is_prime(n) for n in ns]  # by trial division

    def load_and_ask():
        table = PrimeTable.load(path)
        assert table.prime_count == 664_579
        assert [table.is_prime(n) for n in ns] == expected

    assert traced_peak(load_and_ask) < 2 * 2**20  # the flags alone are 5 MB


def write_cache(path, limit, body):
    """A version-2 cache file with a valid checksum over any limit and body."""
    limit_bytes = limit.to_bytes(8, "little")
    crc = zlib.crc32(body, zlib.crc32(limit_bytes))
    path.write_bytes(b"PSLB" + bytes([2]) + limit_bytes + crc.to_bytes(4, "little") + body)


@pytest.mark.parametrize("limit", [0, 1])
def test_cache_header_limit_below_2(tmp_path, limit):
    path = tmp_path / "p.sieve"
    write_cache(path, limit, bytes(((limit + 1) // 2 + 7) // 8))
    with pytest.raises(DomainError, match="bad sieve cache: limit"):
        PrimeTable.load(path)


def test_cache_padding_bits_set(tmp_path):
    path = tmp_path / "p.sieve"
    write_cache(path, 17, np.packbits(sieve_odd_flags(17)).tobytes()[:-1] + b"\x01")
    with pytest.raises(DomainError, match="padding"):
        PrimeTable.load(path)


def test_cache_header_limit_past_the_budget_is_refused_before_the_body(tmp_path):
    path = tmp_path / "p.sieve"
    write_cache(path, 10**12, bytes(1 << 20))  # 1 MB of body, far short of 10^12 bits

    def load():
        with pytest.raises(DomainError, match="primality budget"):
            PrimeTable.load(path)

    assert traced_peak(load) < 64 * 2**10


def test_cache_verify_of_an_endless_file_exits_1():
    # /dev/zero never ends, so reading it whole fails (a MemoryError under the
    # 1 GB address-space cap); its header alone, zero bytes with no magic, refuses it
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "from pslb.cli import main\n"
            "sys.exit(main(['cache', 'verify', '/dev/zero']))\n")
    src = os.path.dirname(os.path.dirname(primes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")  # keep NumPy's import inside the cap
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.stderr
    assert done.stderr == "error: bad sieve cache: wrong magic bytes\n"


@pytest.mark.parametrize("nbytes", [1, 7, 8, 9, 15, 17, 65_535, 65_536, 65_537, 131_079])
def test_packed_prime_count_at_any_bitset_length_and_alignment(tmp_path, nbytes):
    limit = 16 * nbytes - 1  # 8 * nbytes odd flags, so the bitset is nbytes long
    path = tmp_path / "p.sieve"
    PrimeTable.packed(limit).save(path)
    # the body one byte past an 8-byte boundary, as at its file offset 17
    unaligned = np.zeros(nbytes // 8 + 2, dtype=np.uint64).view(np.uint8)[1 : nbytes + 1]
    unaligned[:] = np.frombuffer(path.read_bytes(), dtype=np.uint8, offset=17)
    assert unaligned.ctypes.data % 8 == 1
    expected = 1 + np.count_nonzero(np.unpackbits(unaligned))
    for table in (PrimeTable.packed(limit), PrimeTable.load(path),
                  primes._PackedTable(limit, unaligned)):
        assert table._bitset().size == nbytes
        assert table.prime_count == expected == PrimeTable(limit).prime_count, limit
