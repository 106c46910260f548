"""Counting-layer tests: totients, new composites, prime-count formulas,
cycle censuses and the window series."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslb import census, primes
from pslb.census import (
    CENSUS_CEILING,
    cycle_census,
    figure1_series,
    new_composites,
    potential_solutions_T,
    prime_count_via_eq1,
    prime_count_via_eq3,
    seed_multiple_level_counts,
    totient_of_primorial,
    true_twin_count,
    twin_masks,
)
from pslb.errors import _LIMITS, BudgetError, DomainError
from pslb.primes import max_seed_prime_for, nth_primorial, primes_up_to, seed_prime_set
from pslb.signatures import potential_prime_mask


def test_totients_match_reference_column():
    expected = {30: 8, 210: 48, 2310: 480, 30030: 5760, 510510: 92160,
                9699690: 1658880, 223092870: 36495360, 6469693230: 1021870080}
    for k in range(3, 11):
        prim = nth_primorial(k)
        assert totient_of_primorial(prim) == expected[prim.value]


def test_potential_solutions_match_reference_column():
    expected = {30: 3, 210: 15, 2310: 135, 30030: 1485, 510510: 22275,
                9699690: 378675, 223092870: 7952175, 6469693230: 214708725}
    for k in range(3, 11):
        prim = nth_primorial(k)
        assert potential_solutions_T(prim) == expected[prim.value]
    with pytest.raises(DomainError):
        potential_solutions_T(nth_primorial(1))


def brute_new_composites(limit: int, core: tuple) -> list[int]:
    table = primes_up_to(limit)
    out = []
    for z in range(3, limit + 1, 2):
        if table.is_prime(z):
            continue
        if all(z % p for p in core):
            out.append(z)
    return out


def test_new_composites_against_brute_force():
    prim = nth_primorial(4)  # 210
    ncs = new_composites(prim)
    assert list(ncs.members) == brute_new_composites(210, prim.prime_factors)
    assert list(ncs.members) == [121, 143, 169, 187, 209]
    assert ncs.least_member == 121  # 11^2, the smallest non-core seed squared


@pytest.mark.parametrize("k, least", [(1, None), (2, None), (3, None), (4, 121)])
def test_new_composites_least_member(k, least):
    # up to 5# = 30 every seed is core, so no new composite exists
    assert new_composites(nth_primorial(k)).least_member == least


def test_new_composite_counts():
    assert new_composites(nth_primorial(5)).count == 141
    assert new_composites(nth_primorial(6)).count == 2517
    with pytest.raises(BudgetError):
        new_composites(nth_primorial(7), budget=510_509)


def test_prime_count_via_eq3():
    assert prime_count_via_eq3(nth_primorial(5)) == 343
    assert prime_count_via_eq3(nth_primorial(6)) == 3248
    assert primes_up_to(2310).prime_count == 343
    assert primes_up_to(30030).prime_count == 3248


def test_prime_count_via_eq1_worked_example():
    assert seed_multiple_level_counts(100) == [117, 45, 6, 0]
    assert prime_count_via_eq1(100) == 25


def test_prime_count_via_eq1_matches_sieve():
    for n in (50, 100, 400, 2310):
        assert prime_count_via_eq1(n) == primes_up_to(n).prime_count, n


@pytest.mark.parametrize("n", [0, -5])
@pytest.mark.parametrize("fn", [prime_count_via_eq1, seed_multiple_level_counts])
def test_eq1_rejects_n_below_1(fn, n):
    with pytest.raises(DomainError):
        fn(n)


def test_prime_count_via_eq1_at_1():
    assert prime_count_via_eq1(1) == 0


def test_prime_count_via_eq1_validation():
    with pytest.raises(BudgetError):
        prime_count_via_eq1(100_000_000)


def test_prime_count_via_eq1_seed_budget_edge():
    # 71^2 = 5041 has 20 seeds (the primes <= 71); 73^2 = 5329 needs 21
    assert len(seed_multiple_level_counts(5328)) == 20
    assert prime_count_via_eq1(5328) == primes_up_to(5328).prime_count
    with pytest.raises(BudgetError):
        prime_count_via_eq1(5329)


REFERENCE_CYCLES = [
    # count, cum pp, cum pt, cum ft, cum tt, pp, pt, ft, tt
    (1, 443, 113, 47, 66, 443, 113, 47, 66),
    (2, 887, 228, 112, 116, 444, 115, 65, 50),
    (3, 1329, 343, 186, 157, 442, 115, 74, 41),
    (4, 1772, 455, 266, 189, 443, 112, 80, 32),
    (5, 2215, 570, 345, 225, 443, 115, 79, 36),
    (6, 2658, 684, 430, 254, 443, 114, 85, 29),
    (7, 3102, 799, 515, 284, 444, 115, 85, 30),
    (8, 3545, 913, 593, 320, 443, 114, 78, 36),
    (9, 3988, 1028, 677, 351, 443, 115, 84, 31),
    (10, 4431, 1141, 753, 388, 443, 113, 76, 37),
    (11, 4873, 1255, 846, 409, 442, 114, 93, 21),
    (12, 5317, 1370, 932, 438, 444, 115, 86, 29),
    (13, 5760, 1484, 1019, 465, 443, 114, 87, 27),
]


def test_cycle_census_reproduces_reference_rows():
    rows = cycle_census(nth_primorial(5), nth_primorial(6))
    assert len(rows) == 13
    for row, ref in zip(rows, REFERENCE_CYCLES):
        got = (row.cycle_index,
               row.cumulative_potential_primes, row.cumulative_potential_twins,
               row.cumulative_false_twins, row.cumulative_true_twins,
               row.potential_primes, row.potential_twins,
               row.false_twins, row.true_twins)
        assert got == ref
        assert row.cycle_end == row.cycle_index * 2310
        assert row.potential_twins == row.false_twins + row.true_twins


def test_cycle_census_validation():
    from pslb.primes import Primorial

    with pytest.raises(DomainError):
        cycle_census(Primorial(60, (2, 3, 5)), nth_primorial(6))  # 60 does not divide 30030
    with pytest.raises(BudgetError):
        cycle_census(nth_primorial(5), nth_primorial(6), budget=2310)


def test_cycle_census_degenerate_full_span():
    rows = cycle_census(nth_primorial(6), nth_primorial(6))
    assert len(rows) == 1
    assert rows[0].potential_primes == 5760
    assert rows[0].true_twins == 465


def test_true_twin_count_matches_brute_force():
    table = primes_up_to(30030)
    brute = sum(
        1 for z in range(7, 30031, 2)  # anchors >= 7: both members odd primes > 5
        if table.is_prime(z) and table.is_prime(z - 2) and z % 3 not in (0, 2)
        and z % 5 not in (0, 2) and z % 7 not in (0, 2) and z % 11 not in (0, 2)
        and z % 13 not in (0, 2)
    )
    assert true_twin_count(nth_primorial(6)) == brute == 465


def test_figure1_series_totals():
    windows = figure1_series(nth_primorial(6))
    assert sum(w.potential_primes for w in windows) == 5760
    assert windows[-1].cumulative_new_composites == 2517
    assert windows[0].window_length == 2 * 173
    assert windows[-1].window_end == 30030
    # all windows except possibly the last have the full width
    assert {w.window_length for w in windows[:-1]} == {346}


# -- census masks against the arange formulas they replace --------------------


def arange_new_composites(p):
    z = np.arange(1, p.value + 1, dtype=np.int64)
    mask = z % 2 == 1
    for q in p.prime_factors[1:]:
        mask &= z % q != 0
    mask &= ~primes_up_to(p.value).prime_mask()[1:]
    mask &= z > 1
    return z[mask]


def arange_twin_masks(limit, core, prime_value_mask):
    z = np.arange(1, limit + 1, dtype=np.int64)
    pt = (z % 2 == 1) & (z >= 5)
    for q in core[1:]:
        pt &= (z % q != 0) & (z % q != 2)
    partner_prime = np.zeros(limit, dtype=bool)
    partner_prime[2:] = prime_value_mask[z[:-2]]
    return pt, pt & prime_value_mask[z] & partner_prime


@pytest.mark.parametrize("k", range(1, 7))
def test_new_composites_match_arange_formula(k):
    prim = nth_primorial(k)
    members = new_composites(prim).members
    expected = arange_new_composites(prim)
    assert members.dtype == expected.dtype
    assert np.array_equal(members, expected)


@pytest.mark.parametrize("limit", (1, 2, 3, 4, 5, 6, 7, 30, 31, 2310, 30030))
def test_twin_masks_match_arange_formula(limit):
    core = nth_primorial(6).prime_factors
    table = primes_up_to(30030)
    for got, want in zip(twin_masks(limit, core, table.odd_prime_mask()),
                         arange_twin_masks(limit, core, table.prime_mask())):
        assert np.array_equal(got, want[::2])  # the masks hold the odd anchors
        assert not want[1::2].any()


@pytest.mark.parametrize("limit", [2, 3, 100, 101])
def test_twin_masks_reject_flags_that_stop_short(limit):
    n = (limit + 1) // 2  # the odd integers up to limit
    for short in (0, n - 1):
        with pytest.raises(DomainError):
            twin_masks(limit, (2, 3, 5), np.ones(short, dtype=bool))
    assert len(twin_masks(limit, (2, 3, 5), np.ones(n, dtype=bool))[0]) == n


@pytest.mark.parametrize("k", range(3, 8))  # 30 (width 10 divides it) .. 510510
def test_figure1_series_matches_reduceat(k):
    prim = nth_primorial(k)
    z = np.arange(1, prim.value + 1, dtype=np.int64)
    pp = z % 2 == 1
    for q in prim.prime_factors[1:]:
        pp &= z % q != 0
    new_comp = np.zeros(prim.value, dtype=bool)
    new_comp[arange_new_composites(prim) - 1] = True
    starts = np.arange(0, prim.value, 2 * seed_prime_set(prim).max_seed)
    windows = figure1_series(prim)
    assert [w.window_end - w.window_length for w in windows] == starts.tolist()
    assert [w.potential_primes for w in windows] == \
        np.add.reduceat(pp, starts, dtype=np.int64).tolist()
    assert [w.cumulative_new_composites for w in windows] == \
        np.cumsum(np.add.reduceat(new_comp, starts, dtype=np.int64)).tolist()


@pytest.mark.parametrize("ks", [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 7)])
def test_cycle_census_false_twins_match_mask_difference(ks):
    inner, outer = map(nth_primorial, ks)
    pt, tt = twin_masks(outer.value, outer.prime_factors, primes_up_to(outer.value).odd_prime_mask())
    false = (pt & ~tt).reshape(-1, inner.value // 2).sum(axis=1)  # a cycle's odd half
    rows = cycle_census(inner, outer)
    assert [r.false_twins for r in rows] == false.tolist()
    assert [r.cumulative_false_twins for r in rows] == np.cumsum(false).tolist()


def test_figure1_series_memory_per_integer():
    prim = nth_primorial(7)
    figure1_series(prim)  # warm the shared table and the seed set
    census._kept_words.cache_clear()  # the traced call sieves 17# again
    tracemalloc.start()
    try:
        figure1_series(prim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * prim.value


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# every census mask holds the odd integers only, half a byte per integer
def test_cycle_census_odd_masks_stay_under_two_bytes_per_integer():
    prim = nth_primorial(7)
    cycle_census(prim, prim)  # warm the shared table
    census._kept_words.cache_clear()  # the traced call sieves 17# again
    assert traced_peak(lambda: cycle_census(prim, prim)) < 2 * prim.value


def test_figure1_series_odd_masks_stay_under_two_bytes_per_integer():
    prim = nth_primorial(7)
    figure1_series(prim)  # warm the shared table and the seed set
    census._kept_words.cache_clear()  # the traced call sieves 17# again
    assert traced_peak(lambda: figure1_series(prim)) < 2 * prim.value


def test_cycle_census_memory_per_integer():
    # the potential-prime and new-composite masks are counted and dropped
    # before the two twin masks are built: at most three whole masks at once
    prim = nth_primorial(7)
    cycle_census(prim, prim)  # warm the shared table
    census._kept_words.cache_clear()  # the traced call sieves 17# again
    tracemalloc.start()
    try:
        cycle_census(prim, prim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * prim.value


# -- the census fold against whole masks --------------------------------------


def whole_array_counts(p, width):
    """Per-segment counts of the potential primes, potential twins, true twins
    and new composites of p, from whole masks over its odd integers."""
    flags = primes_up_to(p.value).odd_prime_mask()
    pp = potential_prime_mask(p.value, p.prime_factors)
    nc = pp & ~flags
    nc[0] = False  # 1
    pt, tt = twin_masks(p.value, p.prime_factors, flags)
    starts = np.arange(0, len(pp), width)
    return [np.add.reduceat(m, starts, dtype=np.int64) for m in (pp, pt, tt, nc)], nc


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fold_rows_equal_whole_masks(data):
    # windows down to 8 flags split cycles and put twin pairs across their
    # edges; the floor keeps a fold within 256 windows, and the inner
    # primorial within the cycle cap. Windows of 8, 72 and 136 flags end in a
    # part-filled word, so the twin carry must read the window's last flag,
    # not bit 63.
    k_outer = data.draw(st.integers(1, 8), label="k_outer")
    outer = nth_primorial(k_outer)
    k_inner = data.draw(st.integers(1, k_outer).filter(
        lambda k: outer.value // nth_primorial(k).value <= _LIMITS["census cycle cap"]), label="k_inner")
    inner = nth_primorial(k_inner)
    size = outer.value // 2
    windows = st.integers(max(8, size // 256), max(8, size // 2))
    part_filled = [w for w in (8, 72, 136) if size // w <= 256]
    window = data.draw(st.sampled_from(part_filled) | windows if part_filled else windows, label="window")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "_WINDOW", window)
        census._kept_words.cache_clear()  # so the words are sieved in the patched windows
        try:
            rows = cycle_census(inner, outer, budget=outer.value)
            members = new_composites(outer, budget=outer.value).members
            figure = figure1_series(outer, budget=outer.value) if outer.value >= 4 else []
        finally:
            census._kept_words.cache_clear()
    (pp, pt, tt, nc), nc_mask = whole_array_counts(outer, inner.value // 2)
    assert [(r.potential_primes, r.potential_twins, r.false_twins, r.true_twins) for r in rows] == \
        list(zip(pp.tolist(), pt.tolist(), (pt - tt).tolist(), tt.tolist()))
    cum = [np.cumsum(c).tolist() for c in (pp, pt, pt - tt, tt, nc)]
    assert [(r.cumulative_potential_primes, r.cumulative_potential_twins, r.cumulative_false_twins,
             r.cumulative_true_twins, r.new_composites_cumulative) for r in rows] == list(zip(*cum))
    assert members.dtype == np.int64
    assert np.array_equal(members, 2 * np.flatnonzero(nc_mask) + 1)
    if figure:
        (pp, _, _, nc), _ = whole_array_counts(outer, max_seed_prime_for(outer.value))
        assert [w.potential_primes for w in figure] == pp.tolist()
        assert [w.cumulative_new_composites for w in figure] == np.cumsum(nc).tolist()


def test_census_readers_sieve_a_primorial_once(monkeypatch):
    # Table 5, new composites and figure 1 of 19# read one set of kept words
    sieved = []

    def counted(limit, *args):
        sieved.append(limit)
        return primes._prime_windows(limit, *args)

    monkeypatch.setattr(census, "_prime_windows", counted)
    census._kept_words.cache_clear()
    p19 = nth_primorial(8)
    cycle_census(nth_primorial(7), p19, budget=p19.value)
    new_composites(p19, budget=p19.value)
    figure1_series(p19, budget=p19.value)
    assert sieved == [p19.value]


def test_kept_words_are_read_only():
    for _, _, words in census._kept_words(nth_primorial(5)):
        with pytest.raises(ValueError):
            words[0, 0] = 0


def test_census_reads_no_shared_table(monkeypatch):
    # the fold sieves its own windows; only figure 1's max seed reads the table
    monkeypatch.setattr(primes, "_table", None)
    primes_up_to.cache_clear()
    try:
        outer = nth_primorial(8)
        cycle_census(nth_primorial(7), outer, budget=outer.value)
        new_composites(outer, budget=outer.value)
        figure1_series(outer, budget=outer.value)
        prime_count_via_eq3(outer, budget=outer.value)
        assert primes._table is None or primes._table.limit == primes._TABLE_FLOOR
    finally:
        primes_up_to.cache_clear()


def test_census_bounds():
    big = 10**12
    p23, p29 = nth_primorial(9), nth_primorial(10)
    assert CENSUS_CEILING == p23.value
    for fn in (lambda: cycle_census(p23, p29, budget=big), lambda: figure1_series(p29, budget=big),
               lambda: prime_count_via_eq3(p29, budget=big), lambda: true_twin_count(p29, budget=big)):
        with pytest.raises(BudgetError, match="census ceiling"):
            fn()
    # 17# holds 255,255 cycles of 2#, past the cap; 19# holds 46,189 of 7#, within it
    with pytest.raises(BudgetError, match="cycles 255255 exceeds census cycle cap 131072"):
        cycle_census(nth_primorial(1), nth_primorial(7), budget=big)
    assert nth_primorial(8).value // nth_primorial(4).value <= _LIMITS["census cycle cap"]
    # the members at 23# would be 194 MB: the primality budget still refuses them
    with pytest.raises(BudgetError, match="primality budget"):
        new_composites(p23, budget=big)


def test_census_of_19_primorial_cycles_in_23_primorial():
    # totals checked independently: a plain sieve of Eratosthenes to 23# gives
    # the same true twins and pi(23#) = 12,283,531, so the same new composites
    # by Eq. 3; the potential counts are phi(23#) and T(23#) - 1
    p19, p23 = nth_primorial(8), nth_primorial(9)
    census._kept_words.cache_clear()
    rows = cycle_census(p19, p23, budget=p23.value)
    assert len(rows) == 23
    last = rows[-1]
    assert last.cumulative_potential_primes == totient_of_primorial(p23) == 36_495_360
    assert last.cumulative_potential_twins == potential_solutions_T(p23) - 1 == 7_952_174
    assert last.cumulative_true_twins == 896_058
    assert last.new_composites_cumulative == 24_211_837
    assert rows[0].true_twins == 57_449
    assert min(r.true_twins for r in rows) == last.true_twins == 34_504
    assert prime_count_via_eq3(p23, budget=p23.value) == 12_283_531
    # 23# is past the primality budget: its words are streamed, never kept
    assert census._kept_words.cache_info().currsize == 0


# -- the potential-prime rows from packed core patterns -----------------------

def _row_bits(words, row):
    """The flags of one row of a window's words, read as big-endian words."""
    return np.unpackbits(words[row].astype(">u8").view(np.uint8)).view(bool)


def assert_potential_rows(windows, p):
    """Each window's potential row holds the odd integers free of p's core
    seeds, and neither row sets a bit past the window's last flag."""
    for lo, size, words in windows:
        want = primes.seed_free_odd_mask(lo, lo + size - 1, p.prime_factors)
        for row in (0, 1):
            assert not _row_bits(words, row)[size:].any(), (p.value, lo, row)
        assert np.array_equal(_row_bits(words, 0)[:size], want), (p.value, lo)


def assert_prime_rows(windows, p):
    """The census keeps the sieve's one packed layout: each window's prime
    row is the window's bytes as `_prime_windows` yields them."""
    sieved = list(primes._prime_windows(p.value))
    assert [lo for lo, _ in sieved] == [lo for lo, _, _ in windows]
    for (lo, bits), (_, _, words) in zip(sieved, windows):
        row = words[1].astype(">u8").view(np.uint8)
        assert row[: bits.size].tobytes() == bits.tobytes(), (p.value, lo)


# windows of 8, 72 and 136 flags end in a part-filled byte and word; a
# primorial is taken at a window width only when it spans at most 4096 windows
@pytest.mark.parametrize("window", [8, 72, 136, 1 << 20])
def test_potential_rows_equal_the_seed_free_mask(window, monkeypatch):
    monkeypatch.setattr(primes, "_WINDOW", window)
    for k in range(2, 9):  # 3# to 19#
        p = nth_primorial(k)
        if p.value // 2 <= 4096 * window:
            windows = list(census._window_words(p))
            assert_potential_rows(windows, p)
            assert_prime_rows(windows, p)
    p23 = nth_primorial(9)
    first = next(census._window_words(p23))
    assert_potential_rows([first], p23)
    if window == 1 << 20:  # 106 windows; the last one is part-filled
        *_, last = census._window_words(p23)
        assert last[1] < window
        assert_potential_rows([last], p23)
