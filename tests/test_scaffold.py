"""Product factors and scaffold tables against exact oracles and the
reference printed values."""
import math
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslb.errors import BudgetError, DomainError
from pslb import scaffold
from pslb.primes import is_prime, next_prime, prev_prime, primes_up_to
from pslb.scaffold import (
    PRODUCT_FACTOR_PRIME_LIMIT,
    _build_log_prefix,
    _log_terms,
    _prime_span,
    _ulps_off,
    avg_solutions_in_cycle,
    build_table17,
    build_table18,
    build_table19_20,
    build_table21,
    product_factor,
    product_factor_fraction,
    round_display,
)

# (P_s, P_z) -> printed six-decimal product factor
TABLE17_PF = [0.692308, 0.436373, 0.307356, 0.218553, 0.164156,
              0.126197, 0.098251, 0.079161, 0.064543]
TABLE17_AVG = [10, 59, 456, 4868, 62162, 1003543, 21095426, 492902698, 14065843393]
TABLE19_PF = [0.357032, 0.260070, 0.192841, 0.146876, 0.115224,
              0.091475, 0.074054, 0.061054]
TABLE19_AVG = [5, 35, 286, 3272, 43632, 727428, 15900087, 380157930]
TABLE20_AVG_B = [59, 456, 4868, 62162, 1003543, 21095426, 492902698, 14065843393]
TABLE20_PZ = [53, 179, 719, 3119, 14939, 80447, 447841, 2724109]
TABLE18_RATIOS = [5.6728, 7.7478, 10.6661, 12.7688, 16.1441, 21.0209, 23.3654, 28.5368]
TABLE18_T_RATIOS = [9, 11, 15, 17, 21, 27, 29, 35]
TABLE18_PF_RATIOS = [0.6303, 0.7043, 0.7111, 0.7511, 0.7688, 0.7786, 0.8057, 0.8153]


def test_product_factor_against_exact_fractions():
    for lo, hi in ((11, 13), (13, 47), (17, 173), (19, 709)):
        exact = float(product_factor_fraction(lo, hi))
        assert math.isclose(product_factor(lo, hi), exact, rel_tol=1e-12)
    assert product_factor_fraction(11, 13) == Fraction(9, 13)
    assert product_factor(13, 13) == pytest.approx(11 / 13)


def test_product_factor_validation():
    for fn in (product_factor, product_factor_fraction):
        with pytest.raises(DomainError):
            fn(4, 13)
        with pytest.raises(DomainError):
            fn(13, 11)


def fsum_product_factor(lo: int, hi: int) -> float:
    """The summation the prefix table must reproduce bit for bit."""
    qs = [q for q in primes_up_to(hi).ordered_primes.tolist() if lo <= q <= hi]
    return math.exp(math.fsum(math.log1p(-2.0 / q) for q in qs))


ORACLE_PRIMES = primes_up_to(6_000_000).ordered_primes


@settings(max_examples=40, deadline=None)
@given(st.integers(1, len(ORACLE_PRIMES) - 1), st.integers(1, len(ORACLE_PRIMES) - 1))
def test_product_factor_equals_fsum_oracle(i, j):
    lo, hi = sorted((int(ORACLE_PRIMES[i]), int(ORACLE_PRIMES[j])))
    assert product_factor(lo, hi) == fsum_product_factor(lo, hi)


# 2799991 and 2800001 are the primes on either side of PRODUCT_FACTOR_PRIME_LIMIT
@pytest.mark.parametrize("lo, hi", [(3, 3), (3, 2799991), (3, 2800001), (2799991, 2800001)])
def test_product_factor_equals_fsum_oracle_at_table_edge(lo, hi):
    assert product_factor(lo, hi) == fsum_product_factor(lo, hi)


def test_prev_and_next_prime_across_table_edge():
    assert prev_prime(2_800_000) == 2799991
    assert next_prime(2799991) == 2800001  # past the scaffold's least table
    assert next_prime(13) == 17 and prev_prime(13) == 13


def test_prefix_size_follows_to_prime_not_the_shared_table():
    primes_up_to(6_000_000)  # the shared table now reaches past 2 * 2.8M
    assert _prime_span(3, 5)[0].primes[-1] == prev_prime(PRODUCT_FACTOR_PRIME_LIMIT)
    assert _prime_span(3, 2800001)[0].primes[-1] == prev_prime(2 * PRODUCT_FACTOR_PRIME_LIMIT)


# product_factor of each table-17/21 and table-19/20 row, as float hex
TABLE17_PF_BITS = ["0x1.6276276276276p-1", "0x1.bed8813861932p-2", "0x1.3abb73cdedfd2p-2",
                   "0x1.bf98bc66206bep-3", "0x1.5031080fd7c0fp-3", "0x1.0273bdfdc58b7p-3",
                   "0x1.927006f4f09bap-4", "0x1.443ec05f8060ap-4", "0x1.085e61543bfd1p-4"]
TABLE19_PF_BITS = ["0x1.6d99de16db786p-2", "0x1.0a4fd82466e9fp-2", "0x1.8af02dc38604fp-3",
                   "0x1.2ccd8df33a4e4p-3", "0x1.d7f4bf1d52791p-4", "0x1.76aeebfe87bd0p-4",
                   "0x1.2f537a27caad0p-4", "0x1.f4282dc1f4f37p-5"]


def test_table_product_factors_pinned_bit_for_bit():
    assert [r.product_factor.hex() for r in build_table17(9)] == TABLE17_PF_BITS
    assert [r.product_factor.hex() for r in build_table21(9)] == TABLE17_PF_BITS
    assert [r.product_factor.hex() for r in build_table19_20(8)] == TABLE19_PF_BITS


@pytest.mark.parametrize("hi", [2, 3, 13, 173])
def test_product_factor_from_two_is_zero(hi):
    assert product_factor(2, hi) == float(product_factor_fraction(2, hi)) == 0.0


@pytest.mark.parametrize("fn", [product_factor, product_factor_fraction])
def test_product_factor_bound_over_budget(fn):
    with pytest.raises(BudgetError):
        fn(3, 100_000_007)


def test_product_factor_fraction_bound_at_ten_thousand_primes():
    odd = primes_up_to(200_000).ordered_primes[1:]
    assert odd[9_999] == 104_743 and odd[10_000] == 104_759
    assert math.isclose(product_factor_fraction(3, 104_743), product_factor(3, 104_743), rel_tol=1e-12)
    _prime_span(3, 104_759)  # the prefix table is built before the raise is timed
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        product_factor_fraction(3, 104_759)
    assert time.perf_counter() - start < 0.1


def test_product_factor_fraction_reads_the_flags_not_the_prefix(monkeypatch):
    def no_prefix(limit):
        raise AssertionError("log prefix built")

    monkeypatch.setattr(scaffold, "_build_log_prefix", no_prefix)
    assert product_factor_fraction(11, 13) == Fraction(9, 13)
    with pytest.raises(BudgetError):
        product_factor_fraction(3, 2_000_003)
    with pytest.raises(DomainError):
        product_factor(4, 13)


def whole_array_log_prefix(limit):
    """The prefix limbs built from whole arrays of terms at once."""
    primes = primes_up_to(limit).ordered_primes
    odd = primes[1:]
    terms = np.fromiter(map(math.log1p, memoryview(-2.0 / odd)), dtype=np.float64, count=len(odd))
    shift = 53 - math.frexp(float(terms[-1]))[1]
    scaled = np.ldexp(-terms, shift - 32)
    high = np.floor(scaled)
    low = np.ldexp(scaled - high, 32)
    zeros = np.zeros(2, dtype=np.int64)
    return (primes, shift, np.concatenate([zeros, np.cumsum(high.astype(np.int64))]),
            np.concatenate([zeros, np.cumsum(low.astype(np.int64))]))


@pytest.mark.parametrize("block", [1, 2, 3, 7])
@pytest.mark.parametrize("limit", [1000, 30030])
def test_blocked_log_prefix_equals_whole_array_build(monkeypatch, block, limit):
    monkeypatch.setattr(scaffold, "_PREFIX_BLOCK", block)
    table = _build_log_prefix.__wrapped__(limit)  # the cached table is left alone
    primes, shift, high, low = whole_array_log_prefix(limit)
    assert table.shift == shift
    for got, want in ((table.primes, primes), (table.high, high), (table.low, low)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_log_prefix_build_peak_at_table_limit():
    primes_up_to(PRODUCT_FACTOR_PRIME_LIMIT)
    tracemalloc.start()
    try:
        _build_log_prefix.__wrapped__(PRODUCT_FACTOR_PRIME_LIMIT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the prime array and the two limb arrays keep 4.8 MB; a build from whole
    # arrays of terms peaked at 12.4 MB
    assert peak < 7 * 2**20


def math_log1p_terms(primes):
    return np.array([math.log1p(-2.0 / q) for q in primes.tolist()])


def test_log_terms_equal_math_log1p_to_the_table_limit():
    odd = primes_up_to(PRODUCT_FACTOR_PRIME_LIMIT).ordered_primes[1:]
    assert _log_terms(odd).tobytes() == math_log1p_terms(odd).tobytes()


def trial_division_prime_at_least(n):
    while not is_prime(n):
        n += 1
    return n


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(3, 10**8 - 11), min_size=1, max_size=40))
def test_log_terms_equal_math_log1p_up_to_the_primality_budget(starts):
    # the prefix doubles up to the budget for a long span, so any prime to 1e8 is a term
    primes = np.array([trial_division_prime_at_least(n) for n in starts])
    assert _log_terms(primes).tobytes() == math_log1p_terms(primes).tobytes()


@pytest.mark.parametrize("toward", [0.0, -1.0])
def test_prefix_does_not_rest_on_numpys_log1p(monkeypatch, toward):
    # a SIMD log1p may differ from libm; here every other guess is one ulp off
    real = np.log1p
    calls = []

    def one_ulp_off(x):
        y = real(x)
        y[::2] = np.nextafter(y[::2], toward)
        calls.append(len(y))
        return y

    monkeypatch.setattr(np, "log1p", one_ulp_off)
    table = _build_log_prefix.__wrapped__(PRODUCT_FACTOR_PRIME_LIMIT)
    primes, shift, high, low = whole_array_log_prefix(PRODUCT_FACTOR_PRIME_LIMIT)
    assert sum(calls) == len(primes) - 1
    assert table.shift == shift
    assert table.high.tobytes() == high.tobytes() and table.low.tobytes() == low.tobytes()


def ulps_off_slack(y):
    """The bound _ulps_off states: the rounding of y*y, the series' tail and the rest."""
    return abs(y) / 2 + 2.0**53 * abs(y) ** 5 / 719 + 2.0**-20


def exact_ulps_off(x, y):
    with localcontext(prec=200):
        exact = (1 + Decimal(x)).ln()
        return float((exact - Decimal(y)) / Decimal(abs(float(np.spacing(y)))))


def test_ulps_off_within_its_stated_bound():
    # primes just past 4,096, where |y| is near 2**-11 and the bound near
    # 2**-10.7, near the table limit and near the primality budget
    table = primes_up_to(PRODUCT_FACTOR_PRIME_LIMIT).ordered_primes
    start = int(np.searchsorted(table, 4096))
    primes = np.concatenate([table[start:start + 60], table[-60:],
                             [trial_division_prime_at_least(10**8 - 2000 + 100 * k) for k in range(20)]])
    x = -2.0 / primes
    guess = np.log1p(x)
    for y in (guess, np.nextafter(guess, 0.0), np.nextafter(guess, -1.0),
              np.nextafter(np.nextafter(guess, -1.0), -1.0)):
        got = _ulps_off(x, y)
        for xi, yi, ti in zip(x.tolist(), y.tolist(), got.tolist()):
            assert abs(ti - exact_ulps_off(xi, yi)) <= ulps_off_slack(yi), (xi, yi)
    # a power of two has no one ulp: the gap below it is half the gap above
    powers = -(2.0 ** -np.arange(12, 30))
    assert np.isnan(_ulps_off(np.nextafter(powers, 0.0), powers)).all()


def test_avg_and_rounding():
    assert avg_solutions_in_cycle(15, 0.692308) == pytest.approx(10.38462, abs=1e-5)
    assert round_display(10.5) == 11
    assert round_display(10.499) == 10
    assert round_display(0.5) == 1
    with pytest.raises(DomainError):
        avg_solutions_in_cycle(0, 0.5)
    with pytest.raises(DomainError):
        avg_solutions_in_cycle(10, 1.5)


def test_table17_reproduces_reference():
    rows = build_table17(9)
    for row, pf, avg in zip(rows, TABLE17_PF, TABLE17_AVG):
        assert abs(row.product_factor - pf) < 5e-7
        assert abs(row.avg_T_A_display - avg) <= 1
    assert [r.P_a for r in rows] == [7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert [r.P_b for r in rows] == [13, 47, 173, 709, 3109, 14929, 80429, 447829, 2724079]
    assert rows[0].T_A == 15 and rows[-1].T_A == 217929355875


def test_table18_reproduces_reference():
    rows = build_table18(9)
    assert [round(r.ratio, 4) for r in rows] == TABLE18_RATIOS
    assert [r.T_ratio for r in rows] == TABLE18_T_RATIOS
    assert [round(r.pf_ratio, 4) for r in rows] == TABLE18_PF_RATIOS


def test_table19_20_reproduces_reference():
    rows = build_table19_20(8)
    for row, pf, avg_a, avg_b, pz in zip(rows, TABLE19_PF, TABLE19_AVG,
                                         TABLE20_AVG_B, TABLE20_PZ):
        assert abs(row.product_factor - pf) < 5e-7
        assert abs(row.avg_T_A_display - avg_a) <= 1
        assert abs(row.avg_T_B_display - avg_b) <= 1
        assert row.smallest_non_core == pz
        assert row.smallest_non_core_squared == pz * pz
    assert [r.P_b for r in rows] == [11, 13, 17, 19, 23, 29, 31, 37]
    assert [r.C_largest_factor for r in rows] == [47, 173, 709, 3109, 14929,
                                                  80429, 447829, 2724079]


def test_table21_reproduces_reference():
    rows = build_table21(9)
    pz = [17, 53, 179, 719, 3119, 14939, 80447, 447841, 2724109]
    for row, pf, avg, z in zip(rows, TABLE17_PF, TABLE17_AVG, pz):
        assert abs(row.product_factor - pf) < 5e-7
        assert abs(row.avg_T_A_display - avg) <= 1
        assert row.smallest_non_core == z
        # certification bound: the first uncovered composite lies past A
        assert row.smallest_non_core_squared > row.A.value


def test_row_count_validation():
    with pytest.raises(DomainError):
        build_table17(10)
    with pytest.raises(DomainError):
        build_table18(1)
    with pytest.raises(DomainError):
        build_table19_20(9)
    with pytest.raises(DomainError):
        build_table21(0)


def test_identity_avg_b_equals_avg_a_times_pb():
    for row in build_table19_20(8):
        assert row.avg_T_B == pytest.approx(row.avg_T_A * row.P_b, rel=1e-12)


def test_only_the_table_scale_prefix_is_cached(monkeypatch):
    # at a table scale of 1,000, a span to 1,999 reads a prefix to 2,000
    monkeypatch.setattr(scaffold, "PRODUCT_FACTOR_PRIME_LIMIT", 1000)
    _build_log_prefix.cache_clear()
    try:
        short = product_factor(3, 997)
        odd = primes_up_to(1999).ordered_primes[1:]
        assert product_factor(3, 1999) == math.exp(math.fsum(math.log1p(-2 / q) for q in odd))
        assert _build_log_prefix.cache_info().currsize == 1
        misses = _build_log_prefix.cache_info().misses
        assert product_factor(3, 997) == short
        assert _build_log_prefix.cache_info().misses == misses  # still the prefix to 1,000
    finally:
        _build_log_prefix.cache_clear()
