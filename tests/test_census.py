"""Counting-layer tests: totients, new composites, prime-count formulas,
cycle censuses and the window series."""
import numpy as np
import pytest

from pslb.census import (
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
from pslb.errors import BudgetError, DomainError
from pslb.primes import nth_primorial, primes_up_to


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
    assert seed_multiple_level_counts(100, (2, 3, 5, 7)) == [117, 45, 6, 0]
    assert prime_count_via_eq1(100, (2, 3, 5, 7)) == 25


def test_prime_count_via_eq1_matches_sieve():
    import math

    for n in (50, 100, 400, 2310):
        root = math.isqrt(n)
        seeds = tuple(int(q) for q in primes_up_to(root).ordered_primes if q <= root)
        assert prime_count_via_eq1(n, seeds) == primes_up_to(n).prime_count, n


@pytest.mark.parametrize("n", [0, -5])
@pytest.mark.parametrize("fn", [prime_count_via_eq1, seed_multiple_level_counts])
def test_eq1_rejects_n_below_1(fn, n):
    with pytest.raises(DomainError):
        fn(n, ())


def test_prime_count_via_eq1_at_1():
    assert prime_count_via_eq1(1, ()) == 0


def test_prime_count_via_eq1_validation():
    with pytest.raises(DomainError):
        prime_count_via_eq1(100, (2, 3, 5))  # missing seed 7
    with pytest.raises(BudgetError):
        seeds = tuple(int(q) for q in primes_up_to(100).ordered_primes)
        prime_count_via_eq1(100_000_000, seeds)


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
    value_mask = primes_up_to(30030).prime_mask()
    for got, want in zip(twin_masks(limit, core, value_mask),
                         arange_twin_masks(limit, core, value_mask)):
        assert np.array_equal(got, want)
