"""Acceptance suite: the twelve gate criteria with their stated tolerances
and runtime bounds. Each test prints one summary line."""
import time

import numpy as np

from pslb.census import (
    cycle_census,
    figure1_series,
    new_composites,
    potential_solutions_T,
    prime_count_via_eq1,
    prime_count_via_eq3,
    seed_multiple_level_counts,
    totient_of_primorial,
)
from pslb.goldbach import figure2_slopes, mismatch_violations
from pslb.primes import nth_primorial, primes_up_to, seed_prime_set
from pslb.scaffold import build_table17, build_table18, build_table19_20, build_table21
from pslb.signatures import certified_mask, crt_reconstruct, potential_prime_mask, signature
from pslb import auditor


def _report(name, elapsed, bound):
    print(f"{name}: pass ({elapsed:.3f}s, bound {bound}s)")
    assert elapsed < bound, f"{name} exceeded {bound}s ({elapsed:.3f}s)"


def test_criterion_01_totient_and_solution_columns():
    start = time.perf_counter()
    expected_phi = [8, 48, 480, 5760, 92160, 1658880, 36495360, 1021870080]
    expected_T = [3, 15, 135, 1485, 22275, 378675, 7952175, 214708725]
    for k, (phi, t) in enumerate(zip(expected_phi, expected_T), start=3):
        prim = nth_primorial(k)
        assert totient_of_primorial(prim) == phi
        assert potential_solutions_T(prim) == t
    _report("criterion 1 (totient/solution columns)", time.perf_counter() - start, 1.0)


def test_criterion_02_prime_counts():
    start = time.perf_counter()
    assert new_composites(nth_primorial(5)).count == 141
    assert new_composites(nth_primorial(6)).count == 2517
    assert prime_count_via_eq3(nth_primorial(5)) == 343
    assert prime_count_via_eq3(nth_primorial(6)) == 3248
    assert primes_up_to(2310).prime_count == 343
    assert primes_up_to(30030).prime_count == 3248
    assert primes_up_to(9699690).prime_count == 646029
    _report("criterion 2 (prime counts)", time.perf_counter() - start, 30.0)


def test_criterion_03_legendre_worked_example():
    start = time.perf_counter()
    levels = seed_multiple_level_counts(100)
    assert levels == [117, 45, 6, 0]
    assert levels[0] - levels[1] + levels[2] - levels[3] == 78
    assert 100 - 1 + 4 - 78 == 25
    assert prime_count_via_eq1(100) == 25
    _report("criterion 3 (inclusion-exclusion example)", time.perf_counter() - start, 1.0)


def test_criterion_04_pair_count_rows():
    from pslb.goldbach import pair_count_table

    start = time.perf_counter()
    rows = pair_count_table(210)
    elapsed = time.perf_counter() - start
    assert len(rows) == 103
    expected_first = [(6, 0, 1), (8, 2, 1), (10, 1, 2), (12, 0, 1), (14, 2, 2)]
    assert rows[:5] == expected_first
    assert rows[-1] == (210, 0, 19)
    lookup = {e: n for e, _, n in rows}
    brute = {}
    table = primes_up_to(210)
    for E in range(6, 211, 2):
        brute[E] = sum(1 for p in range(2, E // 2 + 1)
                       if table.is_prime(p) and table.is_prime(E - p))
    assert lookup == brute
    _report("criterion 4 (103 pair-count rows)", elapsed, 1.0)


def test_criterion_05_cycle_census_rows():
    start = time.perf_counter()
    rows = cycle_census(nth_primorial(5), nth_primorial(6))
    elapsed = time.perf_counter() - start
    assert [r.potential_primes for r in rows] == [
        443, 444, 442, 443, 443, 443, 444, 443, 443, 443, 442, 444, 443]
    assert [r.potential_twins for r in rows] == [
        113, 115, 115, 112, 115, 114, 115, 114, 115, 113, 114, 115, 114]
    assert [r.true_twins for r in rows] == [
        66, 50, 41, 32, 36, 29, 30, 36, 31, 37, 21, 29, 27]
    assert rows[-1].cumulative_potential_primes == 5760
    assert rows[-1].cumulative_potential_twins == 1484
    assert rows[-1].cumulative_false_twins == 1019
    assert rows[-1].cumulative_true_twins == 465
    _report("criterion 5 (13 census rows)", elapsed, 10.0)


def test_criterion_06_scaffold_tables():
    start = time.perf_counter()
    t17 = build_table17(9)
    t18 = build_table18(9)
    t1920 = build_table19_20(8)
    t21 = build_table21(9)
    elapsed = time.perf_counter() - start

    pf17 = [0.692308, 0.436373, 0.307356, 0.218553, 0.164156,
            0.126197, 0.098251, 0.079161, 0.064543]
    avg17 = [10, 59, 456, 4868, 62162, 1003543, 21095426, 492902698, 14065843393]
    for row, pf, avg in zip(t17, pf17, avg17):
        assert abs(row.product_factor - pf) < 5e-7
        assert abs(row.avg_T_A_display - avg) <= 1

    ratios = [5.6728, 7.7478, 10.6661, 12.7688, 16.1441, 21.0209, 23.3654, 28.5368]
    assert [round(r.ratio, 4) for r in t18] == ratios

    pf19 = [0.357032, 0.260070, 0.192841, 0.146876, 0.115224,
            0.091475, 0.074054, 0.061054]
    avg19a = [5, 35, 286, 3272, 43632, 727428, 15900087, 380157930]
    avg19b = [59, 456, 4868, 62162, 1003543, 21095426, 492902698, 14065843393]
    for row, pf, a, b in zip(t1920, pf19, avg19a, avg19b):
        assert abs(row.product_factor - pf) < 5e-7
        assert abs(row.avg_T_A_display - a) <= 1
        assert abs(row.avg_T_B_display - b) <= 1

    for row, pf, avg in zip(t21, pf17, avg17):
        assert abs(row.product_factor - pf) < 5e-7
        assert abs(row.avg_T_A_display - avg) <= 1
    _report("criterion 6 (scaffold tables)", elapsed, 60.0)


def test_criterion_07_mismatch_partner_scan():
    start = time.perf_counter()
    violations = mismatch_violations(30030)
    elapsed = time.perf_counter() - start
    assert violations == []
    _report("criterion 7 (mismatch partner scan to 30030)", elapsed, 300.0)


def test_criterion_08_clean_small_potential_primes():
    start = time.perf_counter()
    for k in (5, 6, 7):  # 2310, 30030, 510510
        prim = nth_primorial(k)
        sps = seed_prime_set(prim)
        bound = sps.smallest_non_core ** 2
        pp = potential_prime_mask(prim.value, sps.core)
        z = np.arange(1, prim.value + 1)[::2]  # the odd integers the mask indexes
        non_core = np.array(sps.non_core)
        for c in z[pp & (z < bound) & ~np.isin(z, non_core)]:
            assert all(int(c) % q for q in sps.non_core), (prim.value, int(c))
    _report("criterion 8 (clean potential primes)", time.perf_counter() - start, 60.0)


def test_criterion_09_signature_uniqueness_and_certification():
    start = time.perf_counter()
    seeds = seed_prime_set(nth_primorial(6)).all_seeds
    for zz in range(1, 30030):
        assert crt_reconstruct(signature(zz, seeds)) == zz
    prim = nth_primorial(7)  # 510510
    sps = seed_prime_set(prim)
    cert = certified_mask(prim.value, sps.all_seeds)
    prime = primes_up_to(prim.value).prime_mask()[1:]
    z = np.arange(1, prim.value + 1)
    non_seed = ~np.isin(z, np.array(sps.all_seeds))
    # the mask holds the odd integers; no even non-seed is prime
    assert not np.any(non_seed[::2] & (cert != prime[::2]))
    assert not np.any(non_seed[1::2] & prime[1::2])
    _report("criterion 9 (CRT round-trip + certification scan)",
            time.perf_counter() - start, 120.0)


def test_criterion_10_fit_slope_separation():
    start = time.perf_counter()
    slopes = figure2_slopes(210)
    s0, s1, s2 = slopes[0][0], slopes[1][0], slopes[2][0]
    assert s0 > 2 * s1
    assert s0 > 2 * s2
    _report("criterion 10 (slope separation)", time.perf_counter() - start, 10.0)


def test_criterion_11_window_series_totals():
    start = time.perf_counter()
    windows = figure1_series(nth_primorial(6))
    assert sum(w.potential_primes for w in windows) == 5760
    assert windows[-1].cumulative_new_composites == 2517
    _report("criterion 11 (window series totals)", time.perf_counter() - start, 10.0)


def test_criterion_12_audit_none_failing():
    start = time.perf_counter()
    reports = auditor.audit_all("default")
    assert len(reports) == 18
    failing = [r.claim_id for r in reports if r.status == auditor.FAIL]
    assert failing == []
    _report("criterion 12 (claim audit)", time.perf_counter() - start, 300.0)
