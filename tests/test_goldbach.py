"""Prime-pair enumeration, mod-3 rules, mismatch filter and solver tests."""
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslb import goldbach, primes
from pslb.errors import BudgetError, DomainError
from pslb.goldbach import (
    exact_potential_goldbach_count,
    figure2_slopes,
    goldbach_pairs,
    goldbach_solve,
    mismatch_filter,
    mod3_rule,
    pair_count_table,
    residue_addition_table,
    mismatch_violations,
)
from pslb.primes import (
    max_seed_prime_for,
    next_prime,
    primes_up_to,
    seed_prime_set,
    smallest_primorial_at_least,
)


def brute_pairs(E):
    table = primes_up_to(E)
    return [(p, E - p) for p in range(2, E // 2 + 1)
            if table.is_prime(p) and table.is_prime(E - p)]


def test_pairs_against_brute_force():
    for E in range(6, 400, 2):
        assert [(g.p1, g.p2) for g in goldbach_pairs(E)] == brute_pairs(E), E


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=100_000).map(lambda h: 2 * h))
def test_pairs_against_brute_force_to_2e5(E):
    assert [(g.p1, g.p2) for g in goldbach_pairs(E)] == brute_pairs(E)


def test_pair_count_table_against_brute_force():
    assert pair_count_table(3000) == [(E, E % 3, len(brute_pairs(E))) for E in range(6, 3001, 2)]


def test_pairs_for_68():
    assert [(g.p1, g.p2) for g in goldbach_pairs(68)] == [(7, 61), (31, 37)]


def test_pair_validation():
    with pytest.raises(DomainError):
        goldbach_pairs(7)
    with pytest.raises(DomainError):
        goldbach_pairs(4)
    with pytest.raises(BudgetError):
        goldbach_pairs(100_000_002)


@pytest.mark.parametrize("fn", [pair_count_table, mismatch_violations, goldbach_solve])
def test_over_primality_budget(fn):
    # the sieve's own 1e8 check, raised before any per-E work
    with pytest.raises(BudgetError):
        fn(100_000_002)


REFERENCE_COUNTS = {  # spot rows of the 6..210 reference table
    6: 1, 8: 1, 10: 2, 38: 2, 68: 2, 90: 9, 120: 12, 128: 3, 144: 11,
    168: 13, 180: 14, 198: 13, 204: 14, 208: 7, 210: 19,
}


def test_pair_count_table():
    rows = pair_count_table(210)
    assert len(rows) == 103
    lookup = {e: n for e, _, n in rows}
    for e, n in REFERENCE_COUNTS.items():
        assert lookup[e] == n, e
    for e, cls, _ in rows:
        assert cls == e % 3


def test_mod3_rules():
    for E in range(6, 2000, 2):
        rule = mod3_rule(E)
        for pair in goldbach_pairs(E):
            assert rule.conforms(pair), (E, pair)
    assert mod3_rule(6).exception_pair == (3, 3)
    assert mod3_rule(12).exception_pair is None


def test_residue_addition_table():
    grid = residue_addition_table(7)
    assert grid.shape == (7, 7)
    assert grid[3, 4] == 0
    assert (grid == 0).sum() == 7
    # P*(P-1) combinations sum to a non-zero residue
    assert (grid != 0).sum() == 7 * 6


def test_residue_addition_table_holds_one_grid():
    tracemalloc.start()
    try:
        grid = residue_addition_table(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.dtype == np.int64
    a = np.arange(1000)
    assert np.array_equal(grid, (a[:, None] + a[None, :]) % 1000)
    assert peak <= 1.1 * grid.nbytes


@pytest.mark.parametrize("p", [10_001, 20_000])
def test_residue_addition_table_over_budget_allocates_nothing(p):
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            residue_addition_table(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_mismatch_filter_68():
    passing = mismatch_filter(68)
    assert passing == [7, 31]          # 19 shares class [5] mod 7 with 68
    assert 19 not in passing


def test_mismatch_filter_trivial_half():
    # 26 = 13 + 13: the trivial solution is appended even though 13 shares
    # residues with 26 at every seed dividing it
    assert 13 in mismatch_filter(26)


def test_mismatch_filter_6():
    # the seeds of 6 are the primes <= sqrt(6): just 2, so 2 (partner 4) is
    # rejected and the trivial half 3 is kept
    assert mismatch_filter(6) == [3]


def test_mismatch_partners_are_prime_small_scan():
    table = primes_up_to(2310)
    for E in range(8, 2311, 2):
        for p1 in mismatch_filter(E):
            assert table.is_prime(E - p1), (E, p1)


def test_batch_scan_matches_scalar_filter():
    # the batch scan agrees with per-E filtering on a sampled range
    violations = mismatch_violations(500)
    assert violations == []


def test_violation_scan_skips_bands_past_the_audit_scope():
    # full seed sets leave no composite partner, so every band is skipped
    assert mismatch_violations(300_000) == []


def test_exact_potential_count():
    # brute force: count residue classes mod 2310 that are odd, coprime to
    # the core seeds and mismatched with E at each odd core seed
    for E in (212, 250, 330, 2310):
        prim = smallest_primorial_at_least(E)
        core = prim.prime_factors
        brute = sum(
            1 for z in range(1, prim.value + 1)
            if z % 2 == 1 and all(z % q != 0 and z % q != E % q for q in core[1:])
        )
        assert exact_potential_goldbach_count(E) == brute, E


def test_exact_potential_count_formula():
    # 330 lies in 2310 = 2*3*5*7*11; 330 = 2*3*5*11: factors 3, 5, 11
    # contribute (q-1), 7 contributes (7-2)
    assert exact_potential_goldbach_count(330) == 2 * 4 * 5 * 10


def test_solver_cases():
    sol = goldbach_solve(26)
    assert sol.case == "case-1" and (sol.pair.p1, sol.pair.p2) == (13, 13)
    sol = goldbach_solve(68)
    assert sol.case == "case-2a" and sol.pair.p1 == 7
    sol = goldbach_solve(98)
    assert sol.case == "case-2b"
    assert sol.pair.p1 + sol.pair.p2 == 98
    assert sol.scaffold_certified


def test_solver_whole_range():
    table = primes_up_to(3000)
    for E in range(6, 3001, 2):
        sol = goldbach_solve(E)
        assert sol.pair.p1 + sol.pair.p2 == E
        assert table.is_prime(sol.pair.p1) and table.is_prime(sol.pair.p2), E


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=3, max_value=5000).map(lambda n: 2 * n))
def test_solver_property(E):
    sol = goldbach_solve(E)
    table = primes_up_to(E)
    assert sol.pair.p1 + sol.pair.p2 == E
    assert table.is_prime(sol.pair.p1) and table.is_prime(sol.pair.p2)


def test_figure2_slopes():
    slopes = figure2_slopes(210)
    assert set(slopes) == {0, 1, 2}
    s0, s1, s2 = slopes[0][0], slopes[1][0], slopes[2][0]
    assert s0 > 2 * s1
    assert s0 > 2 * s2


def test_residue_triples():
    pair = goldbach_pairs(68)[0]
    triples = pair.residue_triples((2, 3, 5, 7, 11, 13))
    assert triples[3] == (7, 5, 0, 5)  # E=68, p1=7, p2=61 under seed 7
    for q, r_e, r1, r2 in triples:
        assert (r1 + r2) % q == r_e


# -- the seed-multiple sieve against the scalar residue rule ------------------


def scalar_mismatch_filter(E, seeds):
    """The residue rule read literally: p1 < E/2 shares no class with E."""
    table = primes_up_to(E)
    out = [int(p1) for p1 in table.ordered_primes
           if 2 * p1 < E and all(p1 % q != E % q for q in seeds)]
    if table.is_prime(E // 2):
        out.append(E // 2)
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=4, max_value=100_000).map(lambda h: 2 * h))
def test_mismatch_filter_matches_scalar_rule(E):
    sps = seed_prime_set(smallest_primorial_at_least(E))
    assert mismatch_filter(E) == scalar_mismatch_filter(E, sps.all_seeds)


def test_mismatch_filter_matches_scalar_rule_small_range():
    for E in range(8, 1000, 2):
        sps = seed_prime_set(smallest_primorial_at_least(E))
        assert mismatch_filter(E) == scalar_mismatch_filter(E, sps.all_seeds), E


def test_violation_scan_matches_scalar_rule_with_short_seed_sets(monkeypatch):
    # With the full seed sets no violation exists; cutting every seed set
    # short (the core and at most two non-core seeds) lets composite partners
    # through, so the gather is exercised.
    def short_max_seed(n):
        core_end = smallest_primorial_at_least(n).largest_factor
        return min(max_seed_prime_for(n), next_prime(next_prime(core_end)))

    monkeypatch.setattr(goldbach, "max_seed_prime_for", short_max_seed)
    upper = 3000
    table = primes_up_to(upper)
    brute = []
    for E in range(6, upper + 1, 2):
        seeds = primes_up_to(short_max_seed(E)).ordered_primes.tolist()
        brute += [(E, p1) for p1 in scalar_mismatch_filter(E, seeds)
                  if not table.is_prime(E - p1)]
    found = mismatch_violations(upper)
    assert found == brute
    assert len(found) > 100


def test_violation_scan_builds_band_masks_over_the_partners_only():
    primes_up_to(10**7).ordered_primes  # the table is not the scan's to pay for
    tracemalloc.start()
    try:
        assert mismatch_violations(10**7) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the value-indexed masks over 0..upper peaked at about 45 MB
    assert peak < 12_000_000


# -- the solver and the filter read the prime table ----------------------------


def solution_row(E):
    s = goldbach_solve(E)
    return repr((E, s.case, s.pair.p1, s.pair.p2, s.A_value, s.B_largest_factor, s.P_Z,
                 s.scaffold_certified, s.note))


def test_solver_golden_pin_to_20000():
    # SHA-256 of every solution row for even 6 <= E <= 20000, as produced by
    # the full-list solver over the seed-multiple sieve
    rows = "\n".join(solution_row(E) for E in range(6, 20001, 2))
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "dc0ea24f7970ca74bfccb07ff9d5b14f487eb4003f3a2e89a01cc7be36a036ba")


def test_solver_takes_the_least_pair_and_classifies_it_by_the_filter():
    table = primes_up_to(20_000)
    for E in range(6, 20_001, 2):
        if table.is_prime(E // 2):
            continue
        sol, filtered = goldbach_solve(E), mismatch_filter(E)
        assert sol.pair.p1 == goldbach_pairs(E)[0].p1, E
        assert bool(sol.note) == (filtered == []), E
        assert (sol.case == "case-2a") == (filtered != [] and sol.pair.p1 <= max_seed_prime_for(E)), E


def blocked_least_k(E, block):
    # odd index of the least Goldbach p1, found by _paired blocks `block` indexes wide
    flags, h, end = primes_up_to(E).odd_prime_mask(), E // 2 - 1, (E + 2) // 4
    for lo in range(1, end, block):
        ks = goldbach._paired(flags, flags, h, lo, min(lo + block, end))
        if ks.size:
            return int(ks[0])


@pytest.mark.parametrize("block", [1, 2, 3])
def test_solver_rows_do_not_depend_on_the_block_width(block):
    table = primes_up_to(3000)
    for E in range(6, 3001, 2):
        if table.is_prime(E // 2):
            continue
        k, sol = blocked_least_k(E, block), goldbach_solve(E)
        assert sol.pair.p1 == 2 * k + 1, E
        assert (sol.note == "") == (k < goldbach._mismatch_end(E, max_seed_prime_for(E))), E


def test_solver_never_lists_the_pairs(monkeypatch):
    row_8, default = solution_row(8), [solution_row(E) for E in range(6, 3001, 2)]

    def no_pairs(E):
        raise AssertionError("goldbach_pairs called")

    monkeypatch.setattr(goldbach, "goldbach_pairs", no_pairs)
    assert solution_row(8) == row_8
    assert [solution_row(E) for E in range(6, 3001, 2)] == default


def test_solver_falls_back_only_at_8():
    assert solution_row(8) == (
        "(8, 'case-2b', 3, 5, 6, 2, 3, True, "
        "'mismatch filter empty; pair found by direct enumeration')")
    assert [E for E in range(6, 100_001, 2) if goldbach_solve(E).note] == [8]


@pytest.mark.parametrize("E", [6, 8, 10, 12] + [P + d for P in (30, 210, 2310, 30030)
                                                for d in (-2, 0, 2)])
def test_mismatch_filter_matches_scalar_rule_at_primorial_edges(E):
    seeds = primes_up_to(max_seed_prime_for(E)).ordered_primes.tolist()
    assert mismatch_filter(E) == scalar_mismatch_filter(E, seeds)


def test_solver_and_filter_read_the_table_without_sieving(monkeypatch):
    E = 999_990
    primes_up_to(10**6).ordered_primes

    def no_sieve(*args, **kwargs):
        raise AssertionError("residue_sieve called")

    monkeypatch.setattr(goldbach, "seed_free_odd_mask", no_sieve)
    monkeypatch.setattr(primes, "residue_sieve", no_sieve)
    sps = seed_prime_set(smallest_primorial_at_least(E))
    assert mismatch_filter(E) == scalar_mismatch_filter(E, sps.all_seeds)
    tracemalloc.start()
    try:
        sol = goldbach_solve(E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (sol.case, sol.pair.p1, sol.pair.p2) == ("case-2a", 7, 999_983)
    # an array of the 41,537 odd primes below E/2 alone takes 330 KB
    assert peak < 16_384


def test_small_reads_after_a_large_table_build_no_prime_array(monkeypatch):
    # a fresh shared table at 10^7, whose own prime array (5.3 MB) is never built
    monkeypatch.setattr(primes, "_table", None)
    primes_up_to.cache_clear()
    try:
        primes_up_to(10**7)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: goldbach_solve(999_990)) < 16_384
        assert peak(lambda: mismatch_filter(999_990)) < 2**20
        assert peak(lambda: primes_up_to(1000).ordered_primes) < 16_384
        assert primes._table._primes is None
    finally:
        primes_up_to.cache_clear()


def test_solver_never_consults_prime_table_views(monkeypatch):
    # the solver reads the shared table's odd flags, not primes_up_to's views
    sweep = list(range(6, 4001, 2)) + [99_998, 510_512, 999_990]
    rows = [solution_row(E) for E in sweep]

    def no_view(limit):
        raise AssertionError(f"primes_up_to({limit})")

    monkeypatch.setattr(goldbach, "primes_up_to", no_view)
    goldbach._scaffold_anchor.cache_clear()
    assert [solution_row(E) for E in sweep] == rows
