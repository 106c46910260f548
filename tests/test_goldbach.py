"""Prime-pair enumeration, mod-3 rules, mismatch filter and solver tests."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslb import goldbach
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
    SeedPrimeSet,
    nth_primorial,
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


def test_mismatch_filter_68():
    sps = seed_prime_set(smallest_primorial_at_least(68))
    passing = mismatch_filter(68, sps)
    assert passing == [7, 31]          # 19 shares class [5] mod 7 with 68
    assert 19 not in passing


def test_mismatch_filter_trivial_half():
    # 26 = 13 + 13: the trivial solution is appended even though 13 shares
    # residues with 26 at every seed dividing it
    sps = seed_prime_set(smallest_primorial_at_least(26))
    assert 13 in mismatch_filter(26, sps)


def test_mismatch_filter_wrong_seed_set():
    sps = seed_prime_set(nth_primorial(5))
    with pytest.raises(DomainError):
        mismatch_filter(68, sps)  # expects the seed set of 210


def test_mismatch_partners_are_prime_small_scan():
    table = primes_up_to(2310)
    for E in range(8, 2311, 2):
        sps = seed_prime_set(smallest_primorial_at_least(E))
        for p1 in mismatch_filter(E, sps):
            assert table.is_prime(E - p1), (E, p1)


def test_batch_scan_matches_scalar_filter():
    # the batch scan agrees with per-E filtering on a sampled range
    violations = mismatch_violations(500)
    assert violations == []


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
        assert exact_potential_goldbach_count(E, prim) == brute, E


def test_exact_potential_count_formula():
    prim = nth_primorial(5)  # 2310, odd core 3,5,7,11
    # 330 = 2*3*5*11: factors 3, 5, 11 contribute (q-1); 7 contributes (7-2)
    assert exact_potential_goldbach_count(330, prim) == 2 * 4 * 5 * 10
    with pytest.raises(DomainError):
        exact_potential_goldbach_count(68, prim)


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
    assert mismatch_filter(E, sps) == scalar_mismatch_filter(E, sps.all_seeds)


def test_mismatch_filter_matches_scalar_rule_small_range():
    for E in range(8, 1000, 2):
        sps = seed_prime_set(smallest_primorial_at_least(E))
        assert mismatch_filter(E, sps) == scalar_mismatch_filter(E, sps.all_seeds), E


def test_violation_scan_matches_scalar_rule_with_short_seed_sets(monkeypatch):
    # With the full seed sets no violation exists; cutting every seed set
    # short lets composite partners through, so the gather is exercised.
    def short_seed_set(prim):
        sps = seed_prime_set(prim)
        return SeedPrimeSet(sps.primorial, sps.core, sps.non_core[:2])

    monkeypatch.setattr(goldbach, "seed_prime_set", short_seed_set)
    upper = 3000
    table = primes_up_to(upper)
    brute = []
    for E in range(6, upper + 1, 2):
        prim = smallest_primorial_at_least(E)
        seeds = short_seed_set(prim).all_seeds if prim.value >= 30 else (2,)
        brute += [(E, p1) for p1 in scalar_mismatch_filter(E, seeds)
                  if not table.is_prime(E - p1)]
    found = mismatch_violations(upper)
    assert found == brute
    assert len(found) > 100
