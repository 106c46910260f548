"""The claim-audit engine: coverage, statuses and report structure."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from pslb import auditor, census, goldbach, primes, scaffold
from pslb.errors import BudgetError, DomainError


def test_all_claims_covered():
    assert len(auditor.CLAIM_IDS) == 18
    assert set(auditor.CLAIM_IDS) == set(auditor._AUDITS)


def t1_residues(limit=2310):
    """The residues of 1..limit at the seeds of 2310, one column per seed."""
    seeds = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    return np.array([[z % q for q in seeds] for z in range(1, limit + 1)], dtype=np.uint8)


def test_duplicate_rows_counts_one_duplicated_row():
    residues = t1_residues()
    assert auditor._duplicate_rows(residues) == 0
    residues[1000] = residues[7]
    assert auditor._duplicate_rows(residues) == 1
    residues = t1_residues()
    residues[1000, :-1] = residues[7, :-1]  # equal in every column but the last
    assert auditor._duplicate_rows(residues) == 0


def full_row_duplicates(limit, seeds):
    """_duplicate_rows over the whole residue matrix of 1..limit."""
    return auditor._duplicate_rows(np.array([[z % q for q in seeds] for z in range(1, limit + 1)]))


@pytest.mark.parametrize("limit, seeds", [
    (2310, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)),
    (30030, (2, 3, 5, 7, 11, 13)),  # every signature mod 30030 once: no duplicate
    (30031, (2, 3, 5, 7, 11, 13)),  # 30031 repeats the signature of 1
    (100, (2, 3, 5)),
    (1000, (7, 2, 9, 4)),  # any moduli, in any order
    (1, (2, 3)),
])
def test_keyed_duplicate_count_equals_full_rows(limit, seeds):
    assert auditor._duplicate_signatures(limit, seeds) == full_row_duplicates(limit, seeds)


def test_keyed_duplicate_count_of_70_below_100():
    assert auditor._duplicate_signatures(100, (2, 3, 5)) == 70  # 100 integers, 30 signatures


# 64 factors of 2 take the weight of the last modulus to 2^64 = 0 (mod 2^64):
# every odd z gets one key and every even z another, while the rows still differ
WRAPPED = (2,) * 64 + (3,)


@pytest.mark.parametrize("limit, duplicates", [
    (6, 0),  # keys collide, and rows equal in every column but the last are distinct
    (7, 1),  # 7 repeats the row of 1
    (40, 34),
])
def test_keyed_duplicate_count_compares_colliding_rows_in_full(limit, duplicates):
    assert full_row_duplicates(limit, WRAPPED) == duplicates
    assert auditor._duplicate_signatures(limit, WRAPPED) == duplicates


def test_t1_limit_past_the_factor_budget_raises_before_allocating():
    cfg = dict(auditor.SCALES["small"], t1_limit=census.DEFAULT_FACTOR_BUDGET + 1)
    tracemalloc.start()
    try:
        for run in (lambda: auditor.audit("T1", cfg), lambda: auditor.audit_all(cfg)):
            with pytest.raises(BudgetError, match="510510"):
                run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the keys alone would take 4 MB


def test_t1_at_the_factor_budget_passes():
    cfg = dict(auditor.SCALES["small"], t1_limit=census.DEFAULT_FACTOR_BUDGET)
    rep = auditor.audit("T1", cfg)
    assert rep.status == auditor.PASS and not rep.counterexamples


@pytest.mark.parametrize("scale", ["small", "default", "large"])
@pytest.mark.parametrize("order", [("T9", "P6"), ("P6", "T9")])
def test_t9_and_p6_alone_equal_their_audit_all_reports(scale, order):
    auditor._solutions.cache_clear()
    alone = {cid: auditor.audit(cid, scale) for cid in order}
    auditor._solutions.cache_clear()
    together = {r.claim_id: r for r in auditor.audit_all(scale)}
    assert all(alone[cid] == together[cid] for cid in order)


@pytest.mark.parametrize("scale", ["small", "large"])  # t9 hi above, then below p6_upper
def test_t9_and_p6_solve_each_even_number_once(monkeypatch, scale):
    solved = []
    solve = goldbach.goldbach_solve
    monkeypatch.setattr(goldbach, "goldbach_solve", lambda E: solved.append(E) or solve(E))
    auditor._solutions.cache_clear()
    try:
        auditor.audit_all(scale)
    finally:
        auditor._solutions.cache_clear()
    cfg = auditor.SCALES[scale]
    assert solved == list(range(6, max(cfg["t9_range"][1], cfg["p6_upper"]) + 1, 2))


@pytest.mark.parametrize("E", [211, 4])
def test_t9_rejects_an_e_outside_the_shared_solutions(E):
    cfg = dict(auditor.SCALES["small"], t9_range=(E, 1000))
    with pytest.raises(DomainError, match=f"got {E}"):
        auditor.audit("T9", cfg)


def test_t5_reports_a_certified_composite(monkeypatch):
    certified_mask = auditor.certified_mask

    def with_nine(limit, seeds):
        mask = certified_mask(limit, seeds).copy()
        mask[4] = True  # 9 = 2 * 4 + 1
        return mask

    monkeypatch.setattr(auditor, "certified_mask", with_nine)
    rep = auditor.audit("T5", "small")
    assert rep.status == auditor.FAIL
    assert rep.counterexamples == ["9 below 17^2 in row 1", "9 below 53^2 in row 2"]
    # the witnesses name the composite; a clean row says "all prime"
    assert rep.witnesses == ["row 1: 41 potential solutions < 289, 1 composite (9)",
                             "row 2: 329 potential solutions < 2809, 1 composite (9)"]
    monkeypatch.undo()
    assert auditor.audit("T5", "small").witnesses == [
        "row 1: 40 potential solutions < 289 all prime", "row 2: 328 potential solutions < 2809 all prime"]


def drop_prime(monkeypatch, p):
    """Make auditor.primes_up_to return its tables without the prime p: the
    bit of p cleared in a copy of the packed flags, which the bool ones unpack."""
    def without_p(limit):
        bits, i = primes.primes_up_to(limit)._bits.copy(), p // 2
        if p <= limit:
            bits[i >> 3] &= 0xFF ^ (0x80 >> (i & 7))
        return primes.PrimeTable(limit, _bits=bits)

    monkeypatch.setattr(auditor, "primes_up_to", without_p)


def test_t2_reports_a_dropped_prime(monkeypatch):
    drop_prime(monkeypatch, 10_007)  # no seed of 30030, whose seeds end at 173
    rep = auditor.audit("T2", "small")
    assert rep.status == auditor.FAIL
    assert rep.counterexamples == [10_007]
    assert rep.witnesses == []  # no "certified <=> prime" left


def test_p6_reports_each_e_whose_pair_holds_a_dropped_prime(monkeypatch):
    solved = auditor._solutions(auditor.SCALES["small"]["p6_upper"])
    holding = [f"E={E}" for E, sol in solved.items() if 113 in (sol.pair.p1, sol.pair.p2)]
    assert holding == ["E=116", "E=120", "E=124", "E=126", "E=226"]  # 226 = 113 + 113, case 1
    clean = auditor.audit("P6", "small")
    drop_prime(monkeypatch, 113)
    rep = auditor.audit("P6", "small")
    assert rep.status == auditor.FAIL
    assert rep.counterexamples == holding
    # the one witness is the solver's case split, which no table read changes
    assert rep.witnesses == clean.witnesses and clean.witnesses[0].startswith("case split:")


def test_t9_reports_each_e_whose_pair_holds_a_composite(monkeypatch):
    # 992 is the one E of the small range solved through the certified scaffold
    # path; 300 = 9 + 291 and 992 = 9 + 983 each hold the composite 9
    clean = auditor.audit("T9", "small")
    assert clean.witnesses == ["1 even numbers solved through the certified scaffold path"]
    solve = goldbach.goldbach_solve

    def with_nine(E):
        sol = solve(E)
        return dataclasses.replace(sol, pair=goldbach.GoldbachPair(E, 9, E - 9)) if E in (300, 992) else sol

    monkeypatch.setattr(goldbach, "goldbach_solve", with_nine)
    auditor._solutions.cache_clear()
    try:
        rep = auditor.audit("T9", "small")
    finally:
        auditor._solutions.cache_clear()
    assert rep.status == auditor.FAIL
    assert rep.counterexamples == ["E=300: bad pair", "E=992: bad pair"]
    # the witness no longer counts 992 as solved
    assert rep.witnesses == ["0 even numbers solved through the certified scaffold path"]


@pytest.mark.parametrize("pair", [(2, 7), (3, 5), (3, 4)])
def test_t4_mean_holds_for_any_primorial_pair(monkeypatch, pair):
    # B/A cycles share totient(B), so the mean per cycle is totient(B) * A / B,
    # which is totient(B) / P_B only when B = A * P_B
    cfg = dict(auditor.SCALES["small"], t4_pairs=(pair,))
    assert auditor.audit("T4", cfg).status == auditor.PASS
    cycle_census = census.cycle_census

    def one_more(inner, outer, *args, **kwargs):
        first, *rest = cycle_census(inner, outer, *args, **kwargs)
        return [dataclasses.replace(first, potential_primes=first.potential_primes + 1), *rest]

    monkeypatch.setattr(census, "cycle_census", one_more)
    rep = auditor.audit("T4", cfg)
    assert rep.status == auditor.FAIL
    A, B = map(primes.nth_primorial, pair)
    assert [c.split(" != ")[1] for c in rep.counterexamples] == [
        f"totient {census.totient_of_primorial(B)} for {B.value}", f"totient*{A.value}/{B.value}"]


@pytest.mark.parametrize("claim", ["T9", "P6"])
@pytest.mark.parametrize("key, value", [("t9_range", (212, 10**6)), ("p6_upper", 10**6)])
def test_goldbach_ranges_past_the_factor_budget_raise_before_solving(monkeypatch, claim, key, value):
    solved = []
    monkeypatch.setattr(goldbach, "goldbach_solve", lambda E: solved.append(E))
    cfg = dict(auditor.SCALES["small"], **{key: value})
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=f"{key} upper end 1000000 exceeds factor-sieve budget 510510"):
            auditor.audit(claim, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 and solved == []  # 10^6 solutions would hold about 170 MB


def test_goldbach_ranges_at_the_factor_budget_are_accepted(monkeypatch):
    # only the bound is checked here: the solutions themselves are not built
    monkeypatch.setattr(auditor, "_solutions", lambda upper: {})
    budget = census.DEFAULT_FACTOR_BUDGET
    cfg = dict(auditor.SCALES["small"], t9_range=(budget, budget), p6_upper=budget)
    assert auditor._shared_solutions(cfg) == {}


def test_audit_all_small_scale_none_failing():
    reports = auditor.audit_all("small")
    assert len(reports) == 18
    assert [r.claim_id for r in reports] == auditor.CLAIM_IDS
    for r in reports:
        assert r.status in (auditor.PASS, auditor.PASS_WITH_CAVEAT), (r.claim_id, r.counterexamples)
        assert r.scope
        assert not r.counterexamples


def test_single_claim_audit():
    rep = auditor.audit("T3", "small")
    assert rep.claim_id == "T3"
    assert rep.status == auditor.PASS
    assert rep.witnesses


def test_unknown_claim_and_scale():
    with pytest.raises(DomainError):
        auditor.audit("T99")
    with pytest.raises(DomainError):
        auditor.audit("T1", "gigantic")


def test_explicit_scale_config_dict():
    cfg = dict(auditor.SCALES["small"])
    cfg["t8_upper"] = 100
    rep = auditor.audit("T8", cfg)
    assert rep.status == auditor.PASS
    assert "100" in rep.scope


@pytest.mark.parametrize("change, named", [
    (lambda cfg: cfg.clear(), "t1_limit"),
    (lambda cfg: cfg.pop("t9_range"), "t9_range"),
    (lambda cfg: cfg.update(t8_uper=100), "t8_uper"),
    (lambda cfg: cfg.update({7: 1}), "7"),
])
def test_scale_config_dict_with_missing_or_unknown_keys(change, named):
    cfg = dict(auditor.SCALES["small"])
    change(cfg)
    for run in (lambda: auditor.audit("T1", cfg), lambda: auditor.audit_all(cfg)):
        with pytest.raises(DomainError, match=named):
            run()


def test_report_failure_marking():
    rep = auditor.ClaimReport("X", "scope", auditor.PASS)
    rep.counterexamples.append("bad")
    assert rep.finish().status == auditor.FAIL


def test_audit_all_is_exported():
    import pslb

    reports = pslb.audit_all("small")
    assert [r.claim_id for r in reports] == auditor.CLAIM_IDS
    assert all(isinstance(r, pslb.ClaimReport) for r in reports)


T6_WITNESSES = [f"row {k}: T stacks exactly through {p}"
                for k, p in enumerate((13, 47, 173, 709, 3109, 14929), start=1)]


@pytest.mark.parametrize("scale, rows", [("small", 5), ("default", 9), ("large", 9)])
def test_t6_passes_with_exact_witnesses(scale, rows):
    rep = auditor.audit("T6", scale)
    assert rep.status == auditor.PASS and not rep.counterexamples
    assert rep.scope == f"table-17 scaffold rows 1..{rows}"
    assert rep.witnesses == T6_WITNESSES[:min(rows, 6)]
    assert rep.note == "rows past 6 are compared in log space to 1e-10 relative tolerance"


def scale_t_a(monkeypatch, index, fn):
    """Patch build_table17 so that row index carries fn(T_A)."""
    build = scaffold.build_table17

    def patched(rows=9):
        return [dataclasses.replace(r, T_A=fn(r.T_A)) if r.index == index else r for r in build(rows)]

    monkeypatch.setattr(scaffold, "build_table17", patched)


def test_t6_exact_branch_reports_a_wrong_count(monkeypatch):
    scale_t_a(monkeypatch, 3, lambda t: t + 1)
    rep = auditor.audit("T6", "default")
    assert rep.status == auditor.FAIL
    assert len(rep.counterexamples) == 1 and rep.counterexamples[0].startswith("row 3: ")
    assert "row 3: T stacks exactly through 173" not in rep.witnesses


def test_t6_log_branch_reports_a_wrong_count(monkeypatch):
    scale_t_a(monkeypatch, 8, lambda t: 2 * t)
    rep = auditor.audit("T6", "default")
    assert rep.status == auditor.FAIL
    assert len(rep.counterexamples) == 1
    assert rep.counterexamples[0].startswith("row 8: log identity off by 0.693")


def test_t6_reads_its_span_in_blocks():
    auditor.audit("T6", "default")  # warm the scaffold's prefix table
    tracemalloc.start()
    try:
        auditor.audit("T6", "default")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


@pytest.mark.parametrize("block", [1, 3, 1 << 15])
def test_t6_block_sum_matches_fsum_of_logs(monkeypatch, block):
    monkeypatch.setattr(auditor, "_T6_BLOCK", block)
    primes = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
    for i, j in ((1, 15), (2, 7), (5, 6), (3, 14)):
        want = math.fsum(math.log(q - 2) for q in primes[i:j].tolist())
        assert auditor._sum_log_q_minus_2(primes, i, j) == pytest.approx(want, rel=1e-13)
