"""The claim-audit engine: coverage, statuses and report structure."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from pslb import auditor, scaffold
from pslb.errors import DomainError


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
