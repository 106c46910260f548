"""The claim-audit engine: coverage, statuses and report structure."""
import numpy as np
import pytest

from pslb import auditor
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
