"""Empirical audit of the framework's eighteen structural claims at a
configurable finite scale.

Audits never assert beyond their tested scope; report language is always
"holds for all tested n <= X".
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import census, goldbach, scaffold
from .errors import DomainError, _check_budget
from .primes import nth_primorial, primes_up_to, seed_prime_set, smallest_primorial_at_least
from .signatures import certified_mask, potential_prime_mask, signature, crt_reconstruct

CLAIM_IDS = [
    "T1", "T2", "T3", "C3.1", "C3.2", "T4", "T5", "T6",
    "L6.1", "L6.2", "L6.3", "T7", "T8", "T9", "FN14", "FN15", "P5", "P6",
]

# primes per block when T6 sums logs over a scaffold span
_T6_BLOCK = 1 << 15

PASS = "pass"
FAIL = "fail"
PASS_WITH_CAVEAT = "pass-with-caveat"

SCALES = {
    "small": dict(
        t1_limit=2310, t2_limit=30030, t3_k=5, c32_ks=(5,), t4_pairs=((3, 4), (4, 5)),
        t5_rows=2, t6_rows=5, t8_upper=2310, t9_range=(212, 1000), p6_upper=500,
    ),
    "default": dict(
        t1_limit=30030, t2_limit=510510, t3_k=5, c32_ks=(5, 6, 7), t4_pairs=((3, 4), (4, 5), (5, 6)),
        t5_rows=3, t6_rows=9, t8_upper=10000, t9_range=(212, 2308), p6_upper=2310,
    ),
    "large": dict(
        t1_limit=30030, t2_limit=510510, t3_k=6, c32_ks=(5, 6, 7), t4_pairs=((3, 4), (4, 5), (5, 6)),
        t5_rows=3, t6_rows=9, t8_upper=30030, t9_range=(212, 2308), p6_upper=10000,
    ),
}


@dataclass
class ClaimReport:
    """Outcome of auditing one claim over a finite scope."""

    claim_id: str
    scope: str
    status: str
    witnesses: list = field(default_factory=list)
    counterexamples: list = field(default_factory=list)
    note: str = ""

    def finish(self) -> "ClaimReport":
        if self.counterexamples:
            self.status = FAIL
        return self


def _cfg(scale_config) -> dict:
    """The scale dict of a scale name or dict; a dict's budgeted keys are checked,
    before any claim runs, against the limits that would refuse them further down."""
    if isinstance(scale_config, str):
        try:
            return SCALES[scale_config]  # each within every budget
        except KeyError:
            raise DomainError(f"unknown scale {scale_config!r}; use small|default|large")
    cfg, keys = dict(scale_config), SCALES["default"].keys()
    if cfg.keys() != keys:
        raise DomainError(f"scale config keys: missing {sorted(keys - cfg.keys())}, "
                          f"unknown {sorted(map(repr, cfg.keys() - keys))}")
    factor = [("t1_limit", cfg["t1_limit"]), ("t9_range upper end", cfg["t9_range"][1]),
              ("p6_upper upper end", cfg["p6_upper"]), ("t3_k primorial", nth_primorial(cfg["t3_k"]).value)]
    for ka, kb in cfg["t4_pairs"]:
        inner, outer = nth_primorial(ka).value, nth_primorial(kb).value
        factor.append(("t4_pairs outer primorial", outer))
        _check_budget("t4_pairs cycles", outer // inner, "census cycle cap")
    for asked, demand in factor:
        _check_budget(asked, demand, "factor-sieve budget")
    for asked, demand in [("t2_limit", cfg["t2_limit"]), ("t8_upper", cfg["t8_upper"]),
                          *(("c32_ks primorial", nth_primorial(k).value) for k in cfg["c32_ks"])]:
        _check_budget(asked, demand, "primality budget")
    return cfg


def _duplicate_rows(rows: np.ndarray) -> int:
    """Number of rows equal to an earlier row: the rows are sorted by a
    lexsort over the columns, so equal rows become neighbours."""
    ordered = rows[np.lexsort(rows.T)]
    return int(np.count_nonzero((ordered[1:] == ordered[:-1]).all(axis=1)))


def _duplicate_signatures(limit: int, seeds) -> int:
    """Number of z in 1..limit whose residues at the seeds equal a smaller z's.

    Each z's residues are folded into one uint64 key, the sum of (z mod q_i) * W_i
    with W_i the product of the earlier seeds mod 2^64 (the CRT's mixed-radix
    digits, Knuth, TAOCP vol. 2, 4.3.2). Equal rows have equal keys, so with no
    two keys equal there is no duplicate; only the z whose keys collide have
    their full rows compared.
    """
    keys, weight = np.zeros(limit + 1, dtype=np.uint64), 1  # indexed by z, 0 included
    for q in seeds:
        digits = np.arange(q, dtype=np.uint64) * np.uint64(weight)  # wraps mod 2^64
        n = keys.size // q * q
        rows = keys[:n].reshape(-1, q)  # a view of keys: row r holds z = rq .. rq + q - 1
        rows += digits
        keys[n:] += digits[: keys.size - n]
        weight = weight * q % 2**64
    keys = keys[1:]
    ordered = np.sort(keys)
    clashing = ordered[1:][ordered[1:] == ordered[:-1]]
    if not clashing.size:
        return 0
    z = 1 + np.flatnonzero(np.isin(keys, clashing))
    return _duplicate_rows(np.stack([z % q for q in seeds], axis=1))


def _audit_t1(cfg) -> ClaimReport:
    limit = cfg["t1_limit"]
    prim = smallest_primorial_at_least(limit)
    seeds = seed_prime_set(prim).all_seeds
    duplicates = _duplicate_signatures(limit, seeds)
    rep = ClaimReport("T1", f"all integers 1..{limit} under seed primes of {prim.value}", PASS)
    if duplicates:
        rep.counterexamples.append(f"{duplicates} duplicate signatures")
    for w in (13, limit // 2, limit - 1):
        sig = signature(w, seeds)
        if crt_reconstruct(sig) % prim.value != w % prim.value:
            rep.counterexamples.append(f"CRT round-trip failed at {w}")
        else:
            rep.witnesses.append(f"signature({w}) reconstructs to {w}")
    rep.note = "signatures pairwise distinct; CRT reconstruction spot-checked"
    return rep.finish()


def _audit_t2(cfg) -> ClaimReport:
    limit = cfg["t2_limit"]
    prim = smallest_primorial_at_least(limit)
    sps = seed_prime_set(prim)
    cert = certified_mask(limit, sps.all_seeds)
    table = primes_up_to(limit)
    # an even z is neither certified nor, unless it is the seed 2, prime
    z = 2 * np.flatnonzero(cert != table.odd_prime_mask()) + 1
    bad = z[~np.isin(z, np.array(sps.all_seeds))]
    rep = ClaimReport("T2", f"all non-seed z <= {limit} under seeds of {prim.value}", PASS)
    if len(bad):
        rep.counterexamples = [int(b) for b in bad[:10]]
    else:
        rep.witnesses.append(f"certified <=> prime for all tested z (pi({limit}) = {table.prime_count})")
    return rep.finish()


def _spf_array(limit: int) -> np.ndarray:
    table = primes_up_to(limit)
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in table.ordered_primes:
        p = int(p)
        if p * p > limit:
            break
        sl = spf[p * p :: p]
        sl[sl == 0] = p
    primes_mask = table.prime_mask()
    spf[primes_mask] = np.flatnonzero(primes_mask)
    # composites q*r with q > sqrt(limit) cannot occur; remaining zeros are 0,1
    return spf


def _audit_t3(cfg) -> ClaimReport:
    prim = nth_primorial(cfg["t3_k"])
    sps = seed_prime_set(prim)
    spf = _spf_array(prim.value)
    rep = ClaimReport("T3", f"all seed primes of primorial {prim.value}", PASS)
    for q in sps.all_seeds:
        owned = np.flatnonzero(spf == q)
        owned = owned[(owned > q)]  # composites whose least factor is q
        if len(owned):
            first = int(owned[0])
            if first != q * q:
                rep.counterexamples.append(f"first new composite of {q} is {first}, not {q*q}")
    ncs = census.new_composites(prim)
    rep.witnesses.append(f"least non-core composite {ncs.least_member} = {sps.smallest_non_core}^2")
    if sps.smallest_non_core and ncs.least_member != sps.smallest_non_core**2:
        rep.counterexamples.append(f"least new composite {ncs.least_member}")
    return rep.finish()


def _audit_c31(cfg) -> ClaimReport:
    prim = nth_primorial(cfg["t3_k"])
    prev = nth_primorial(cfg["t3_k"] - 1)
    spf = _spf_array(prim.value)
    members = census.new_composites(prim).members
    rep = ClaimReport("C3.1", f"all {len(members)} new composites of {prim.value} (M = {prev.value})", PASS)
    for m in members:
        m = int(m)
        cofactor = m // int(spf[m])
        if cofactor >= prev.value:
            rep.counterexamples.append(f"{m}: cofactor {cofactor} >= {prev.value}")
    if not rep.counterexamples:
        rep.witnesses.append(f"every cofactor < {prev.value}")
    return rep.finish()


def _audit_c32(cfg) -> ClaimReport:
    scopes = []
    rep = ClaimReport("C3.2", "", PASS)
    for k in cfg["c32_ks"]:
        prim = nth_primorial(k)
        sps = seed_prime_set(prim)
        bound = sps.smallest_non_core**2
        z = 2 * np.flatnonzero(potential_prime_mask(prim.value, sps.core)) + 1
        cand = z[(z < bound) & ~np.isin(z, np.array(sps.non_core))]
        for c in cand:
            c = int(c)
            if any(c % q == 0 for q in sps.non_core):
                rep.counterexamples.append(f"{c} under {prim.value}")
        scopes.append(f"{prim.value} (bound {bound})")
        rep.witnesses.append(f"{len(cand)} potential primes below {bound} in {prim.value} all clean")
    rep.scope = "primorials " + ", ".join(scopes)
    return rep.finish()


def _audit_t4(cfg) -> ClaimReport:
    rep = ClaimReport("T4", "", PASS)
    scopes = []
    for ka, kb in cfg["t4_pairs"]:
        A, B = nth_primorial(ka), nth_primorial(kb)
        rows = census.cycle_census(A, B)
        counts = [r.potential_primes for r in rows]
        tot = census.totient_of_primorial(B)
        if sum(counts) != tot:
            rep.counterexamples.append(f"sum of cycle counts {sum(counts)} != totient {tot} for {B.value}")
        mean = sum(counts) / len(counts)
        expect = tot * A.value / B.value  # B/A cycles share totient(B)
        if abs(mean - expect) > 1e-9:
            rep.counterexamples.append(f"mean {mean} != totient*{A.value}/{B.value}")
        std = float(np.std(counts))
        rep.witnesses.append(
            f"{A.value} in {B.value}: mean {mean:.2f}, stddev {std:.2f} (no variance bound claimed)"
        )
        scopes.append(f"({A.value}, {B.value})")
    rep.scope = "primorial pairs " + ", ".join(scopes)
    rep.note = "empirical standard deviation reported without a pass/fail threshold"
    return rep.finish()


def _audit_t5(cfg) -> ClaimReport:
    rows = scaffold.build_table21(cfg["t5_rows"])
    rep = ClaimReport("T5", "", PASS)
    scopes = []
    for row in rows:
        limit = min(row.A.value, row.smallest_non_core_squared - 1)
        core_of_b = tuple(int(q) for q in primes_up_to(row.B_largest_factor).ordered_primes)
        # both masks index the odd integers up to limit, so one gather of
        # the prime flags at the certified indexes checks them all
        certified = np.flatnonzero(certified_mask(limit, core_of_b))
        bad = (2 * certified[~primes_up_to(limit).odd_prime_mask()[certified]] + 1).tolist()
        rep.counterexamples.extend(f"{b} below {row.smallest_non_core}^2 in row {row.index}" for b in bad)
        found = f", {len(bad)} composite ({', '.join(map(str, bad))})" if bad else " all prime"
        rep.witnesses.append(
            f"row {row.index}: {len(certified)} potential solutions < {row.smallest_non_core_squared}{found}"
        )
        scopes.append(f"A={row.A.value}")
    rep.scope = "scaffold rows " + ", ".join(scopes)
    return rep.finish()


def _sum_log_q_minus_2(primes: np.ndarray, i: int, j: int) -> float:
    """Sum of log(q - 2) over primes[i:j]: NumPy sums each block pairwise,
    and the few block sums are added with math.fsum."""
    return math.fsum(float(np.log(primes[b:min(b + _T6_BLOCK, j)] - 2.0).sum())
                     for b in range(i, j, _T6_BLOCK))


def _audit_t6(cfg) -> ClaimReport:
    # The stacking identity: the solution count of the larger primorial N
    # equals the smaller one's count times (q - 2) over the cycle primes.
    rows = scaffold.build_table17(cfg["t6_rows"])
    rep = ClaimReport("T6", f"table-17 scaffold rows 1..{cfg['t6_rows']}", PASS)
    for row in rows:
        # q - 2 over the odd primes up to P_b, and over the cycle primes P_s..P_b,
        # read off the prefix table that build_table17 has just built
        table, i, j = scaffold._prime_span(row.P_s, row.P_b)
        if row.index <= 6:
            odd_to_pz = (table.primes[1:j] - 2).tolist()
            t_n = math.prod(odd_to_pz)
            stacked = row.T_A * math.prod(odd_to_pz[i - 1:])
            if stacked != t_n:
                rep.counterexamples.append(f"row {row.index}: {stacked} != {t_n}")
            else:
                rep.witnesses.append(f"row {row.index}: T stacks exactly through {row.P_b}")
        else:
            lhs = math.log(row.T_A) + _sum_log_q_minus_2(table.primes, i, j)
            rhs = _sum_log_q_minus_2(table.primes, 1, j)
            if abs(lhs - rhs) > 1e-10 * max(1.0, abs(rhs)):
                rep.counterexamples.append(f"row {row.index}: log identity off by {abs(lhs-rhs)}")
    rep.note = "rows past 6 are compared in log space to 1e-10 relative tolerance"
    return rep.finish()


def _audit_l61(cfg) -> ClaimReport:
    rows = scaffold.build_table17(cfg["t6_rows"])
    rep = ClaimReport("L6.1", f"table-17 rows 1..{len(rows)}", PASS)
    for row in rows:
        if row.index <= 4:
            pf = scaffold.product_factor_fraction(row.P_s, row.P_b)
            ok = Fraction(row.T_A) > 1 / pf
        else:
            ok = math.log(row.T_A) > -math.log(row.product_factor)
        if not ok:
            rep.counterexamples.append(f"row {row.index}: T(M) <= 1/product factor")
        # step-1 assertion carried without proof in the source argument
        if not row.T_A > math.isqrt(row.A.value) / row.P_a:
            rep.counterexamples.append(f"row {row.index}: T(M) <= sqrt(M)/P_M")
    rep.witnesses.append("T(M) exceeds the reciprocal product factor on every row")
    rep.note = "the unproved step T(M) > sqrt(M)/P_M is checked per row, not certified in general"
    return rep.finish()


def _audit_l62(cfg) -> ClaimReport:
    rows = scaffold.build_table18(cfg["t6_rows"])
    rep = ClaimReport("L6.2", f"successive table-17 average ratios, rows 2..{cfg['t6_rows']}", PASS)
    for row in rows:
        if not row.ratio > 1.0:
            rep.counterexamples.append(f"row {row.index}: ratio {row.ratio} <= 1")
    rep.witnesses.append(f"ratios span {rows[0].ratio:.4f} .. {rows[-1].ratio:.4f}, all > 1")
    return rep.finish()


def _audit_l63(cfg) -> ClaimReport:
    rows = scaffold.build_table17(cfg["t6_rows"])
    rep = ClaimReport("L6.3", f"table-17 rows with M >= 210 (all {len(rows)})", PASS)
    for row in rows:
        if not row.avg_T_A > 10:
            rep.counterexamples.append(f"row {row.index}: avg {row.avg_T_A} <= 10")
    rep.witnesses.append(f"smallest average {min(r.avg_T_A for r in rows):.2f} > 10")
    return rep.finish()


def _audit_t7(cfg) -> ClaimReport:
    rows = scaffold.build_table19_20(min(cfg["t6_rows"], 8))
    rep = ClaimReport("T7", f"three-primorial scaffold rows 1..{len(rows)}", PASS)
    for row in rows:
        delta = row.avg_T_B - row.avg_T_A
        ident = row.avg_T_A * (row.P_b - 1)
        if not math.isclose(delta, ident, rel_tol=1e-12):
            rep.counterexamples.append(f"row {row.index}: delta identity off")
        if not delta > 5:
            rep.counterexamples.append(f"row {row.index}: delta {delta} <= 5")
    rep.witnesses.append("avg T(B in C) - avg T(A in C) = avg T(A in C)*(P_b - 1) > 5 on every row")
    rep.note = (
        "average surpluses do not bound per-cycle minima; see the P5 report for measured minima"
    )
    return rep.finish()


def _audit_t8(cfg) -> ClaimReport:
    # T8 holds by construction: the partner E - p1 lies below E, so below the
    # enclosing primorial, and the seeds reach its square root, so a partner
    # with no seed factor is prime. The brute scan stays as the claim's oracle.
    upper = cfg["t8_upper"]
    violations = goldbach.mismatch_violations(upper)
    rep = ClaimReport("T8", f"all even 6 <= E <= {upper}", PASS)
    rep.counterexamples = [f"E={e}, p1={p}" for e, p in violations[:10]]
    if not violations:
        rep.witnesses.append(f"every mismatch-filter prime yields a prime partner up to {upper}")
    return rep.finish()


@lru_cache(maxsize=1)  # T9 and P6 read one range; a process holds at most one
def _solutions(upper: int) -> dict:
    """goldbach_solve(E) for every even 6 <= E <= upper, keyed by E."""
    return {E: goldbach.goldbach_solve(E) for E in range(6, upper + 1, 2)}


def _shared_solutions(cfg) -> dict:
    """The solutions of every E that T9 or P6 of this config audits, whose ranges _cfg checked."""
    return _solutions(max(cfg["t9_range"][1], cfg["p6_upper"]))


def _good_pairs(solved: dict, upper: int) -> np.ndarray:
    """Whether each solution of solved (E -> GoldbachSolution, each E <= upper)
    has a pair of primes that sums to E: one gather of the odd flags of
    primes_up_to(upper), in the order of solved."""
    evens = np.fromiter(solved, dtype=np.int64, count=len(solved))
    pairs = np.array([(sol.pair.p1, sol.pair.p2) for sol in solved.values()], dtype=np.int64)
    pairs = pairs.reshape(-1, 2)  # (0, 2) when solved is empty
    odd = (pairs > 0) & (pairs <= upper) & (pairs & 1 == 1)
    flags = primes_up_to(upper).odd_prime_mask()
    prime = (pairs == 2) | (odd & flags[np.where(odd, pairs >> 1, 0)])
    return prime.all(axis=1) & (pairs.sum(axis=1) == evens)


def _audit_t9(cfg) -> ClaimReport:
    lo, hi = cfg["t9_range"]
    rep = ClaimReport("T9", f"even E in [{lo}, {hi}] (full construction where B fits the sieve budget)", PASS)
    solved = _shared_solutions(cfg)
    # an E that is not an even number > 4 is not shared; the solver rejects it
    solved = {E: solved.get(E) or goldbach.goldbach_solve(E) for E in range(lo, hi + 1, 2)}
    full = 0
    for (E, sol), good in zip(solved.items(), _good_pairs(solved, hi)):
        if not good:
            rep.counterexamples.append(f"E={E}: bad pair")
        elif sol.case == "case-2b" and sol.scaffold_certified:
            full += 1
    rep.witnesses.append(f"{full} even numbers solved through the certified scaffold path")
    rep.note = "beyond the sieve budget only the mismatch-filter consequence is audited"
    return rep.finish()


def _audit_fn14(cfg) -> ClaimReport:
    rep = ClaimReport("FN14", "all (P_M, P_Z) pairs in scaffold tables 17-21", PASS)
    pairs = []
    for row in scaffold.build_table17(9) + scaffold.build_table21(9):
        pairs.append((row.P_a, row.P_s, row.P_b))
    for row in scaffold.build_table19_20(8):
        pairs.append((row.P_b, row.P_s, row.C_largest_factor))
    for pm, ps, pz in pairs:
        recip = 1.0 / scaffold.product_factor(ps, pz)
        if not pz / pm > recip:
            rep.counterexamples.append(f"P_Z/P_M = {pz}/{pm} <= {recip:.4f}")
    rep.witnesses.append(f"{len(pairs)} prime pairs audited")
    return rep.finish()


def _audit_fn15(cfg) -> ClaimReport:
    rows = scaffold.build_table17(9)
    rep = ClaimReport("FN15", "successive table-17 rows", PASS)
    for prev, cur in zip(rows, rows[1:]):
        m1, m2 = prev.A.value, cur.A.value
        pz1 = prev.P_b
        ps1 = cur.A.largest_factor
        if not (math.sqrt(m1) > pz1 > math.sqrt(m1) / 2):
            rep.counterexamples.append(f"M1={m1}: sqrt bracketing fails for P_Z1={pz1}")
        if not ps1 > math.sqrt(m2) / pz1:
            rep.counterexamples.append(f"M1={m1}: P_S1={ps1} <= sqrt({m2})/{pz1}")
    rep.witnesses.append("Bertrand bracketing and the P_S1 bound hold on every row")
    return rep.finish()


def _audit_p5(cfg) -> ClaimReport:
    # Construction seeded at N = 31; C is evaluated at the down-scaled
    # surrogate (cycles of B inside the next primorial) where it is finite.
    A, B = nth_primorial(4), nth_primorial(5)
    row = scaffold.build_table19_20(1)[0]
    rep = ClaimReport("P5", "construction at N = 31: A=210, B=2310, C=47#", PASS)
    if not row.avg_T_B - row.avg_T_A > 5:
        rep.counterexamples.append("T(B_C) - T(A_C) <= 5")
    if not row.smallest_non_core_squared > B.value:
        rep.counterexamples.append(f"{row.smallest_non_core}^2 <= {B.value}")
    rows = census.cycle_census(B, nth_primorial(6))
    twins = [r.potential_twins for r in rows]
    lo, hi_, mean = min(twins), max(twins), sum(twins) / len(twins)
    rep.witnesses.append(
        f"per-cycle potential twins of B in surrogate C-scale {nth_primorial(6).value}: "
        f"min {lo}, max {hi_}, mean {mean:.2f}"
    )
    if lo == 0:
        rep.status = PASS_WITH_CAVEAT
        rep.note = "a cycle with zero potential twins was observed; the average-based step is not per-cycle safe"
    else:
        rep.note = (
            "averages exceeded 5 and the measured per-cycle minimum stayed positive at this scale; "
            "the inference from averages to minima is still not general"
        )
    return rep.finish()


def _audit_p6(cfg) -> ClaimReport:
    upper = cfg["p6_upper"]
    rep = ClaimReport("P6", f"goldbach_solve for all even 6 <= E <= {upper}", PASS)
    cases = {"case-1": 0, "case-2a": 0, "case-2b": 0}
    fallbacks = 0
    solved = _shared_solutions(cfg)
    solved = {E: solved[E] for E in range(6, upper + 1, 2)}
    for (E, sol), good in zip(solved.items(), _good_pairs(solved, upper)):
        if not good:
            rep.counterexamples.append(f"E={E}")
        cases[sol.case] += 1
        if sol.note:
            fallbacks += 1
    rep.witnesses.append(
        f"case split: {cases['case-1']} trivial, {cases['case-2a']} seed-prime, {cases['case-2b']} general"
    )
    if fallbacks:
        rep.note = f"{fallbacks} even numbers solved by direct enumeration where the mismatch filter was empty"
    return rep.finish()


_AUDITS = {
    "T1": _audit_t1, "T2": _audit_t2, "T3": _audit_t3, "C3.1": _audit_c31,
    "C3.2": _audit_c32, "T4": _audit_t4, "T5": _audit_t5, "T6": _audit_t6,
    "L6.1": _audit_l61, "L6.2": _audit_l62, "L6.3": _audit_l63, "T7": _audit_t7,
    "T8": _audit_t8, "T9": _audit_t9, "FN14": _audit_fn14, "FN15": _audit_fn15,
    "P5": _audit_p5, "P6": _audit_p6,
}


def audit(claim_id: str, scale_config="default") -> ClaimReport:
    """Audit one claim over the finite scope given by the scale config."""
    if claim_id not in _AUDITS:
        raise DomainError(f"unknown claim id {claim_id!r}; valid: {', '.join(CLAIM_IDS)}")
    return _AUDITS[claim_id](_cfg(scale_config))


def audit_all(scale_config="default") -> list[ClaimReport]:
    """One report per claim, in source order."""
    cfg = _cfg(scale_config)
    return [_AUDITS[cid](cfg) for cid in CLAIM_IDS]
