"""`paper` workload: the paper's tables, figures and audit through `pslb.cli.main`.

Every command runs in one process, in a fixed order, followed by a few
seeded `goldbach` and `signature` queries at the paper's 30030 scale. Each
command's output is parsed and checked against `oracle`.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from fractions import Fraction

import oracle
from oracle import expect
from workload import Op, check_census, check_figure1, cli_op

SEEDED_QUERIES = 3  # per kind: goldbach E and signature z


def make_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "goldbach": [2 * rng.randrange(50, 15016) for _ in range(SEEDED_QUERIES)],
        "signature": [rng.randrange(30, 30031) for _ in range(SEEDED_QUERIES)],
    }


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _int(cell: str) -> int | None:
    return int(cell) if cell not in ("", None) else None


# -- generic table properties ------------------------------------------------

_VALUE_COLUMNS = ("integer", "odd", "value")


def _check_residues(rows: list[dict]) -> None:
    """Every mod_q / odd_mod_q / even_mod_q cell is the row's value mod q."""
    for row in rows:
        key = next((k for k in _VALUE_COLUMNS if k in row), None)
        z = _int(row[key]) if key else None
        if z is None:
            continue
        for col, cell in row.items():
            m = re.fullmatch(r"(odd_|even_)?mod_(\d+)", col)
            if not m:
                continue
            q = int(m.group(2))
            parity = m.group(1)
            applies = parity is None or (parity == "odd_") == (z % 2 == 1)
            want = str(z % q) if applies else ""
            expect(cell == want, f"{col} of {z} is {cell!r}, expected {want!r}")
        if "prime" in row:
            expect((row["prime"] == "X") == oracle.is_prime(z), f"prime flag of {z}")


def _check_table1(rows):
    expect([_int(r["integer"]) for r in rows] == list(range(1, 31)), "table 1 integers")
    for r in rows:
        z = int(r["integer"])
        twin = z % 2 == 1 and z >= 5 and oracle.is_prime(z) and oracle.is_prime(z - 2)
        expect((r["twin"] == "X") == twin, f"twin flag of {z}")


def _check_table3(rows):
    expect(sorted(int(r["odd"]) for r in rows) == list(range(1, 210, 2)), "table 3 members")
    for r in rows:
        expect(int(r["class_mod_30"]) == int(r["odd"]) % 30, f"class of {r['odd']}")


def _check_table5(rows):
    cycles = [r for r in rows if r["count"].isdigit()]
    check_census(cycles, 2310, 30030)
    summary = {r["count"]: r for r in rows if not r["count"].isdigit()}
    for col in ("potential_primes", "potential_twins", "false_twins", "true_twins"):
        values = [int(r[col]) for r in cycles]
        expect(int(summary["Min"][col]) == min(values), f"Min {col}")
        expect(int(summary["Max"][col]) == max(values), f"Max {col}")


def _check_table6(rows):
    for r in rows:
        z = int(r["odd"])
        pp = math.gcd(z, 2310) == 1
        expect((r["potential_prime"] == "X") == pp, f"potential prime flag of {z}")
        pt = pp and math.gcd(z - 2, 2310) == 1
        expect((r["potential_twin"] == "X") == pt, f"potential twin flag of {z}")


def _check_table9(rows):
    label = {"[0]": 0, "[1]": 1, "[2]": 2, "3": 0}
    even = None
    for r in rows:
        if r["even_class"].startswith("exception"):
            continue
        if r["even_class"]:
            even = label[r["even_class"]]
        expect((label[r["p1"]] + label[r["p2"]]) % 3 == even,
               f"{r['p1']} + {r['p2']} is not in class {even}")


def _check_table10(rows):
    expect([int(r["even"]) for r in rows] == list(range(6, 211, 2)), "table 10 evens")
    for r in rows:
        E = int(r["even"])
        expect(int(r["mod_3"]) == E % 3, f"mod 3 of {E}")
        expect(int(r["pairs"]) == oracle.pair_count(E), f"pair count of {E}")


def _check_table11(rows):
    expect(sorted(int(r["addend"]) for r in rows) == list(range(7)), "addends")
    for r in rows:
        a = int(r["addend"])
        for b in range(7):
            expect(int(r[str(b)]) == (a + b) % 7, f"{a} + {b} mod 7")


def _check_signature_triple(rows):
    by_role = {r["role"]: int(r["value"]) for r in rows}
    expect(by_role["p1"] + by_role["p2"] == by_role["even"], "p1 + p2 != even")


def _check_table16(rows):
    primes = oracle.first_primes(10)
    for r in rows:
        k = int(r["count"])
        factors = primes[:k]
        expect(int(r["prime"]) == factors[-1], f"row {k} prime")
        if k < 2:
            continue
        expect(int(r["primorial"]) == math.prod(factors), f"row {k} primorial")
        expect(int(r["factor_minus_1"]) == factors[-1] - 1, f"row {k} factor - 1")
        expect(int(r["factor_minus_2"]) == factors[-1] - 2, f"row {k} factor - 2")
        if k >= 3:
            expect(int(r["potential_primes"]) == math.prod(p - 1 for p in factors),
                   f"row {k}: phi is not the product of (p - 1)")
            expect(int(r["potential_solutions"]) == math.prod(p - 2 for p in factors[1:]),
                   f"row {k}: T is not the product of (p - 2)")


def _scaffold_base(k: int) -> tuple[list[int], int]:
    factors = oracle.first_primes(k + 3)
    return factors, math.prod(factors)


def _t(factors) -> int:
    return math.prod(p - 2 for p in factors[1:])


def _check_table17(rows):
    expect(len(rows) == 9, "table 17 rows")
    for r in rows:
        factors, M = _scaffold_base(int(r["index"]))
        P_z = oracle.prev_prime(math.isqrt(M))
        expect((int(r["M"]), int(r["P_m"]), int(r["P_z"])) == (M, factors[-1], P_z),
               f"row {r['index']}: M, P_m, P_z")
        expect(r["N"] == f"{P_z}#" and int(r["T_M"]) == _t(factors), f"row {r['index']}: N, T")
        pf = oracle.product_enclosure(oracle.next_prime(factors[-1]), P_z)
        expect(oracle.matches_printed(r["product_factor"], pf),
               f"row {r['index']}: product factor {r['product_factor']}")
        expect(int(r["avg_T_M_in_N"]) in oracle.rounded_half_up(pf, _t(factors)),
               f"row {r['index']}: average T * product factor")


def _check_table18(rows):
    for r in rows[1:]:
        k = int(r["index"])
        factors, M = _scaffold_base(k)
        expect(int(r["M"]) == M, f"row {k}: M")
        expect(int(r["T_ratio"]) == factors[-1] - 2, f"row {k}: T ratio != P_m - 2")
        ratio, pf_ratio = Fraction(r["ratio"]), Fraction(r["pf_ratio"])
        # both ratios are printed to 4 places
        slack = (int(r["T_ratio"]) + 1) * Fraction(5, 10**5)
        expect(abs(ratio - int(r["T_ratio"]) * pf_ratio) <= slack,
               f"row {k}: ratio != T ratio * product-factor ratio")


def _check_table19(rows):
    expect(len(rows) == 8, "table 19 rows")
    for r in rows:
        factors, A = _scaffold_base(int(r["index"]))
        P_b = oracle.next_prime(factors[-1])
        P_c = oracle.prev_prime(math.isqrt(A * P_b))
        expect((int(r["A"]), int(r["B"]), int(r["P_b"]), int(r["P_c"])) == (A, A * P_b, P_b, P_c),
               f"row {r['index']}: A, B, P_b, P_c")
        pf = oracle.product_enclosure(P_b, P_c)
        expect(oracle.matches_printed(r["product_factor"], pf),
               f"row {r['index']}: product factor {r['product_factor']}")
        expect(int(r["avg_T_A_in_C"]) in oracle.rounded_half_up(pf, _t(factors)),
               f"row {r['index']}: average T * product factor")


def _check_table20(rows):
    for r in rows:
        factors, A = _scaffold_base(int(r["index"]))
        P_b = oracle.next_prime(factors[-1])
        P_c = oracle.prev_prime(math.isqrt(A * P_b))
        P_z = oracle.next_prime(P_c)
        expect((int(r["P_s"]), int(r["P_c"]), int(r["P_z"])) == (oracle.next_prime(P_b), P_c, P_z),
               f"row {r['index']}: P_s, P_c, P_z")
        expect(int(r["P_z_squared"]) == P_z * P_z > A * P_b, f"row {r['index']}: P_z^2")
        pf = oracle.product_enclosure(P_b, P_c)
        expect(int(r["avg_T_A_in_C"]) in oracle.rounded_half_up(pf, _t(factors)),
               f"row {r['index']}: average T(A)")
        expect(int(r["avg_T_B_in_C"]) in oracle.rounded_half_up(pf, _t(factors) * P_b),
               f"row {r['index']}: average T(B)")


def _check_table21(rows):
    expect(len(rows) == 9, "table 21 rows")
    for r in rows:
        factors, A = _scaffold_base(int(r["index"]))
        P_b = oracle.prev_prime(math.isqrt(A))
        P_z = oracle.next_prime(P_b)
        expect((int(r["A"]), int(r["P_b"]), int(r["P_z"])) == (A, P_b, P_z),
               f"row {r['index']}: A, P_b, P_z")
        expect(int(r["P_z_squared"]) == P_z * P_z > A, f"row {r['index']}: P_z^2 <= A")
        pf = oracle.product_enclosure(oracle.next_prime(factors[-1]), P_b)
        expect(oracle.matches_printed(r["product_factor"], pf),
               f"row {r['index']}: product factor {r['product_factor']}")
        expect(int(r["avg_T_A_in_B"]) in oracle.rounded_half_up(pf, _t(factors)),
               f"row {r['index']}: average T * product factor")


_TABLE_CHECKS = {
    1: _check_table1, 3: _check_table3, 5: _check_table5, 6: _check_table6,
    9: _check_table9, 10: _check_table10, 11: _check_table11,
    12: _check_signature_triple, 13: _check_signature_triple,
    14: _check_signature_triple, 15: _check_signature_triple,
    16: _check_table16, 17: _check_table17, 18: _check_table18,
    19: _check_table19, 20: _check_table20, 21: _check_table21,
}


def _check_table(number: int):
    def check(text: str) -> None:
        rows = _rows(text)
        expect(len(rows) > 0, f"table {number} is empty")
        _check_residues(rows)
        if number in _TABLE_CHECKS:
            _TABLE_CHECKS[number](rows)
    return check


# -- other commands ------------------------------------------------------------


def _check_figure1(text):
    check_figure1([tuple(int(v) for v in r.values()) for r in _rows(text)], 30030)


def _check_figure2_fit(text):
    rows = _rows(text)
    expect([int(r["mod_3"]) for r in rows] == [0, 1, 2], "fit classes")
    for r in rows:
        cls = int(r["mod_3"])
        xs = [E for E in range(6, 211, 2) if E % 3 == cls]
        slope, intercept = oracle.least_squares(xs, [oracle.pair_count(E) for E in xs])
        expect(abs(float(r["slope"]) - slope) <= 6e-7, f"class {cls} slope")
        expect(abs(float(r["intercept"]) - intercept) <= 6e-7, f"class {cls} intercept")


def _check_signature(z: int):
    def check(text: str) -> None:
        data = json.loads(text)
        prim = next(oracle.primorial(k) for k in range(1, 16) if oracle.primorial(k) >= max(z, 30))
        seeds = oracle.primes_between(2, math.isqrt(prim))
        expect([row[0] for row in data["rows"]] == seeds, f"seeds of {z}")
        for q, r, role in data["rows"]:
            expect(r == z % q, f"{z} mod {q}")
            expect(role == ("core" if prim % q == 0 else "non-core"), f"role of {q}")
        want = oracle.verdict(z, prim)
        expect(data["title"].endswith(f"under primorial {prim} ({want})"),
               f"verdict of {z}: {data['title']}")
    return check


def _check_census(text):
    check_census(_rows(text), 2310, 30030)


def _check_twins(text):
    (row,) = _rows(text)
    core = (2, 3, 5, 7, 11, 13)
    masks = oracle.cycle_masks(30030, core)
    expect(int(row["potential_twins"]) == math.prod(p - 2 for p in core[1:]) - 1,
           "potential twins != T - 1")
    expect(int(row["potential_twins"]) == int(masks["twin_anchor"].sum()), "potential twins")
    expect(int(row["true_twins"]) == int(masks["true_twin"].sum()), "true twins")


def _check_goldbach(E: int):
    def check(text):
        (row,) = _rows(text)
        p1, p2 = int(row["p1"]), int(row["p2"])
        expect(int(row["even"]) == E and p1 + p2 == E, f"{p1} + {p2} != {E}")
        expect(oracle.is_prime(p1) and oracle.is_prime(p2), f"{E} = {p1} + {p2}: not both prime")
        expect((row["case"] == "case-1") == oracle.is_prime(E // 2), f"{E}: case {row['case']}")
    return check


def _check_audit(text):
    rows = _rows(text)
    expect(sorted(r["claim"] for r in rows) == sorted(oracle.CLAIM_IDS), "audited claims")
    failing = [r["claim"] for r in rows if r["status"] == "fail"]
    expect(not failing, f"claims report fail: {failing}")


def operations(inputs: dict, workdir) -> list[Op]:
    ops = [cli_op(["table", str(n)], _check_table(n)) for n in range(1, 22)]
    ops += [
        cli_op(["figure", "1"], _check_figure1),
        cli_op(["figure", "2", "--fit"], _check_figure2_fit),
    ]
    for kind, number in (("two", 17), ("ratios", 18), ("three", 20), ("pairs", 21)):
        ops.append(cli_op(["scaffold", kind], _check_table(number)))
    ops += [
        cli_op(["--format", "json", "signature", "2291"], _check_signature(2291)),
        cli_op(["census", "--inner", "2310", "--outer", "30030"], _check_census),
        cli_op(["twins", "--below", "30030", "--count"], _check_twins),
        cli_op(["goldbach", "98"], _check_goldbach(98)),
        cli_op(["audit", "--scale", "default"], _check_audit),
    ]
    ops += [cli_op(["goldbach", str(E)], _check_goldbach(E)) for E in inputs["goldbach"]]
    ops += [cli_op(["--format", "json", "signature", str(z)], _check_signature(z))
            for z in inputs["signature"]]
    return ops
