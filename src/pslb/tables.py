"""Reference table and figure emitters.

Each emitter returns a TableData whose rows may contain None for cells that
are intentionally blank in the reference layout; renderers map None to an
empty CSV field or a JSON null.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import census, goldbach, scaffold
from .errors import DomainError
from .primes import is_prime, max_seed_prime_for, nth_primorial, seed_prime_set
from .signatures import classify, is_potential_twin, signature

TABLE_COUNT = 21


@dataclass(frozen=True)
class TableData:
    """One rendered reference table."""

    number: int
    title: str
    columns: tuple[str, ...]
    rows: list[list]


def _mark(flag: bool) -> str | None:
    return "X" if flag else None


def _residues(z: int, seeds) -> list[int]:
    return list(signature(z, seeds).residues)


def _seeds(k: int) -> tuple[int, ...]:
    """The seed primes of the k-th primorial: 5 gives 2310's, 4 gives 210's."""
    return seed_prime_set(nth_primorial(k)).all_seeds


def _table1() -> TableData:
    rows = []
    for z in range(1, 31):
        twin = z % 2 == 1 and z >= 5 and is_prime(z) and is_prime(z - 2)
        rows.append([z, _mark(is_prime(z))] + _residues(z, (2, 3, 5)) + [_mark(twin)])
    return TableData(
        1, "Residue combinations for the integers 1..30 under seeds 2, 3, 5",
        ("integer", "prime", "mod_2", "mod_3", "mod_5", "twin"), rows,
    )


def _table2() -> TableData:
    seeds = _seeds(5)
    cols = ("integer",) + tuple(f"mod_{p}" for p in seeds)
    return TableData(
        2, "Signature of 2291: clean core residues, one zero non-core residue",
        cols, [[2291] + _residues(2291, seeds)],
    )


def _table3() -> TableData:
    seeds = _seeds(4)
    cols = ("class_mod_30", "odd", "prime") + tuple(f"mod_{p}" for p in seeds)
    rows = []
    for cls in range(1, 30, 2):
        for member in range(cls, 210, 30):
            rows.append([cls, member, _mark(is_prime(member))] + _residues(member, seeds))
    return TableData(
        3, "Signatures of the odd integers below 210 grouped by class mod 30",
        cols, rows,
    )


def _table4() -> TableData:
    seeds = _seeds(5)
    cols = ("count", "odd", "delta") + tuple(f"mod_{p}" for p in seeds) + ("prime",)
    rows = []
    for cls in (1, 209):
        for i, member in enumerate(range(cls, 2310, 210), start=1):
            rows.append(
                [i, member, 210 if i > 1 else None]
                + _residues(member, seeds)
                + [_mark(is_prime(member))]
            )
    for z in (30, 210, 2310):
        rows.append([None, z, None] + _residues(z, seeds) + [None])
    return TableData(
        4, "Two classes mod 210 under primorial 2310, plus primorial signatures",
        cols, rows,
    )


def _table5() -> TableData:
    cols = (
        "count", "cycle_end", "cycle_length",
        "cum_potential_primes", "cum_potential_twins", "cum_false_twins", "cum_true_twins",
        "potential_primes", "potential_twins", "false_twins", "true_twins",
    )
    data = census.cycle_census(nth_primorial(5), nth_primorial(6))
    rows = []
    for r in data:
        rows.append([
            r.cycle_index, r.cycle_end, r.cycle_length if r.cycle_index > 1 else None,
            r.cumulative_potential_primes, r.cumulative_potential_twins,
            r.cumulative_false_twins, r.cumulative_true_twins,
            r.potential_primes, r.potential_twins, r.false_twins, r.true_twins,
        ])
    series = np.array(
        [[r.potential_primes, r.potential_twins, r.false_twins, r.true_twins] for r in data]
    )
    blank = [None] * 6
    rows.append(["Min"] + blank + [int(v) for v in series.min(axis=0)])
    rows.append(["Max"] + blank + [int(v) for v in series.max(axis=0)])
    rows.append(["Median"] + blank + [int(v) for v in np.median(series, axis=0)])
    rows.append(["StdDev"] + blank + [round(float(v), 2) for v in series.std(axis=0)])
    return TableData(5, "Twin counts by cycle of 2310 within 30030", cols, rows)


def _table6() -> TableData:
    sps = seed_prime_set(nth_primorial(5))
    cols = ("prime", "odd", "delta") + tuple(f"mod_{p}" for p in sps.all_seeds) + (
        "potential_prime", "potential_twin",
    )
    rows = []
    for z in range(2237, 2256, 2):
        pp = classify(z, sps).is_potential_prime
        pt = is_potential_twin(z, sps)
        rows.append(
            [_mark(is_prime(z)), z, 2] + _residues(z, sps.all_seeds) + [_mark(pp), _mark(pt)]
        )
    return TableData(6, "Ten consecutive odd integers under primorial 2310", cols, rows)


def _table7() -> TableData:
    seeds = (2, 3, 5, 7)
    cols = ("integer",) + tuple(f"odd_mod_{p}" for p in seeds) + tuple(
        f"even_mod_{p}" for p in seeds
    )
    rows = []
    for z in range(1, 29):
        res = _residues(z, seeds)
        if z % 2 == 1:
            rows.append([z] + res + [None] * 4)
        else:
            rows.append([z] + [None] * 4 + res)
    return TableData(7, "Parity-split residue cycles under seeds 2, 3, 5, 7", cols, rows)


def _table8() -> TableData:
    rows = [[z, z % 7 if z % 2 == 1 else None, z % 7 if z % 2 == 0 else None]
            for z in range(1, 15)]
    return TableData(
        8, "Mod 7 residue cycle split by parity over 1..14",
        ("integer", "odd_mod_7", "even_mod_7"), rows,
    )


def _table9() -> TableData:
    rows = [
        ["[0]", "[1]", "[2]"],
        [None, "[2]", "[1]"],
        ["exception: 6 = 3 + 3", None, None],
        ["[1]", "[2]", "[2]"],
        [None, "3", "[1]"],
        ["[2]", "[1]", "[1]"],
        [None, "3", "[2]"],
    ]
    return TableData(9, "Mod 3 class combinations for prime pairs", ("even_class", "p1", "p2"), rows)


def _table10() -> TableData:
    rows = [list(r) for r in goldbach.pair_count_table(210)]
    return TableData(
        10, "Prime pair counts for even integers 6..210",
        ("even", "mod_3", "pairs"), rows,
    )


def _table11() -> TableData:
    grid = goldbach.residue_addition_table(7)
    cols = ("addend",) + tuple(str(b) for b in range(7))
    rows = [[a] + [int(v) for v in grid[a]] for a in (0, 6, 5, 4, 3, 2, 1)]
    return TableData(11, "Additive residue combinations mod 7", cols, rows)


def _signature_triple(number: int, title: str, E: int, p1: int) -> TableData:
    seeds = _seeds(4)
    cols = ("role", "value") + tuple(f"mod_{p}" for p in seeds)
    p2 = E - p1
    rows = [
        ["even", E] + _residues(E, seeds),
        ["p1", p1] + _residues(p1, seeds),
        ["p2", p2] + _residues(p2, seeds),
    ]
    return TableData(number, title, cols, rows)


def _table16() -> TableData:
    cols = (
        "count", "prime", "primorial", "cycles_of_prior",
        "factor_minus_1", "factor_minus_2",
        "potential_primes", "potential_solutions", "avg_solutions_per_prior_cycle",
    )
    rows = [[1, 2] + [None] * 7]
    for k in range(2, 11):
        prim = nth_primorial(k)
        p = prim.largest_factor
        row = [k, p, prim.value, None, p - 1, p - 2, None, None, None]
        if k >= 3:
            row[6] = census.totient_of_primorial(prim)
            row[7] = census.potential_solutions_T(prim)
        if k >= 4:
            row[3] = p
            row[8] = round(row[7] / p, 1)
        rows.append(row)
    return TableData(16, "Potential prime and solution counts by primorial", cols, rows)


def _table17() -> TableData:
    cols = ("index", "M", "N", "P_m", "P_z", "T_M", "product_factor", "avg_T_M_in_N",
            "reciprocal_product_factor")
    rows = []
    for r in scaffold.build_table17(9):
        rows.append([
            r.index, r.A.value, f"{r.P_b}#", r.P_a, r.P_b, r.T_A,
            round(r.product_factor, 6), r.avg_T_A_display,
            round(1.0 / r.product_factor, 2),
        ])
    return TableData(17, "Two-primorial scaffold with product factors", cols, rows)


def _table18() -> TableData:
    cols = ("index", "M", "N", "avg_1", "avg_2", "ratio", "T_ratio", "pf_ratio")
    rows: list[list] = [[1, 210, "13#", None, None, None, None, None]]
    for r in scaffold.build_table18(9):
        rows.append([
            r.index, r.M2.value, f"{max_seed_prime_for(r.M2.value)}#",  # table 17's P_b
            scaffold.round_display(r.avg_1), scaffold.round_display(r.avg_2),
            round(r.ratio, 4), r.T_ratio, round(r.pf_ratio, 4),
        ])
    return TableData(18, "Ratios of successive per-cycle averages", cols, rows)


def _table19() -> TableData:
    cols = ("index", "A", "B", "C", "P_a", "P_b", "P_c", "T_A", "product_factor",
            "avg_T_A_in_C")
    rows = []
    for r in scaffold.build_table19_20(8):
        rows.append([
            r.index, r.A.value, r.A.value * r.P_b, f"{r.C_largest_factor}#",
            r.P_a, r.P_b, r.C_largest_factor, r.T_A,
            round(r.product_factor, 6), r.avg_T_A_display,
        ])
    return TableData(19, "Three-primorial scaffold with per-cycle averages", cols, rows)


def _table20() -> TableData:
    cols = ("index", "A", "B", "C", "P_a", "P_b", "P_s", "P_c",
            "avg_T_A_in_C", "avg_T_B_in_C", "P_z", "P_z_squared")
    rows = []
    for r in scaffold.build_table19_20(8):
        rows.append([
            r.index, r.A.value, r.A.value * r.P_b, f"{r.C_largest_factor}#",
            r.P_a, r.P_b, r.P_s, r.C_largest_factor,
            r.avg_T_A_display, r.avg_T_B_display,
            r.smallest_non_core, r.smallest_non_core_squared,
        ])
    return TableData(20, "Three-primorial scaffold with certification bounds", cols, rows)


def _table21() -> TableData:
    cols = ("index", "A", "B", "P_a", "P_b", "T_A", "product_factor", "avg_T_A_in_B",
            "P_z", "P_z_squared")
    rows = []
    for r in scaffold.build_table21(9):
        rows.append([
            r.index, r.A.value, f"{r.P_b}#", r.P_a, r.P_b, r.T_A,
            round(r.product_factor, 6), r.avg_T_A_display,
            r.smallest_non_core, r.smallest_non_core_squared,
        ])
    return TableData(21, "Two-primorial scaffold for prime-pair solutions", cols, rows)


_BUILDERS = {
    1: _table1, 2: _table2, 3: _table3, 4: _table4, 5: _table5, 6: _table6,
    7: _table7, 8: _table8, 9: _table9, 10: _table10, 11: _table11,
    12: lambda: _signature_triple(12, "Residue mismatch example: 60 = 17 + 43", 60, 17),
    13: lambda: _signature_triple(13, "Residue mismatch example: 68 = 7 + 61", 68, 7),
    14: lambda: _signature_triple(14, "Residue mismatch example: 68 = 31 + 37", 68, 31),
    15: lambda: _signature_triple(15, "Residue match failure: 68 = 19 + 49", 68, 19),
    16: _table16, 17: _table17, 18: _table18, 19: _table19, 20: _table20, 21: _table21,
}


def table(number: int) -> TableData:
    """Build reference table 1..21."""
    if number not in _BUILDERS:
        raise DomainError(f"table number must be 1..{TABLE_COUNT}, got {number}")
    return _BUILDERS[number]()


def figure1_data() -> TableData:
    """Potential primes and cumulative new composites per cycle of the
    largest seed prime within 30030."""
    rows = [
        [w.index, w.window_end, w.window_length, w.potential_primes,
         w.cumulative_new_composites]
        for w in census.figure1_series(nth_primorial(6))
    ]
    return TableData(
        0, "Potential primes and new composites by cycle of 173 within 30030",
        ("window", "window_end", "window_length", "potential_primes",
         "cumulative_new_composites"), rows,
    )


def figure2_data(fit: bool = False) -> TableData:
    """Prime-pair counts for 6..210 by mod-3 class; optionally the per-class
    least-squares fit lines."""
    if fit:
        rows = [
            [cls, round(slope, 6), round(intercept, 6)]
            for cls, (slope, intercept) in sorted(goldbach.figure2_slopes(210).items())
        ]
        return TableData(
            0, "Least-squares fit of pair counts by mod-3 class",
            ("mod_3", "slope", "intercept"), rows,
        )
    return _table10()
