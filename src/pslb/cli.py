"""Command-line interface.

Data goes to stdout (or --out); diagnostics go to stderr. Exit codes:
0 success, 1 domain error, 2 budget exceeded.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import astuple
from functools import lru_cache

import numpy as np

from . import auditor, census, goldbach, tables
from .census import DEFAULT_FACTOR_BUDGET
from .errors import BudgetError, DomainError, PrimorialOverflowError
from .primes import (
    PrimeTable,
    primes_up_to,
    seed_prime_set,
    smallest_primorial_at_least,
)
from .signatures import classify, signature

ENV_SIEVE_BUDGET = "PSLB_SIEVE_BUDGET"


# -- rendering ---------------------------------------------------------------


def _fmt_cell(v, precision: int):
    if isinstance(v, float):
        return f"{v:.{precision}f}".rstrip("0").rstrip(".") or "0"
    return v


def render(data: tables.TableData, fmt: str, precision: int) -> str:
    if fmt == "json":
        payload = {
            "title": data.title,
            "columns": list(data.columns),
            "rows": [[round(v, precision) if isinstance(v, float) else v for v in row]
                     for row in data.rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(data.columns)
        for row in data.rows:
            writer.writerow(["" if v is None else _fmt_cell(v, precision) for v in row])
        return buf.getvalue()
    # plain text: padded columns
    cells = [list(data.columns)] + [
        ["" if v is None else str(_fmt_cell(v, precision)) for v in row] for row in data.rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(data.columns))]
    lines = [data.title] + [
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells
    ]
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_int(what: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"{what} must be an integer, got {text!r}") from None


def _primorial_by_value(value: int):
    prim = smallest_primorial_at_least(value)
    if prim.value != value:
        raise DomainError(f"{value} is not a primorial")
    return prim


# -- subcommand handlers -----------------------------------------------------


def _cmd_table(args) -> tables.TableData:
    return tables.table(args.number)


def _cmd_figure(args) -> tables.TableData:
    if args.number == 1:
        return tables.figure1_data()
    if args.number == 2:
        return tables.figure2_data(fit=args.fit)
    raise DomainError(f"figure number must be 1 or 2, got {args.number}")


def _cmd_signature(args) -> tables.TableData:
    if args.seeds is not None:  # an empty --seeds is refused, not ignored
        seeds = tuple(_parse_int("each --seeds entry", s) for s in args.seeds.split(","))
        sig = signature(args.z, seeds)
        rows = [[p, r] for p, r in zip(sig.seed_primes, sig.residues)]
        return tables.TableData(
            0, f"signature of {args.z}", ("seed", "residue"), rows
        )
    # the least primorial >= z, and >= 30, the first with a seed partition
    sps = seed_prime_set(smallest_primorial_at_least(max(args.z, 30)))
    sig = signature(args.z, sps.all_seeds)
    verdict = classify(args.z, sps).verdict
    rows = [
        [p, r, "core" if p in sps.core else "non-core"]
        for p, r in zip(sig.seed_primes, sig.residues)
    ]
    title = f"signature of {args.z} under primorial {sps.primorial.value} ({verdict})"
    return tables.TableData(0, title, ("seed", "residue", "role"), rows)


def _cmd_census(args) -> tables.TableData:
    inner = _primorial_by_value(args.inner)
    outer = _primorial_by_value(args.outer)
    rows = census.cycle_census(inner, outer, budget=args.sieve_budget)
    return tables.TableData(
        0, f"census of {inner.value} cycles within {outer.value}",
        ("cycle", "cycle_end", "cycle_length", "potential_primes", "potential_twins",
         "false_twins", "true_twins", "cum_potential_primes", "cum_potential_twins",
         "cum_false_twins", "cum_true_twins", "cum_new_composites"),
        [list(astuple(r)) for r in rows],  # one column per CensusCounts field, in order
    )


def _cmd_scaffold(args) -> tables.TableData:
    mapping = {"two": 17, "ratios": 18, "three": 20, "pairs": 21}
    return tables.table(mapping[args.kind])


def _cmd_goldbach(args) -> tables.TableData:
    E = args.even
    if args.pairs:
        rows = [[p.p1, p.p2] for p in goldbach.goldbach_pairs(E)]
        return tables.TableData(0, f"prime pairs summing to {E}", ("p1", "p2"), rows)
    if args.filter:
        primes = goldbach.mismatch_filter(E)
        return tables.TableData(
            0, f"mismatch-filter primes for {E}", ("p1",), [[p] for p in primes]
        )
    if args.potential_count:
        count = goldbach.exact_potential_goldbach_count(E)
        prim = smallest_primorial_at_least(E).value
        return tables.TableData(
            0, f"potential solution classes for {E} mod {prim}",
            ("even", "primorial", "count"), [[E, prim, count]],
        )
    sol = goldbach.goldbach_solve(E)
    return tables.TableData(
        0, f"solution for {E} ({sol.case})",
        ("even", "p1", "p2", "case", "anchor_primorial", "scaffold_certified", "note"),
        [[E, sol.pair.p1, sol.pair.p2, sol.case, sol.A_value,
          sol.scaffold_certified, sol.note or None]],
    )


def _cmd_twins(args) -> tables.TableData:
    limit = args.below
    if limit < 5:
        raise DomainError(f"need --below >= 5, got {limit}")
    outer = smallest_primorial_at_least(limit)
    if outer.value > args.sieve_budget:
        raise BudgetError(f"primorial {outer.value} exceeds factor-sieve budget {args.sieve_budget}")
    pt, tt = census.twin_masks(limit, outer.prime_factors, primes_up_to(limit).odd_prime_mask())
    if args.count:
        return tables.TableData(
            0, f"true twin pairs with anchor <= {limit}",
            ("below", "potential_twins", "true_twins"),
            [[limit, int(pt.sum()), int(tt.sum())]],
        )
    anchors = 2 * np.flatnonzero(tt) + 1
    rows = [[int(a) - 2, int(a)] for a in anchors]
    return tables.TableData(
        0, f"twin pairs with anchor <= {limit}", ("smaller", "larger"), rows
    )


def _cmd_audit(args) -> tables.TableData:
    if args.claim:
        reports = [auditor.audit(args.claim, args.scale)]
    else:
        reports = auditor.audit_all(args.scale)
    rows = []
    for r in reports:
        rows.append([
            r.claim_id, r.status, r.scope,
            len(r.witnesses), len(r.counterexamples),
            "; ".join(str(c) for c in r.counterexamples[:3]) or None,
            r.note or None,
        ])
    failing = [r.claim_id for r in reports if r.status == auditor.FAIL]
    if failing:
        print(f"failing claims: {', '.join(failing)}", file=sys.stderr)
        if args.strict:
            args.exit_code = 1
    return tables.TableData(
        0, f"claim audit at scale '{args.scale}'",
        ("claim", "status", "scope", "witnesses", "counterexamples",
         "first_counterexamples", "note"), rows,
    )


def _cmd_cache(args) -> tables.TableData:
    if args.action == "build":
        table = PrimeTable.packed(args.limit)
        table.save(args.cache_path)
    else:
        table = PrimeTable.load(args.cache_path)
    return tables.TableData(
        0, "sieve cache written" if args.action == "build" else "sieve cache verified",
        ("path", "limit", "primes"), [[args.cache_path, table.limit, table.prime_count]],
    )


# -- argument parsing --------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # The same options are attached to the top-level parser (with real
    # defaults) and to each subparser (with SUPPRESS defaults), so they are
    # accepted both before and after the subcommand name.
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--format", choices=("csv", "json", "text"),
                        default=d if suppress else "csv",
                        help="output format (default: csv)")
    parser.add_argument("--precision", type=int, default=d if suppress else 6,
                        help="decimal places for floating-point cells (default: 6)")
    parser.add_argument("--out", default=d,
                        help="write output to this file instead of stdout")
    parser.add_argument("--sieve-budget", type=int, default=d,
                        help=f"largest primorial the factor sieves may expand "
                             f"(default: {DEFAULT_FACTOR_BUDGET}; env {ENV_SIEVE_BUDGET})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pslb",
        description="Primorial seed-prime laboratory: signatures, censuses, scaffolds.",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="emit one reference table")
    p.add_argument("number", type=int, help="table number, 1..21")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("figure", help="emit the data series behind a figure")
    p.add_argument("number", type=int, help="figure number, 1 or 2")
    p.add_argument("--fit", action="store_true",
                   help="for figure 2, emit per-class least-squares fits")
    p.set_defaults(handler=_cmd_figure)

    p = sub.add_parser("signature", help="residue signature of an integer")
    p.add_argument("z", type=int)
    p.add_argument("--seeds", help="comma-separated seed primes (default: derived)")
    p.set_defaults(handler=_cmd_signature)

    p = sub.add_parser("census", help="per-cycle counts of one primorial inside another")
    p.add_argument("--inner", type=int, required=True, help="inner primorial value")
    p.add_argument("--outer", type=int, required=True, help="outer primorial value")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("scaffold", help="primorial scaffold tables")
    p.add_argument("kind", choices=("two", "ratios", "three", "pairs"))
    p.set_defaults(handler=_cmd_scaffold)

    p = sub.add_parser("goldbach", help="prime-pair solutions for an even integer")
    p.add_argument("even", type=int)
    p.add_argument("--pairs", action="store_true", help="list every pair")
    p.add_argument("--filter", action="store_true",
                   help="list primes passing the residue-mismatch filter")
    p.add_argument("--potential-count", action="store_true",
                   help="exact count of potential solution classes")
    p.set_defaults(handler=_cmd_goldbach)

    p = sub.add_parser("twins", help="twin prime pairs")
    p.add_argument("--below", type=int, required=True, help="largest anchor to consider")
    p.add_argument("--count", action="store_true", help="counts only")
    p.set_defaults(handler=_cmd_twins)

    p = sub.add_parser("audit", help="empirically audit the framework's claims")
    p.add_argument("claim", nargs="?", help="single claim id (default: all)")
    p.add_argument("--scale", choices=("small", "default", "large"), default="default")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 if any audited claim fails")
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("cache", help="build or verify a sieve cache file")
    p.add_argument("action", choices=("build", "verify"))
    p.add_argument("cache_path", nargs="?", help="cache file path (verify)")
    p.add_argument("--limit", type=int, help="sieve limit (build)")
    p.add_argument("--out-path", dest="cache_out", help="cache file path (build)")
    p.set_defaults(handler=_cmd_cache)

    for sp in sub.choices.values():
        _add_common(sp, suppress=True)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built on the first main call, not at import; parse_args returns a fresh
    # Namespace each call, so repeated calls share no state
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "cache":
        if args.action == "build":
            if args.limit is None or args.cache_out is None:
                parser.error("cache build requires --limit and --out-path")
            args.cache_path = args.cache_out
        elif not args.cache_path:
            parser.error("cache verify requires a cache file path")
    args.exit_code = 0
    try:
        if args.sieve_budget is None:
            env = os.environ.get(ENV_SIEVE_BUDGET)
            args.sieve_budget = _parse_int(ENV_SIEVE_BUDGET, env) if env else DEFAULT_FACTOR_BUDGET
        if args.precision < 0:
            raise DomainError(f"--precision must be >= 0, got {args.precision}")
        # every double's decimal expansion ends by 2**-1074, so more digits print the same
        args.precision = min(args.precision, 1074)
        data = args.handler(args)
        _emit(render(data, args.format, args.precision), args.out)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PrimorialOverflowError, OSError) as exc:  # OSError: --out, cache paths
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return args.exit_code


if __name__ == "__main__":
    sys.exit(main())
