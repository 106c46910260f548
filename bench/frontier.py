"""`frontier` workload: one process at the 19# = 9699690 scale.

Builds the prime table to the 1e8 primality budget and round-trips it
through `pslb cache build` / `pslb cache verify` in a scratch directory,
answers seeded membership queries from the reloaded table, then runs
`census --inner 510510 --outer 9699690` (with `--sieve-budget 9699690`),
`new_composites(19#)` and `figure1_series(19#)`. Large arrays and the cache
file do the work; the per-query Python paths stay idle.
"""
from __future__ import annotations

import csv
import io
import math
import os
import random

import numpy as np

import oracle
from oracle import expect
from workload import Op, check_census, check_figure1, cli_op

PRIM = 9_699_690  # 19#
CORE = (2, 3, 5, 7, 11, 13, 17, 19)
CACHE_LIMIT = 100_000_000
LOOKUPS = 5000


def make_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {"lookups": [rng.randrange(1, CACHE_LIMIT + 1) for _ in range(LOOKUPS)]}


def _check_cache(text: str) -> None:
    (row,) = csv.DictReader(io.StringIO(text))
    expect(int(row["limit"]) == CACHE_LIMIT, f"limit {row['limit']}")
    expect(int(row["primes"]) == oracle.PI_1E8, f"pi(1e8) reported as {row['primes']}")


def _lookup_op(path: str, ns: list[int]) -> Op:
    def run():
        import pslb

        table = pslb.PrimeTable.load(path)
        return table.limit, [table.is_prime(n) for n in ns]

    def check(result) -> None:
        limit, answers = result
        expect(limit == CACHE_LIMIT, f"reloaded limit {limit}")
        for n, got in zip(ns, answers):
            expect(got == oracle.is_prime(n), f"cache says is_prime({n}) = {got}")

    return Op(f"PrimeTable.load + {len(ns)} lookups", run, check)


def _check_census(text: str) -> None:
    check_census(list(csv.DictReader(io.StringIO(text))), 510510, PRIM)


def _new_composites_op() -> Op:
    def run():
        import pslb

        return pslb.new_composites(pslb.nth_primorial(8), budget=PRIM).members

    def check(members) -> None:
        pi = int(oracle.prime_flags(PRIM).sum())
        phi = math.prod(p - 1 for p in CORE)
        expect(len(members) == len(CORE) + phi - 1 - pi,
               f"{len(members)} new composites, expected 8 + phi - 1 - pi(19#)")
        expected = np.flatnonzero(oracle.cycle_masks(PRIM, CORE)["new_composite"])
        expect(np.array_equal(members, expected), "new composite members")

    return Op("new_composites(19#)", run, check)


def _figure1_op() -> Op:
    def run():
        import pslb

        return pslb.figure1_series(pslb.nth_primorial(8), budget=PRIM)

    def check(rows) -> None:
        check_figure1([(w.index, w.window_end, w.window_length, w.potential_primes,
                        w.cumulative_new_composites) for w in rows], PRIM)

    return Op("figure1_series(19#)", run, check)


def operations(inputs: dict, workdir) -> list[Op]:
    path = os.path.join(workdir, "primes.sieve")
    budget = ["--sieve-budget", str(PRIM)]
    return [
        cli_op(budget + ["cache", "build", "--limit", str(CACHE_LIMIT), "--out-path", path],
               _check_cache),
        cli_op(budget + ["cache", "verify", path], _check_cache),
        _lookup_op(path, inputs["lookups"]),
        cli_op(budget + ["census", "--inner", "510510", "--outer", str(PRIM)], _check_census),
        _new_composites_op(),
        _figure1_op(),
    ]
