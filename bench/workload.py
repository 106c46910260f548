"""What a workload module provides, and the helper for CLI operations.

A workload module defines `make_inputs(seed) -> dict` (plain JSON data, so
two seeds can be compared) and `operations(inputs, workdir) -> list[Op]`.
The worker times every `run` as one block and only then calls each `check`
on that operation's output; a check raises `oracle.Mismatch` on a wrong
answer.
"""
from __future__ import annotations

import contextlib
import io
import math
from itertools import accumulate
from typing import Any, Callable, NamedTuple

import oracle
from oracle import expect


class Op(NamedTuple):
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def cli_op(argv: list[str], check: Callable[[str], None]) -> Op:
    """An operation that runs `pslb` with argv and checks its standard output."""
    def run():
        import pslb.cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pslb.cli.main(argv)
        return code, buf.getvalue()

    def check_output(result) -> None:
        code, text = result
        expect(code == 0, f"exit code {code}")
        check(text)

    return Op("pslb " + " ".join(argv), run, check_output)


def _core(prim: int) -> tuple[int, ...]:
    return tuple(q for q in oracle.primes_between(2, prim) if prim % q == 0)


def check_census(rows: list[dict], inner: int, outer: int) -> None:
    """Every CSV row of `pslb census` for `inner` cycles within primorial `outer`."""
    core = _core(outer)
    masks = oracle.cycle_masks(outer, core)
    expected = {
        "potential_primes": oracle.window_counts(masks["potential"], inner),
        "potential_twins": oracle.window_counts(masks["twin_anchor"], inner),
        "true_twins": oracle.window_counts(masks["true_twin"], inner),
    }
    expected["false_twins"] = [a - b for a, b in zip(expected["potential_twins"],
                                                       expected["true_twins"])]
    new_comp = list(accumulate(oracle.window_counts(masks["new_composite"], inner)))
    expect(len(rows) == outer // inner, f"{len(rows)} cycles")
    expect(sum(expected["potential_primes"]) == math.prod(q - 1 for q in core),
           f"oracle: potential primes != phi({outer})")
    for c, r in enumerate(rows, start=1):
        expect(int(r["cycle_end"]) == c * inner, f"cycle {c} end")
        for col, counts in expected.items():
            expect(int(r[col]) == counts[c - 1], f"cycle {c}: {col}")
            expect(int(r["cum_" + col]) == sum(counts[:c]), f"cycle {c}: cum_{col}")
        if "cum_new_composites" in r:
            expect(int(r["cum_new_composites"]) == new_comp[c - 1], f"cycle {c}: new composites")


def check_figure1(rows: list[tuple[int, int, int, int, int]], prim: int) -> None:
    """Figure-1 windows (index, end, length, potential primes, cumulative new
    composites) of width twice the largest seed prime, tiling 1..prim."""
    width = 2 * oracle.prev_prime(math.isqrt(prim))
    masks = oracle.cycle_masks(prim, _core(prim))
    potential = oracle.window_counts(masks["potential"], width)
    new_comp = list(accumulate(oracle.window_counts(masks["new_composite"], width)))
    expect(len(rows) == len(potential), f"{len(rows)} windows of {width}")
    for i, (index, end, length, pp, cum_new) in enumerate(rows, start=1):
        expect((index, end, length) == (i, min(i * width, prim), end - (i - 1) * width),
               f"window {i} bounds")
        expect(pp == potential[i - 1], f"window {i}: potential primes")
        expect(cum_new == new_comp[i - 1], f"window {i}: new composites")
