"""One budget check: every public entry point with a limit refuses an input
just past it with BudgetError before any work (under 1 MB traced and 0.1 s),
answers the input at the limit where that is cheap, and its CLI form exits 2
with nothing on stdout."""
import time
import tracemalloc

import pytest

from pslb import (PrimeTable, cycle_census, figure1_series, goldbach_solve, is_prime, new_composites,
                  next_prime, nth_primorial, prime_count_via_eq1, prime_count_via_eq3, primes,
                  primes_up_to, product_factor, product_factor_fraction, residue_addition_table,
                  seed_multiple_level_counts, signature, true_twin_count)
from pslb.auditor import FAIL, SCALES, _cfg, audit
from pslb.cli import main
from pslb.errors import BudgetError
from pslb.primes import residue_sieve, sieve_odd_flags

P = nth_primorial
BIG = 10**12  # a caller's factor-sieve budget past every census
PAST_1E8 = 10**8 + 1


def scale(**keys):
    return dict(SCALES["small"], **keys)


def audited(claim, **keys):
    return audit(claim, scale(**keys)).status != FAIL


# entry point: (the input just past its limit, the input at it or None where that is not cheap)
REFUSALS = {
    "prime_count_via_eq1 seed cap": (lambda: prime_count_via_eq1(10**16),
                                     lambda: prime_count_via_eq1(5328) == primes_up_to(5328).prime_count),
    "seed_multiple_level_counts seed cap": (lambda: seed_multiple_level_counts(73**2), None),
    "audit T1": (lambda: audit("T1", scale(t1_limit=510_511)), lambda: audited("T1", t1_limit=510_510)),
    "audit T2": (lambda: audit("T2", scale(t2_limit=PAST_1E8)), None),
    "audit T3": (lambda: audit("T3", scale(t3_k=8)), lambda: audited("T3", t3_k=7)),
    "audit C3.1": (lambda: audit("C3.1", scale(t3_k=8)), lambda: audited("C3.1", t3_k=7)),
    "audit C3.2": (lambda: audit("C3.2", scale(c32_ks=(9,))), lambda: audited("C3.2", c32_ks=(8,))),
    "audit T4 outer": (lambda: audit("T4", scale(t4_pairs=((7, 8),))), lambda: audited("T4", t4_pairs=((6, 7),))),
    "audit T4 cycles": (lambda: audit("T4", scale(t4_pairs=((1, 7),))), None),
    "audit T8": (lambda: audit("T8", scale(t8_upper=PAST_1E8)), None),
    "audit T9": (lambda: audit("T9", scale(t9_range=(212, 510_512))), None),
    "audit P6": (lambda: audit("P6", scale(p6_upper=510_511)), None),
    "cycle_census cycle cap": (lambda: cycle_census(P(1), P(7), budget=BIG),
                               lambda: len(cycle_census(P(2), P(7))) == 85_085),
    "cycle_census factor budget": (lambda: cycle_census(P(7), P(8)), lambda: cycle_census(P(6), P(7))),
    "cycle_census census ceiling": (lambda: cycle_census(P(9), P(10), budget=BIG), None),
    "figure1_series census ceiling": (lambda: figure1_series(P(13), budget=BIG), None),
    "prime_count_via_eq3 census ceiling": (lambda: prime_count_via_eq3(P(10), budget=BIG), None),
    "true_twin_count census ceiling": (lambda: true_twin_count(P(10), budget=BIG), None),
    "new_composites primality budget": (lambda: new_composites(P(9), budget=BIG),
                                        lambda: new_composites(P(8), budget=P(8).value).count == 1_012_858),
    "new_composites factor budget": (lambda: new_composites(P(8)), lambda: new_composites(P(7))),
    "residue_addition_table": (lambda: residue_addition_table(10_001), None),
    "residue_sieve": (lambda: residue_sieve(0, 10**8, {}), None),
    "sieve_odd_flags": (lambda: sieve_odd_flags(PAST_1E8), None),
    "PrimeTable": (lambda: PrimeTable(PAST_1E8), None),
    "PrimeTable.packed": (lambda: PrimeTable.packed(PAST_1E8), None),
    "primes_up_to": (lambda: primes_up_to(PAST_1E8), None),
    "next_prime": (lambda: next_prime(10**8), None),
    # 2n is past the budget, so (n, 1e8] is scanned by trial division: it holds no prime
    "next_prime past the last prime below 1e8": (lambda: next_prime(99_999_989),
                                                 lambda: next_prime(99_999_988) == 99_999_989),
    "is_prime": (lambda: is_prime(10**16 + 1), lambda: is_prime(10**16) is False),
    "signature seeds": (lambda: signature(5, (2, 100_000_007)), None),
    "goldbach_solve": (lambda: goldbach_solve(10**8 + 2), None),
    "product_factor": (lambda: product_factor(3, 100_000_007), None),
    "product_factor_fraction": (lambda: product_factor_fraction(3, 100_000_007), None),
    # the bounds are proven prime by trial division, and a lower bound on the
    # primes between them passes the cap, so nothing is sieved
    "product_factor_fraction exact-product cap": (lambda: product_factor_fraction(3, 99_999_989), None),
}

# CLI form: (argv just past the limit, argv at it or None)
CLI = {
    "census cycle cap": (["census", "--inner", "2", "--outer", "510510"], None),
    "census factor budget": (["census", "--inner", "30030", "--outer", "9699690"],
                             ["census", "--inner", "30030", "--outer", "510510"]),
    "census ceiling": ([f"--sieve-budget={BIG}", "census", "--inner", "223092870", "--outer", "6469693230"],
                       None),
    "twins under --sieve-budget 1000": (["--sieve-budget", "1000", "twins", "--below", "5000"],
                                        ["--sieve-budget", "30030", "twins", "--below", "5000"]),
    "cache build": (["cache", "build", "--limit", str(PAST_1E8), "--out-path", "primes.sieve"], None),
    "goldbach": (["goldbach", str(10**8 + 2)], None),
    "signature": (["signature", str(10**17)], None),
}


@pytest.fixture(autouse=True)
def shared_table_at_its_floor(monkeypatch):
    # each test starts from a fresh shared table at its 65,536 floor, the
    # sieve's byte patterns built with it, so a refusal that sieved first shows
    # in its traced peak whatever grew the table before; the grown one goes after
    monkeypatch.setattr(primes, "_table", None)
    primes_up_to.cache_clear()
    primes_up_to(2)
    yield
    primes_up_to.cache_clear()


@pytest.mark.parametrize("name", REFUSALS)
def test_refused_before_any_work(name):
    refused = REFUSALS[name][0]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="exceeds"):
            refused()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 and elapsed < 0.1, (peak, elapsed)


@pytest.mark.parametrize("name", [name for name, (_, at) in REFUSALS.items() if at])
def test_answers_at_the_limit(name):
    assert REFUSALS[name][1]() is not False


@pytest.mark.parametrize("name", CLI)
def test_cli_refusal_exits_2(capsys, monkeypatch, tmp_path, name):
    monkeypatch.chdir(tmp_path)  # cache build would write here
    refused, at = CLI[name]
    assert main(refused) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("budget exceeded: ") and "exceeds" in err
    assert not (tmp_path / "primes.sieve").exists()
    if at:
        assert main(at) == 0


@pytest.mark.parametrize("name", SCALES)
def test_named_scales_are_within_every_budget(name):
    # _cfg checks a scale dict's keys, and returns a named scale as it is
    assert _cfg(dict(SCALES[name])) == SCALES[name]
