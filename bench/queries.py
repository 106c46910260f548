"""`queries` workload: single-integer queries through the public API, one at a time.

One client in a closed loop: each query starts when the previous one has
returned. Parts, in order:

1. `goldbach_solve(E)` for every even E in 6..SWEEP_END, ascending.
2. `goldbach_solve(E)` for seeded E in [1e5, 1e6], split into STRATA
   equal-width strata on each side of 17# = 510510, where the seed set of E
   grows from 126 to 440 primes: one general E per stratum, and one E = 2p
   with p a seeded prime (the "case-1" path).
3. `seed_prime_set` -> `signature` -> `crt_reconstruct` -> `classify` for
   Z_QUERIES[k] seeded z below the k-th primorial, one per stratum.

Nearly every E needs a new prime-table limit. A general E's cost depends on
its size, on its small factors (a seed that divides E never rejects a
candidate in the mismatch filter) and on whether E/2 is prime (the solver
then stops early). So the general E of stratum i is drawn from the fixed
residue class 6 * (i + 1) mod 2310: its size is random, its factors up to
11 are the same for every seed, and E/2 is a multiple of 3, never prime.
Drawn freely, the work per round moved by about 15% from seed to seed.
"""
from __future__ import annotations

import math
import random

import oracle
from oracle import expect
from workload import Op

SWEEP_END = 4000
RANDOM_BANDS = ((100_000, 510_510), (510_510, 1_000_000))
STRATA = 4  # per band
Z_QUERIES = {8: 200, 9: 60}  # k -> queries below the k-th primorial (19#, 23#)


def _strata(lo: int, hi: int, n: int):
    width = (hi - lo) // n
    return [(lo + i * width, lo + (i + 1) * width) for i in range(n)]


def make_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    general, halves = [], []
    strata = [s for band in RANDOM_BANDS for s in _strata(*band, STRATA)]
    for i, (lo, hi) in enumerate(strata):
        r = 6 * (i + 1)
        general.append(r + 2310 * rng.randrange(-(-(lo - r) // 2310), (hi - r) // 2310))
        p = oracle.prev_prime(rng.randrange(lo // 2, hi // 2))
        halves.append(2 * p)
    z = {}
    for k, count in Z_QUERIES.items():
        z[str(k)] = [rng.randrange(a, b) for a, b in _strata(1, oracle.primorial(k) + 1, count)]
    return {"sweep": [6, SWEEP_END], "general": general, "halves": halves, "z": z}


def _goldbach_op(E: int) -> Op:
    def run():
        import pslb

        return pslb.goldbach_solve(E)

    def check(sol) -> None:
        flags = oracle.prime_flags(max(E, 1_000_000))
        p1, p2 = sol.pair.p1, sol.pair.p2
        expect(sol.pair.E == E and p1 + p2 == E and p1 <= p2, f"{E} != {p1} + {p2}")
        expect(bool(flags[p1]) and bool(flags[p2]), f"{E} = {p1} + {p2}: not both prime")
        expect((sol.case == "case-1") == bool(flags[E // 2]), f"{E}: {sol.case}")

    return Op(f"goldbach_solve({E})", run, check)


def _z_op(k: int, z: int) -> Op:
    def run():
        import pslb

        sps = pslb.seed_prime_set(pslb.nth_primorial(k))
        sig = pslb.signature(z, sps.all_seeds)
        return sps.all_seeds, sig.residues, pslb.crt_reconstruct(sig), pslb.classify(z, sps)

    def check(result) -> None:
        seeds, residues, back, cls = result
        prim = oracle.primorial(k)
        expect(list(seeds) == oracle.primes_between(2, math.isqrt(prim)), f"seeds of {prim}")
        expect(list(residues) == [z % q for q in seeds], f"residues of {z}")
        expect(back == z, f"CRT gives {back} for {z}")
        want = oracle.verdict(z, prim)
        expect(cls.verdict == want, f"{z} under {prim}: {cls.verdict}, expected {want}")

    return Op(f"signature({z}) under {k} primes", run, check)


def operations(inputs: dict, workdir) -> list[Op]:
    lo, hi = inputs["sweep"]
    ops = [_goldbach_op(E) for E in range(lo, hi + 1, 2)]
    ops += [_goldbach_op(E) for E in inputs["general"] + inputs["halves"]]
    for k, zs in inputs["z"].items():
        ops += [_z_op(int(k), z) for z in zs]
    return ops
