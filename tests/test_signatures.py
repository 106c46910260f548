"""Signature, CRT and classification tests."""
import copy
import dataclasses
import math
import pickle
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pslb
from pslb import primes, signatures
from pslb.errors import BudgetError, DomainError
from pslb.primes import is_prime, nth_primorial, primes_up_to, seed_prime_set
from pslb.signatures import (
    VERDICT_CERTIFIED_PRIME,
    VERDICT_COMPOSITE_BY_CORE,
    VERDICT_POTENTIAL_PRIME,
    VERDICT_SEED_PRIME,
    VERDICT_UNIT,
    ModularSignature,
    certified_mask,
    classify,
    crt_reconstruct,
    is_potential_twin,
    potential_prime_mask,
    potential_twin_mask,
    residue_cycle,
    residue_sieve,
    signature,
)

SEEDS_210 = (2, 3, 5, 7, 11, 13)
SEEDS_2310 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def test_signature_of_13():
    sig = signature(13, (2, 3, 5, 7, 11, 13, 17, 19))
    assert sig.residues == (1, 1, 3, 6, 2, 0, 13, 13)


def test_signature_of_2291():
    sig = signature(2291, SEEDS_2310)
    assert sig.residues == (1, 2, 1, 2, 3, 3, 13, 11, 14, 0, 28, 34, 36, 12, 35)


def test_signature_validation():
    with pytest.raises(DomainError):
        signature(0, (2, 3))
    with pytest.raises(DomainError):
        signature(5, (3, 2))          # not ascending
    with pytest.raises(DomainError):
        signature(5, (2, 4))          # 4 not prime
    with pytest.raises(DomainError):
        signature(5, ())


def test_crt_reconstruct_examples():
    for z in (1, 13, 2291, 30029):
        sig = signature(z, SEEDS_2310)
        # product of the 15 seeds far exceeds 30030, so reconstruction is exact
        assert crt_reconstruct(sig) == z


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=510509))
def test_crt_round_trip_property(z):
    seeds = seed_prime_set(nth_primorial(7)).all_seeds  # 510510
    assert crt_reconstruct(signature(z, seeds)) == z


def test_classify_verdicts():
    sps = seed_prime_set(nth_primorial(5))  # 2310
    assert classify(1, sps).verdict == VERDICT_UNIT
    assert classify(11, sps).verdict == VERDICT_SEED_PRIME     # core seed
    assert classify(29, sps).verdict == VERDICT_SEED_PRIME     # non-core seed
    assert classify(25, sps).verdict == VERDICT_COMPOSITE_BY_CORE
    assert classify(2291, sps).verdict == VERDICT_POTENTIAL_PRIME
    assert classify(2291, sps).zero_noncore_residues == (29,)
    assert classify(2291, sps).is_potential_prime
    assert classify(2237, sps).verdict == VERDICT_CERTIFIED_PRIME
    with pytest.raises(DomainError):
        classify(2311, sps)


def test_certified_prime_scan_matches_sieve():
    # every certified verdict below 2310 is an actual prime and vice versa
    sps = seed_prime_set(nth_primorial(5))
    table = primes_up_to(2310)
    seeds = set(sps.all_seeds)
    for z in range(1, 2311):
        verdict = classify(z, sps).verdict
        if z in seeds or z == 2:
            continue
        assert (verdict == VERDICT_CERTIFIED_PRIME) == table.is_prime(z), z


def test_potential_twin_rule():
    sps = seed_prime_set(nth_primorial(6))  # 30030, core 2..13
    # anchors of the first cycle, brute-forced from the residue definition
    brute = [
        o2 for o2 in range(5, 2311, 2)
        if all(o2 % p != 0 and o2 % p != 2 % p for p in (3, 5, 7, 11, 13))
    ]
    mine = [o2 for o2 in range(5, 2311, 2) if is_potential_twin(o2, sps)]
    assert mine == brute
    assert len(mine) == 113  # first-cycle count
    with pytest.raises(DomainError):
        is_potential_twin(6, sps)
    with pytest.raises(DomainError):
        is_potential_twin(3, sps)


def test_residue_cycles_match_reference_rows():
    assert residue_cycle(7, "odd") == (1, 3, 5, 0, 2, 4, 6)
    assert residue_cycle(7, "even") == (2, 4, 6, 1, 3, 5, 0)
    with pytest.raises(DomainError):
        residue_cycle(2, "odd")
    with pytest.raises(DomainError):
        residue_cycle(7, "both")


def test_residue_cycle_takes_p_through_operator_index():
    assert residue_cycle(np.int64(7), "odd") == residue_cycle(7, "odd")
    with pytest.raises(DomainError, match="p must be an integer"):
        residue_cycle(7.0, "odd")


def test_masks_agree_with_scalar_rules():
    core = (2, 3, 5, 7, 11)
    pp = potential_prime_mask(2310, core)
    pt = potential_twin_mask(2310, core)
    sps = seed_prime_set(nth_primorial(5))
    want_pp = [z % 2 == 1 and all(z % p for p in core[1:]) for z in range(1, 2311)]
    want_pt = [z % 2 == 1 and z >= 5 and is_potential_twin(z, sps) for z in range(1, 2311)]
    # the masks hold the odd integers 1, 3, 5, ...: the even half of each rule is empty
    for got, want in ((pp, want_pp), (pt, want_pt)):
        assert got.tolist() == want[::2]
        assert not any(want[1::2])


def test_certified_mask_counts():
    sps = seed_prime_set(nth_primorial(5))
    cert = certified_mask(2310, sps.all_seeds)
    table = primes_up_to(2310)
    # certified = primes minus the seed primes themselves
    assert int(cert.sum()) == table.prime_count - len(sps.all_seeds)


def test_stacking_repeats_core_residues():
    # members of one class mod 30 share residues under seeds 2, 3, 5
    for base in (1, 7, 11):
        sigs = {signature(base + 30 * k, (2, 3, 5)).residues for k in range(7)}
        assert len(sigs) == 1


def test_small_potential_primes_are_clean():
    # potential primes below the square of the smallest non-core seed have
    # no zero residue at any non-core seed
    sps = seed_prime_set(nth_primorial(5))
    bound = sps.smallest_non_core ** 2  # 169
    pp = potential_prime_mask(2310, sps.core)
    z = np.arange(1, 2311)[::2]  # the odd integers the mask indexes
    for c in z[pp & (z < bound)]:
        c = int(c)
        if c in sps.non_core:
            continue
        assert all(c % q for q in sps.non_core), c


# -- the residue-sieve kernel against the scalar rules it replaces ------------

MASK_LIMITS = (1, 2, 3, 4, 5, 6, 7, 30, 31, 2310, 30030)
MASK_CORES = ((2,), (2, 3), (2, 3, 5), (2, 3, 5, 7, 11, 13), (3, 5, 7), SEEDS_2310)


def arange_potential_prime(limit, core):
    z = np.arange(1, limit + 1, dtype=np.int64)
    mask = z % 2 == 1
    for p in core:
        if p != 2:
            mask &= z % p != 0
    return mask


def arange_potential_twin(limit, core):
    z = np.arange(1, limit + 1, dtype=np.int64)
    mask = (z % 2 == 1) & (z >= 5)
    for p in core:
        if p != 2:
            r = z % p
            mask &= (r != 0) & (r != 2 % p)
    return mask


def arange_certified(limit, seeds):
    return arange_potential_prime(limit, seeds) & (np.arange(1, limit + 1) > 1)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=-500, max_value=5000),
    st.integers(min_value=-1, max_value=400),
    st.dictionaries(
        st.integers(min_value=1, max_value=60),
        st.lists(st.integers(min_value=-100, max_value=100), max_size=4),
        max_size=6,
    ),
)
def test_residue_sieve_matches_brute_force(lo, width, forbidden):
    hi = lo + width - 1
    keep = residue_sieve(lo, hi, forbidden)
    brute = [
        all(z % q not in {r % q for r in rs} for q, rs in forbidden.items())
        for z in range(lo, hi + 1)
    ]
    assert keep.dtype == bool
    assert keep.tolist() == brute


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_windowed_residue_sieve_matches_brute_force(data):
    # small windows put several window edges inside each class's stride
    window = data.draw(st.integers(8, 64), label="window")
    lo = data.draw(st.integers(-300, 300), label="lo")
    width = data.draw(st.integers(0, 6 * window), label="width")
    forbidden = data.draw(st.dictionaries(
        st.integers(1, 3 * window),
        st.lists(st.integers(-200, 200), max_size=3),
        max_size=6,
    ), label="forbidden")
    # classes given as generators are read once, yet serve every window
    one_shot = data.draw(st.booleans(), label="one_shot")
    given = {q: (r for r in rs) for q, rs in forbidden.items()} if one_shot else forbidden
    hi = lo + width - 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "_WINDOW", window)
        keep = residue_sieve(lo, hi, given)
    brute = [
        all(z % q not in {r % q for r in rs} for q, rs in forbidden.items())
        for z in range(lo, hi + 1)
    ]
    assert keep.tolist() == brute


def test_residue_sieve_is_one_kernel():
    assert pslb.residue_sieve is signatures.residue_sieve is primes.residue_sieve


def test_residue_sieve_rejects_bad_modulus():
    with pytest.raises(DomainError):
        residue_sieve(1, 10, {0: (0,)})
    with pytest.raises(DomainError):
        residue_sieve(5, 4, {-3: (0,)})  # an empty window checks its moduli too


@pytest.mark.parametrize("forbidden", [
    {3: [1.5]}, {3.0: [1]}, {3: [1.0]}, {3: ["1"]}, {3: 1}, {3: [None]}, {2.5: []}, {"3": [1]},
    {3: [1], 5: [np.float64(2)]},
])
@pytest.mark.parametrize("lo, hi", [(0, 10), (5, 4)])  # an empty window checks them too
def test_residue_sieve_rejects_non_integer_classes(forbidden, lo, hi):
    with pytest.raises(DomainError):
        residue_sieve(lo, hi, forbidden)


def test_residue_sieve_takes_numpy_and_bool_integers():
    keep = residue_sieve(0, 29, {np.int64(3): [np.int32(1)], 5: [True]})
    assert keep.tolist() == [z % 3 != 1 and z % 5 != 1 for z in range(30)]


def test_residue_sieve_window_over_primality_budget():
    # 0..1e8 is 1e8 + 1 integers: refused before the mask is allocated
    with pytest.raises(BudgetError):
        residue_sieve(0, 10**8, {})


@pytest.mark.parametrize("core", MASK_CORES)
@pytest.mark.parametrize("limit", MASK_LIMITS)
def test_masks_match_arange_formulas(limit, core):
    for got, want in ((potential_prime_mask(limit, core), arange_potential_prime(limit, core)),
                      (potential_twin_mask(limit, core), arange_potential_twin(limit, core)),
                      (certified_mask(limit, core), arange_certified(limit, core))):
        assert np.array_equal(got, want[::2])  # the masks hold the odd integers
        assert not want[1::2].any()


def test_seed_check_budget():
    with pytest.raises(BudgetError):
        signature(5, (2, 100_000_007))


def test_seed_check_budget_on_every_call():
    for _ in range(2):
        with pytest.raises(BudgetError):
            signature(5, (2, 3, 100_000_007))


# -- Garner CRT against the fold oracle ---------------------------------------

def fold_crt(sig):
    """Oracle: fold each modulus into one growing modulus, left to right."""
    x, m = 0, 1
    for p, r in zip(sig.seed_primes, sig.residues):
        t = ((r - x) * pow(m, -1, p)) % p  # solve x + m*t == r (mod p)
        x += m * t
        m *= p
    return x % m


PRIMES_BELOW_20000 = primes_up_to(20_000).ordered_primes.tolist()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_crt_matches_fold_on_arbitrary_residues(data):
    seeds = sorted(data.draw(
        st.lists(st.sampled_from(PRIMES_BELOW_20000), min_size=1, max_size=300, unique=True),
        label="seeds",
    ))
    residues = data.draw(
        st.lists(st.integers(), min_size=len(seeds), max_size=len(seeds)), label="residues"
    )
    sig = ModularSignature(1, tuple(seeds), tuple(residues))
    assert crt_reconstruct(sig) == fold_crt(sig)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 31, 32, 33])
def test_crt_matches_fold_at_every_tree_shape(n):
    # odd and even lengths on and around powers of two
    seeds = tuple(PRIMES_BELOW_20000[-n:])
    sig = ModularSignature(1, seeds, tuple(range(-n, 3 * n, 4)[:n]))
    assert crt_reconstruct(sig) == fold_crt(sig)


@pytest.mark.parametrize("z", [1, 123_456_789, nth_primorial(9).value - 1])
def test_crt_round_trip_at_23_primorial(z):
    seeds = seed_prime_set(nth_primorial(9)).all_seeds  # 1,748 seeds
    sig = signature(z, seeds)
    assert crt_reconstruct(sig) == fold_crt(sig) == z


@pytest.mark.parametrize("seeds, residues, expected", [
    ((), (), 0),
    ((3, 5, 7), (2, 3), 8),     # residues cut short: only the seeds they cover
    ((3, 5), (2, 3, 4), 8),     # residues past the last seed are ignored
])
def test_crt_of_ragged_signatures(seeds, residues, expected):
    sig = ModularSignature(1, seeds, residues)
    assert crt_reconstruct(sig) == fold_crt(sig) == expected


@pytest.mark.parametrize("residues", [(1.5, 2), (1, 2.0), (np.float64(1), 2), (1, "2")])
def test_crt_rejects_non_integral_residues(residues):
    with pytest.raises(DomainError, match="each residue must be an integer"):
        crt_reconstruct(ModularSignature(1, (3, 5), residues))


@pytest.mark.parametrize("residues, expected", [
    ((True, np.int64(2)), 7),
    ((np.uint8(2), True), 11),  # uint8 arithmetic would wrap
    ((np.int32(2), 10**30 + 3), 8),  # an int32 less a big int would overflow
    ((np.int64(2), np.int64(4), np.int64(6)), 104),
])
def test_crt_takes_bool_numpy_and_big_int_residues_exactly(residues, expected):
    sig = ModularSignature(1, (3, 5, 7)[: len(residues)], residues)
    back = crt_reconstruct(sig)
    assert back == expected and type(back) is int
    assert all(back % m == int(r) % m for m, r in zip(sig.seed_primes, residues))


def test_crt_rejects_repeated_moduli():
    sig = ModularSignature(1, (3, 3), (1, 2))
    with pytest.raises(ValueError):
        crt_reconstruct(sig)
    with pytest.raises(ValueError):
        fold_crt(sig)


# -- Garner's early exit ------------------------------------------------------

def crt_calls(sig, name):
    """crt_reconstruct(sig) and what each call of signatures.<name> returned in it."""
    returned = []
    fn = getattr(signatures, name)

    def recording(*args):
        returned.append(fn(*args))
        return returned[-1]

    setattr(signatures, name, recording)
    try:
        x = crt_reconstruct(sig)
    finally:
        setattr(signatures, name, fn)
    return x, returned


def crt_path(sig):
    """crt_reconstruct(sig) and whether a compare over every residue ended
    its steps early."""
    x, hits = crt_calls(sig, "_meets_every_residue")
    return x, any(hits)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_signatures_of_real_z_take_the_early_path(data):
    seeds = sorted(data.draw(
        st.lists(st.sampled_from(PRIMES_BELOW_20000), min_size=2, max_size=60, unique=True),
        label="seeds",
    ))
    # the exit needs a step left after x reaches z, with z still an int64
    bound = min(math.prod(seeds[:-1]), 2**63)
    z = data.draw(st.integers(min_value=1, max_value=bound - 1), label="z")
    sig = signature(z, seeds)
    assert crt_path(sig) == (z, True)
    assert fold_crt(sig) == z


# -- signatures that keep their own remainder row -----------------------------

SEEDS_23 = seed_prime_set(nth_primorial(9)).all_seeds  # 1,748 seeds


def row_path(sig):
    """crt_reconstruct(sig) and whether it took the signature's own row."""
    x, calls = crt_calls(sig, "_crt_of_row")
    return x, bool(calls)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_row_path_equals_the_fold_and_the_hand_built_signature(data):
    seeds = tuple(sorted(data.draw(
        st.lists(st.sampled_from(PRIMES_BELOW_20000), min_size=1, max_size=120, unique=True),
        label="seeds",
    )))
    z = data.draw(st.integers(min_value=1, max_value=2**63 - 1) | st.sampled_from([2**63 - 1, 2**63]),
                  label="z")
    sig = signature(z, seeds)
    hand_built = ModularSignature(z, seeds, sig.residues)
    assert row_path(hand_built) == (fold_crt(sig), False)
    assert row_path(sig) == (fold_crt(sig), z < 2**63)


def test_copies_of_a_signature_take_the_general_path():
    sig = signature(123_456_789, SEEDS_23)
    shifted = tuple(r + 1 for r in sig.residues)
    copies = [pickle.loads(pickle.dumps(sig)), copy.copy(sig), copy.deepcopy(sig),
              dataclasses.replace(sig)]
    for other in copies:
        assert other == sig and hash(other) == hash(sig) and repr(other) == repr(sig)
        assert vars(other) == dataclasses.asdict(sig)  # the three fields, no row
        assert row_path(other) == (123_456_789, False)
    changed = dataclasses.replace(sig, residues=shifted)
    assert row_path(changed) == (fold_crt(changed), False)
    assert row_path(sig) == (123_456_789, True)
    assert [f.name for f in dataclasses.fields(sig)] == ["subject", "seed_primes", "residues"]


def test_equal_residues_are_one_int():
    # 1000 is the residue at every seed above 1000, and z + 1009 * 1013 has it at two of them
    a, b = signature(1000, SEEDS_23), signature(1000 + 1009 * 1013, SEEDS_23)
    assert len({id(r) for r in a.residues if r == 1000}) == 1
    same = [(x, y) for x, y in zip(a.residues, b.residues) if x == y]
    assert sum(x == 1000 for x, _ in same) == 2
    assert all(x is y for x, y in same)
    assert all(type(r) is int for r in a.residues + b.residues)


@pytest.mark.parametrize("seeds", [(2, 3, 65_521), (2, 3, 65_537)])  # either side of 2^16
def test_seeds_past_the_shared_ints_give_exact_residues(seeds):
    assert (signatures._check_seeds(seeds).values is None) == (seeds[-1] > 2**16)
    sig = signature(123_456_789, seeds)
    assert sig.residues == tuple(123_456_789 % q for q in seeds)
    assert all(type(r) is int for r in sig.residues)
    assert row_path(sig) == (fold_crt(sig), True)


def test_retained_signatures_share_their_residue_ints():
    zs = [int(z) for z in np.random.default_rng(32).integers(10**6, nth_primorial(9).value, 60)]
    signature(1, SEEDS_23)  # the seed record, with its shared ints, is cached first
    tracemalloc.start()
    try:
        kept = [signature(z, SEEDS_23) for z in zs]
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # a residue costs its tuple slot and its int64 in the row (16 bytes), so
    # 1.7 MB in all; a fresh int per residue adds 28 bytes for most, 3.8 MB
    assert size < 60 * 20 * len(SEEDS_23)
    assert [crt_reconstruct(sig) for sig in kept] == zs


def test_integral_z_only():
    sps = seed_prime_set(nth_primorial(5))
    for bad in (2291.5, 2291.0, "2291", None, np.float64(2291)):
        with pytest.raises(DomainError, match="must be an integer"):
            signature(bad, SEEDS_2310)
        with pytest.raises(DomainError, match="must be an integer"):
            classify(bad, sps)
        with pytest.raises(DomainError, match="must be an integer"):
            is_potential_twin(bad, sps)
    for z in (np.int64(2291), np.uint16(2291), True):
        sig = signature(z, SEEDS_2310)
        assert type(sig.subject) is int and all(type(r) is int for r in sig.residues)
        assert sig == signature(int(z), SEEDS_2310)
    cls = classify(np.int64(209), sps)
    assert type(cls.subject) is int and cls.is_odd is True
    assert cls == classify(209, sps)
    assert is_potential_twin(np.int64(2243), sps) == is_potential_twin(2243, sps)


def first_non_prime(seeds):
    """Oracle: the seed the per-seed check names first."""
    return next(s for s in seeds if not is_prime(s))


@pytest.mark.parametrize("seeds", [
    (0, 3, 5), (1, 3, 5), (-7, 3, 5), (-2, 2, 3), (4, 5, 7), (9, 11, 13),   # first
    (2, 4, 5), (3, 4, 5), (2, 3, 15, 17), (-7, -5, 3),                     # middle
    (3, 5, 8), (2, 3, 5, 49), (2, 3, 5, 7, 11, 13, 17, 19, 23, 25),         # last
    SEEDS_23[:101] + (549,) + SEEDS_23[101:],         # 549 = 9 * 61, between 547 and 557
    SEEDS_23 + (14_931,),                             # 14,931 = 3^3 * 7 * 79, last
    SEEDS_23[:500] + (3576,) + SEEDS_23[500:],       # even, between 3571 and 3581
], ids=lambda seeds: f"{len(seeds)}-seeds-{first_non_prime(seeds)}")
def test_bad_seeds_name_the_first_non_prime(seeds):
    bad = first_non_prime(seeds)
    with pytest.raises(DomainError, match=rf"^seed {bad} is not prime$"):
        signature(5, seeds)


def _shifted(sig, i, by):
    residues = list(sig.residues)
    residues[i] += by
    return ModularSignature(sig.subject, sig.seed_primes, tuple(residues))


SIG_2291 = signature(2291, SEEDS_2310)


@pytest.mark.parametrize("sig", [
    _shifted(SIG_2291, 0, -2),                       # negative residue
    _shifted(SIG_2291, 5, 13),                       # residue == m
    _shifted(SIG_2291, 14, 47 * 10),                 # residue > m at the last seed
    _shifted(SIG_2291, 9, 2**63),                    # residue >= 2^63
    _shifted(SIG_2291, 3, 2**70),
    signature(2**70, PRIMES_BELOW_20000[:40]),       # z past 2^63
    ModularSignature(1, (-5, 7), (1, 2)),            # a negative modulus
    ModularSignature(1, (7, -5), (1, -4)),           # x = 1 meets both, but M < 0
    ModularSignature(1, (3, 2**64 + 13), (1, 5)),    # a modulus past 2^63
], ids=["negative", "equal_m", "over_m_last", "2^63", "2^70", "z_past_2^63",
        "negative_modulus", "negative_last_modulus", "modulus_past_2^63"])
def test_inputs_no_compare_settles_take_every_step(sig):
    assert crt_path(sig) == (fold_crt(sig), False)


@pytest.mark.parametrize("sig", [
    ModularSignature(1, SEEDS_2310, SIG_2291.residues[:7]),          # ragged
    ModularSignature(1, SEEDS_2310[:7], SIG_2291.residues),
    ModularSignature(1, (4, 9, 25, 49), (1, 2, 3, 4)),               # not prime
    ModularSignature(1, (5, 3), (1, 2)),                             # not ascending
    signature(2**64 + 5, SEEDS_2310[:12]),           # z above M
], ids=["short", "long", "not_prime", "descending", "z_above_M"])
def test_hand_built_signatures_match_the_fold(sig):
    assert crt_reconstruct(sig) == fold_crt(sig)


def test_crt_never_consults_the_prime_table(monkeypatch):
    def no_table(limit):
        raise AssertionError(f"primes_up_to({limit})")

    monkeypatch.setattr(signatures, "primes_up_to", no_table)
    assert crt_reconstruct(ModularSignature(5, (99_999_989,), (5,))) == 5
    for _ in range(2):
        assert crt_reconstruct(ModularSignature(1, (4, 9, 25, 49), (1, 2, 3, 4))) == 14753


@pytest.mark.parametrize("z", [2**63 - 1, 2**63, 2**70])
def test_signature_at_the_int64_edge(z):
    seeds = seed_prime_set(nth_primorial(9)).all_seeds
    sig = signature(z, seeds)
    assert sig.residues == tuple(z % q for q in seeds)
    assert all(type(r) is int for r in sig.residues)
    assert crt_reconstruct(sig) == fold_crt(sig) == z


def test_queries_from_two_threads_agree_with_one():
    sps = seed_prime_set(nth_primorial(9))  # 1,748 seeds: numpy drops the GIL
    zs = [int(z) for z in np.random.default_rng(12).integers(1, sps.primorial.value, 200)]

    def query(z):
        sig = signature(z, sps.all_seeds)
        return sig.residues, crt_reconstruct(sig), classify(z, sps)

    expected = [query(z) for z in zs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        for _ in range(2):
            assert list(pool.map(query, zs)) == expected


def comprehension_classify(z, sps):
    """Oracle: the per-seed scans classify replaced."""
    zero_core = tuple(p for p in sps.core if z % p == 0)
    zero_noncore = tuple(p for p in sps.non_core if z % p == 0)
    if z == 1:
        verdict = VERDICT_UNIT
    elif z in sps.core or z in sps.non_core:
        verdict = VERDICT_SEED_PRIME
    elif zero_core:
        verdict = VERDICT_COMPOSITE_BY_CORE
    elif zero_noncore:
        verdict = VERDICT_POTENTIAL_PRIME
    else:
        verdict = VERDICT_CERTIFIED_PRIME
    return zero_core, zero_noncore, verdict


@pytest.mark.parametrize("k", [8, 9])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_classify_matches_the_comprehension_rule(k, data):
    sps = seed_prime_set(nth_primorial(k))  # 19#, 23#
    z = data.draw(st.one_of(
        st.integers(min_value=1, max_value=sps.primorial.value),
        st.sampled_from(sps.all_seeds),
        st.sampled_from([p * q for p, q in zip(sps.all_seeds, sps.all_seeds[1:])]),
        st.just(1),
        st.just(sps.primorial.value),
    ))
    cls = classify(z, sps)
    assert (cls.zero_core_residues, cls.zero_noncore_residues, cls.verdict) == \
        comprehension_classify(z, sps)
    assert cls.is_odd == (z % 2 == 1)


# -- the seed check, once per seed tuple --------------------------------------

def test_invalid_seeds_raise_on_every_call():
    for seeds in ((2, 4), (3, 2), ()):
        for _ in range(2):
            with pytest.raises(DomainError):
                signature(5, seeds)


def test_seed_iterables_give_the_tuple_signature():
    expected = signature(2291, SEEDS_2310)
    assert signature(2291, list(SEEDS_2310)) == expected
    assert signature(2291, (s for s in SEEDS_2310)) == expected
    assert signature(2291, np.array(SEEDS_2310)) == expected
    assert all(type(s) is int for s in signature(2291, np.array(SEEDS_2310)).seed_primes)


def test_seed_tuple_is_checked_once(monkeypatch):
    seeds = seed_prime_set(nth_primorial(9)).all_seeds
    signatures._check_seeds.cache_clear()
    lookups = []

    def counting_primes_up_to(limit):
        lookups.append(limit)
        return primes_up_to(limit)

    monkeypatch.setattr(signatures, "primes_up_to", counting_primes_up_to)
    for z in (1, 2291, 123_456_789):
        assert signature(z, seeds).residues == tuple(z % s for s in seeds)
    assert lookups == [seeds[-1]]


# -- hand-built signatures over edge moduli -----------------------------------

# zero, signs, a bool, floats, NumPy ints, repeats and composites, also past
# the leading 48 primes; each case pins what crt_reconstruct gives through the
# basis's plain walk, or the exact type it raises
EDGE_MODULI = [
    ((3, 0, 5), ZeroDivisionError), ((6, 4, 0), ValueError), ((0,), ZeroDivisionError),
    ((1, -1, 5), -3), ((-5, 7), -20), ((True, 3), 1), ((3, 3), ValueError),
    ((3.0, 5.0), TypeError), ((4, 6, 3.0), ValueError), ((np.int64(3), np.int64(5)), TypeError),
    (tuple(PRIMES_BELOW_20000[:48]) + (0,), ZeroDivisionError),
    (tuple(PRIMES_BELOW_20000[:47]) + (6, 0), ValueError),
]


@pytest.mark.parametrize("moduli, expected", [
    pytest.param(moduli, expected, id=f"moduli{i}") for i, (moduli, expected) in enumerate(EDGE_MODULI)])
def test_blocked_basis_matches_the_plain_walk_on_edge_moduli(moduli, expected):
    try:
        got = crt_reconstruct(ModularSignature(1, moduli, range(len(moduli))))
    except Exception as exc:  # the exact type is compared, whichever it is
        got = type(exc)
    assert got == expected and type(got) is type(expected)


# -- seed records and bases found by identity ---------------------------------

def test_repeated_queries_hash_no_seed_tuple():
    sps = seed_prime_set(nth_primorial(9))
    seeds = sps.all_seeds
    signatures._check_seeds.cache_clear()
    signatures._garner_basis.cache_clear()

    def query(z):
        sig = signature(z, seeds)
        assert sig.seed_primes is seeds  # the caller's tuple of exact ints is kept
        return sig, crt_reconstruct(sig), classify(z, sps)

    query(1)
    info = signatures._check_seeds.cache_info(), signatures._garner_basis.cache_info()
    for z in (2291, 123_456_789, sps.primorial.value - 1):
        sig, back, _ = query(z)
        assert back == z
    assert (signatures._check_seeds.cache_info(), signatures._garner_basis.cache_info()) == info
    expected = signature(2291, seeds)
    for other in (tuple(list(seeds)), list(seeds), np.array(seeds)):
        assert signature(2291, other) == expected
        assert crt_reconstruct(signature(2291, other)) == 2291



def test_identity_lookups_from_many_threads_never_mix_tuples():
    # four threads alternate two tuples on each lookup, so the one-entry
    # identity slots change hands between any two bytecodes; a slot whose
    # tuple and value were stored apart would hand one tuple the other's value
    pairs = [(2, 3, 5), (2, 3, 7)], [(3, 5, 7), (5, 7, 11)]

    def lookups(i):
        for j in range(60_000):
            seeds, moduli = pairs[0][(i + j) % 2], pairs[1][(i + j) % 2]
            assert signatures._check_seeds(seeds).ints == seeds
            assert signatures._garner_basis(moduli)[1].tolist() == list(moduli)
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(lookups, i) for i in range(4)]
            assert all(f.result(timeout=120) for f in futures)
    finally:
        sys.setswitchinterval(interval)
