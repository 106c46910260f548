"""Primorial seed-prime laboratory.

Modular-signature arithmetic over primorials: prime sieving and seed-prime
partitions, residue signatures with CRT reconstruction, per-cycle twin and
prime censuses, primorial scaffold tables, prime-pair (Goldbach-style)
solution search, and an empirical audit suite for the framework's claims.
"""

from .auditor import ClaimReport, audit_all
from .census import (
    CensusCounts,
    NewCompositeSet,
    cycle_census,
    figure1_series,
    new_composites,
    potential_solutions_T,
    prime_count_via_eq1,
    prime_count_via_eq3,
    seed_multiple_level_counts,
    totient_of_primorial,
    true_twin_count,
    twin_masks,
)
from .errors import BudgetError, DomainError, PrimorialOverflowError
from .goldbach import (
    GoldbachPair,
    GoldbachSolution,
    exact_potential_goldbach_count,
    goldbach_pairs,
    goldbach_solve,
    mismatch_filter,
    mod3_rule,
    pair_count_table,
    residue_addition_table,
    mismatch_violations,
)
from .primes import (
    PrimeTable,
    Primorial,
    SeedPrimeSet,
    is_prime,
    largest_primorial_at_most,
    max_seed_prime_for,
    next_prime,
    nth_primorial,
    prev_prime,
    primes_up_to,
    seed_prime_set,
    sieve_odd_flags,
    smallest_primorial_at_least,
)
from .scaffold import (
    RatioRow,
    ScaffoldRow,
    avg_solutions_in_cycle,
    build_table17,
    build_table18,
    build_table19_20,
    build_table21,
    product_factor,
    product_factor_fraction,
    round_display,
)
from .signatures import (
    Classification,
    ModularSignature,
    classify,
    crt_reconstruct,
    is_potential_twin,
    residue_cycle,
    residue_sieve,
    signature,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "CensusCounts", "ClaimReport", "Classification", "DomainError",
    "GoldbachPair", "GoldbachSolution", "ModularSignature", "NewCompositeSet", "PrimeTable",
    "Primorial", "PrimorialOverflowError", "RatioRow", "ScaffoldRow", "SeedPrimeSet",
    "audit_all", "avg_solutions_in_cycle", "build_table17", "build_table18",
    "build_table19_20", "build_table21", "classify", "crt_reconstruct", "cycle_census",
    "exact_potential_goldbach_count", "figure1_series", "goldbach_pairs",
    "goldbach_solve", "is_potential_twin", "is_prime", "largest_primorial_at_most",
    "max_seed_prime_for", "mismatch_filter", "mod3_rule", "new_composites",
    "next_prime", "nth_primorial", "pair_count_table", "potential_solutions_T", "prev_prime",
    "prime_count_via_eq1", "prime_count_via_eq3", "primes_up_to", "product_factor",
    "product_factor_fraction", "residue_addition_table", "residue_cycle",
    "residue_sieve", "round_display", "seed_multiple_level_counts", "seed_prime_set",
    "sieve_odd_flags", "signature",
    "smallest_primorial_at_least", "mismatch_violations", "totient_of_primorial",
    "true_twin_count", "twin_masks",
]
