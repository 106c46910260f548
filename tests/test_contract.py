"""One contract over the library surface: every public callable of `pslb`
with one or two required arguments, given any values of a grid in them,
answers or raises DomainError, BudgetError or PrimorialOverflowError, and
each refusal traces under 1 MB. The callables are read off `pslb.__all__`, so
a new public name is covered with no edit here."""
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest

import pslb
from pslb import BudgetError, DomainError, PrimorialOverflowError, nth_primorial

REFUSALS = (DomainError, BudgetError, PrimorialOverflowError)

GRID = (-1, 0, 1, 2, 5, 30, 31, 2310, 10**17, 2.5, 10.0, np.int64(30), nth_primorial(3), "30", None)


def required_arity(fn) -> int:
    """The number of arguments fn cannot be called without; 0 if it has no
    signature to read (the exception classes)."""
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return 0
    return sum(p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
               for p in params)


PUBLIC = {name: getattr(pslb, name) for name in pslb.__all__
          if callable(getattr(pslb, name)) and required_arity(getattr(pslb, name)) in (1, 2)}


def test_the_contract_covers_the_public_functions():
    assert {"classify", "crt_reconstruct", "signature", "round_display", "max_seed_prime_for",
            "smallest_primorial_at_least", "product_factor_fraction", "PrimeTable"} <= PUBLIC.keys()


@pytest.mark.parametrize("name", PUBLIC)
def test_every_public_call_answers_or_refuses(name):
    fn = PUBLIC[name]
    for args in itertools.product(GRID, repeat=required_arity(fn)):
        try:
            fn(*args)
        except REFUSALS as exc:
            refused = type(exc)
        except Exception as exc:  # anything else breaks the contract
            pytest.fail(f"{name}{args!r} raised {type(exc).__name__}: {exc}")
        else:
            continue
        # a refusal is made before any work: again, traced (the first call
        # may have built a per-process cache, such as the sieve's patterns)
        tracemalloc.start()
        try:
            with pytest.raises(refused):
                fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (name, args, peak)
