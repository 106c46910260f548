"""Spans around calls into each `pslb` module, recorded from outside the program.

`Tracer.install()` replaces the modules' public functions with timing
wrappers. A name that one module imports from another (`from .primes import
primes_up_to`) is a separate binding, so every `pslb` module that holds the
original object gets the wrapper. Spans (name, start, end, parent) stay in
memory until `write()`; `metrics()` turns them into per-layer numbers.

A span's self time is its duration minus the durations of its child spans;
calls are nested on one thread, so children never overlap.
"""
from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
import tracemalloc

import numpy as np

import oracle
from oracle import CLAIM_IDS

# span name -> metric that collects the span's self time
SELF_TIME = {
    "primes.sieve_odd_flags": "primes.sieve_s",
    "primes.seed_prime_set": "primes.seed_set_s",
    "primes.PrimeTable.prime_mask": "primes.prime_mask_s",
    "primes.PrimeTable.save": "primes.cache_io_s",
    "primes.PrimeTable.load": "primes.cache_io_s",
    "signatures.potential_prime_mask": "signatures.mask_s",
    "signatures.potential_twin_mask": "signatures.mask_s",
    "signatures.certified_mask": "signatures.mask_s",
    "signatures.signature": "signatures.query_s",
    "signatures.crt_reconstruct": "signatures.query_s",
    "signatures.classify": "signatures.query_s",
    "signatures.is_potential_twin": "signatures.query_s",
    "census.cycle_census": "census.cycle_census_s",
    "census.new_composites": "census.new_composites_s",
    "census.figure1_series": "census.figure1_s",
    "goldbach.goldbach_solve": "goldbach.solve_s",
    "goldbach.mismatch_filter": "goldbach.filter_s",
    "goldbach.mismatch_violations": "goldbach.violations_s",
    "goldbach.pair_count_table": "goldbach.pair_count_s",
    "scaffold.build_table17": "scaffold.build_s",
    "scaffold.build_table18": "scaffold.build_s",
    "scaffold.build_table19_20": "scaffold.build_s",
    "scaffold.build_table21": "scaffold.build_s",
    "scaffold.product_factor": "scaffold.product_factor_s",
    "scaffold.product_factor_fraction": "scaffold.product_factor_s",
    "tables.table": "tables.build_s",
    "tables.figure1_data": "tables.build_s",
    "tables.figure2_data": "tables.build_s",
    "cli.render": "cli.render_s",
    **{f"auditor.claim.{cid}": f"auditor.claim_s.{cid}" for cid in CLAIM_IDS},
}

PEAK_MODULES = ("primes", "signatures", "census")

COUNTS = (
    "primes.tables_built", "primes.table_hits", "primes.sieved_values", "primes.cache_bytes",
    "signatures.mask_cells", "signatures.queries", "census.integers",
    "goldbach.solves", "goldbach.filter_scanned", "goldbach.filter_passed",
    "goldbach.fallbacks", "scaffold.builds", "tables.rows",
    "cli.output_bytes", "cli.commands",
)

# (metric name, unit, better) of everything `metrics()` returns, in report order
LAYER_METRICS = (
    [(m, "count", "higher" if m in ("primes.table_hits", "goldbach.filter_passed") else "lower")
     for m in COUNTS]
    + [(m, "s", "lower") for m in dict.fromkeys(SELF_TIME.values())]
    + [(f"{mod}.peak_alloc_mb", "MB", "lower") for mod in PEAK_MODULES]
    + [("goldbach.solve_p50_ms", "ms", "lower"), ("goldbach.solve_p99_ms", "ms", "lower")]
)


def _odd_count(seeds) -> int:
    return sum(1 for q in seeds if q != 2)


class Tracer:
    """Records spans and counters for one round of a workload."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []   # [name, start, end, parent, child_s, alloc_peak_b]
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.solve_ms: list[float] = []
        self._restore: list[tuple] = []
        self._mem: list[list | None] = []  # per open span, while tracemalloc runs
        self._pi = np.cumsum(oracle.prime_flags(1_000_000), dtype=np.int64)

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        mem = None
        if self.memory:
            # tracemalloc slows every allocation, so it runs only inside the
            # outermost span of a module whose peak allocation is reported.
            owner = not tracemalloc.is_tracing() and name.split(".")[0] in PEAK_MODULES
            if owner:
                tracemalloc.start()
            if tracemalloc.is_tracing():
                cur, peak = tracemalloc.get_traced_memory()
                if self._mem and self._mem[-1] is not None:
                    self._mem[-1][1] = max(self._mem[-1][1], peak)
                tracemalloc.reset_peak()
                mem = [cur, cur, owner]  # start, running peak, started tracing
        self._mem.append(mem)
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0, 0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]
        mem = self._mem.pop()
        if mem is not None:
            peak = max(tracemalloc.get_traced_memory()[1], mem[1])
            span[5] = peak - mem[0]
            if self._mem and self._mem[-1] is not None:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            if mem[2]:
                tracemalloc.stop()

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self.spans[idx], args, kwargs, result)
            return result
        return traced

    # -- counters ----------------------------------------------------------

    def _bump(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount

    def _counter(self, key: str):
        """An `after` hook that counts calls under `key`."""
        return lambda span, args, kwargs, result: self._bump(key)

    def _after_sieve(self, span, args, kwargs, result):
        self._bump("primes.tables_built")
        self._bump("primes.sieved_values", int(args[0]))

    def _after_cache_io(self, span, args, kwargs, result):
        path = args[-1] if args else kwargs["path"]
        self._bump("primes.cache_bytes", os.path.getsize(path))

    def _after_mask(self, span, args, kwargs, result):
        self._bump("signatures.mask_cells", int(args[0]) * _odd_count(args[1]))

    def _after_census(self, span, args, kwargs, result):
        prim = args[1] if span[0] == "census.cycle_census" else args[0]
        self._bump("census.integers", prim.value)

    def _after_solve(self, span, args, kwargs, result):
        self._bump("goldbach.solves")
        self.solve_ms.append((span[2] - span[1]) * 1e3)
        if result.note:
            self._bump("goldbach.fallbacks")

    def _after_filter(self, span, args, kwargs, result):
        E = int(args[0])
        half = (E - 1) // 2
        scanned = int(self._pi[half]) if half < len(self._pi) else len(
            oracle.primes_between(2, half))
        self._bump("goldbach.filter_scanned", scanned)
        self._bump("goldbach.filter_passed", len(result))

    def _after_table(self, span, args, kwargs, result):
        self._bump("tables.rows", len(result.rows))

    def _after_render(self, span, args, kwargs, result):
        self._bump("cli.output_bytes", len(result.encode()))

    # -- patching ----------------------------------------------------------

    def _patch_function(self, module, attr: str, after=None) -> None:
        original = getattr(module, attr)
        wrapper = self._wrap(f"{module.__name__.split('.')[-1]}.{attr}", original, after)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "pslb":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def _patch_method(self, cls, attr: str, after=None) -> None:
        raw = cls.__dict__[attr]
        name = f"primes.{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__, after))
        else:
            wrapped = self._wrap(name, raw, after)
        setattr(cls, attr, wrapped)
        self._restore.append((cls, attr, raw))

    def install(self) -> None:
        """Wrap every traced `pslb` function; `uninstall()` puts them back."""
        from pslb import auditor, census, cli, goldbach, primes, scaffold, signatures, tables

        self._primes_up_to = primes.primes_up_to
        self._hits0 = primes.primes_up_to.cache_info().hits
        self._patch_function(primes, "sieve_odd_flags", self._after_sieve)
        self._patch_function(primes, "seed_prime_set")
        self._patch_method(primes.PrimeTable, "prime_mask")
        self._patch_method(primes.PrimeTable, "save", self._after_cache_io)
        self._patch_method(primes.PrimeTable, "load", self._after_cache_io)
        for attr in ("potential_prime_mask", "potential_twin_mask", "certified_mask"):
            self._patch_function(signatures, attr, self._after_mask)
        for attr in ("signature", "crt_reconstruct", "classify", "is_potential_twin"):
            self._patch_function(signatures, attr, self._counter("signatures.queries"))
        for attr in ("cycle_census", "new_composites", "figure1_series"):
            self._patch_function(census, attr, self._after_census)
        self._patch_function(goldbach, "goldbach_solve", self._after_solve)
        self._patch_function(goldbach, "mismatch_filter", self._after_filter)
        self._patch_function(goldbach, "mismatch_violations")
        self._patch_function(goldbach, "pair_count_table")
        for attr in ("build_table17", "build_table18", "build_table19_20", "build_table21"):
            self._patch_function(scaffold, attr, self._counter("scaffold.builds"))
        for attr in ("product_factor", "product_factor_fraction"):
            self._patch_function(scaffold, attr)
        for attr in ("table", "figure1_data", "figure2_data"):
            self._patch_function(tables, attr, self._after_table)
        self._patch_function(cli, "render", self._after_render)
        self._patch_function(cli, "main", self._counter("cli.commands"))
        # audit_all looks claims up in this table, so its entries are the
        # only per-claim boundary reachable from outside the package.
        for cid in CLAIM_IDS:
            fn = auditor._AUDITS[cid]
            auditor._AUDITS[cid] = self._wrap(f"auditor.claim.{cid}", fn)
            self._restore.append((auditor._AUDITS, cid, fn))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.counts)
        out["primes.table_hits"] = self._primes_up_to.cache_info().hits - self._hits0
        for metric in SELF_TIME.values():
            out[metric] = 0.0
        peaks = dict.fromkeys(PEAK_MODULES, 0)
        for name, start, end, _parent, child_s, alloc in self.spans:
            metric = SELF_TIME.get(name)
            if metric is not None:
                out[metric] += (end - start) - child_s
            module = name.split(".")[0]
            if module in peaks:
                peaks[module] = max(peaks[module], alloc)
        for module, peak in peaks.items():
            out[f"{module}.peak_alloc_mb"] = peak / 2**20
        solves = sorted(self.solve_ms)
        out["goldbach.solve_p50_ms"] = statistics.median(solves) if solves else 0.0
        out["goldbach.solve_p99_ms"] = (
            solves[min(len(solves) - 1, int(0.99 * len(solves)))] if solves else 0.0)
        return out

    def self_time_total(self) -> float:
        return sum((end - start) - child for _n, start, end, _p, child, _a in self.spans)

    def write(self, path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p, _c, _a in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": self.counts}, fh)
