"""One round of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --mode plain|spans|memory
                            --t0 MONOTONIC [--trace-file PATH]

Prints one JSON object: setup_s (from --t0, the parent's clock reading just
before it started this process, until `pslb` is imported and the inputs are
made), run_s and cpu_s of the operations, peak_rss_mb of this process,
attempted / failed / wrong counts and, in the traced modes, layer metrics.
`spans` mode wraps the program's functions in timing spans; `memory` mode
also runs tracemalloc, for the peak-allocation metrics only.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

WORKLOADS = ("paper", "queries", "frontier")
MODES = ("plain", "spans", "memory")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")


def run_round(module, inputs: dict, mode: str = "plain", trace_file: str | None = None) -> dict:
    """Run every operation once, then check each output; returns the round's figures."""
    from oracle import Mismatch

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="round-", dir=OUT_DIR)
    tracer = None
    try:
        ops = module.operations(inputs, workdir)
        if mode != "plain":
            from spans import Tracer

            tracer = Tracer(memory=mode == "memory")
            tracer.install()
        cpu0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        outputs = []
        for op in ops:
            try:
                outputs.append(op.run())
            except Exception as exc:  # an operation that raises counts as failed
                outputs.append(exc)
        run_s = time.perf_counter() - t0
        cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    failures, wrong = [], 0
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            failures.append(f"{op.label}: raised {type(out).__name__}: {out}")
            continue
        try:
            op.check(out)
        except Mismatch as exc:
            wrong += 1
            failures.append(f"{op.label}: {exc}")
    result = {
        "run_s": run_s,
        "cpu_s": (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime),
        "peak_rss_mb": cpu1.ru_maxrss / 1024,
        "attempted": len(ops),
        "failed": len(failures),
        "wrong": wrong,
        "failures": failures[:5],
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["self_s"] = tracer.self_time_total()
        result["spans"] = len(tracer.spans)
        if trace_file:
            tracer.write(trace_file)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, default="plain")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    import pslb.cli  # noqa: F401  (setup includes the import of the whole package)

    module = importlib.import_module(args.workload)
    inputs = module.make_inputs(args.seed)
    setup_s = time.monotonic() - args.t0

    result = run_round(module, inputs, args.mode, args.trace_file)
    result["setup_s"] = setup_s
    json.dump(result, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
