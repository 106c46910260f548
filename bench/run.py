"""Benchmark entry point.

    python3 bench/run.py --workload paper|queries|frontier --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each round of the workload runs in
a fresh, single-threaded interpreter (`worker.py`) with cold caches; rounds
repeat until --seconds have passed. The last line of standard output is one
JSON object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, medians over rounds: setup_s,
run_s, cpu_s and peak_rss_mb. --trace 1 cycles through untraced, span and
span-plus-tracemalloc rounds and reports the per-layer metrics, the traced
run_s and the tracing overhead (traced minus untraced run_s); span files go
to bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
ROUND_TIMEOUT_S = 150
END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
TRACE_METRICS = {"trace.run_s": "s", "trace.overhead_s": "s", "trace.spans": "count"}


def _worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # No bytecode is written into the checkout, so in a fresh checkout every
    # round compiles pslb from source and setup_s measures the same work.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _round(workload: str, seed: int, mode: str, trace_file: str | None) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=_worker_env(),
                          capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["mode"] = mode
    return result


def _median(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def _layer_metrics(rounds: list[dict]) -> dict:
    from spans import LAYER_METRICS

    plain = [r for r in rounds if r["mode"] == "plain"]
    timed = [r for r in rounds if r["mode"] == "spans"]
    memory = [r for r in rounds if r["mode"] == "memory"]
    out = {}
    for name, unit, _better in LAYER_METRICS:
        source = memory if name.endswith("peak_alloc_mb") else timed
        out[name] = {"value": statistics.median(r["layers"][name] for r in source), "unit": unit}
    traced = _median(timed, "run_s")
    values = {
        "trace.run_s": traced,
        "trace.overhead_s": traced - _median(plain, "run_s"),
        "trace.spans": statistics.median(r["spans"] for r in timed),
    }
    for name, unit in TRACE_METRICS.items():
        out[name] = {"value": values[name], "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pslb", "__init__.py")):
        print(f"error: no pslb sources under {os.path.join(ROOT, 'src')}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    modes = ("plain", "spans", "memory") if args.trace else ("plain",)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rounds = []
    start = time.monotonic()
    try:
        while len(rounds) < len(modes) or time.monotonic() - start < args.seconds:
            mode = modes[len(rounds) % len(modes)]
            trace_file = (os.path.join(OUT_DIR, f"spans-{tag}-round{len(rounds)}.json")
                          if mode == "spans" else None)
            rounds.append(_round(args.workload, args.seed, mode, trace_file))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for r in rounds:
        for line in r["failures"]:
            print(f"failed: {line}", file=sys.stderr)
    if args.trace:
        metrics = _layer_metrics(rounds)
    else:
        metrics = {name: {"value": _median(rounds, name), "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {
        "correct": all(r["wrong"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(dict(result, rounds=rounds), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
