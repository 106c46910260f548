"""The benchmark's own tests; run with `python3 -m pytest bench/tests`."""
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import frontier
import paper
import pslb
import queries
import worker
from spans import LAYER_METRICS

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _small_queries(seed=1):
    inputs = queries.make_inputs(seed)
    inputs["sweep"] = [6, 60]
    inputs["general"] = inputs["general"][:2]
    inputs["halves"] = inputs["halves"][:2]
    inputs["z"] = {k: zs[:3] for k, zs in inputs["z"].items()}
    return inputs


def test_correct_round_has_no_failures():
    result = worker.run_round(queries, _small_queries())
    assert result["attempted"] == 28 + 4 + 6
    assert (result["failed"], result["wrong"]) == (0, 0), result["failures"]


def test_wrong_answer_counts_as_failed(monkeypatch):
    original = pslb.goldbach_solve

    def composite_partner(E, *args, **kwargs):
        sol = original(E, *args, **kwargs)
        bad = pslb.GoldbachPair(E, 9, E - 9)  # 9 is not prime
        return pslb.GoldbachSolution(bad, sol.case)

    monkeypatch.setattr(pslb, "goldbach_solve", composite_partner)
    result = worker.run_round(queries, _small_queries())
    goldbach_ops = 28 + 4
    assert result["failed"] == result["wrong"] == goldbach_ops
    assert result["attempted"] == goldbach_ops + 6


@pytest.mark.parametrize("module", [paper, queries, frontier])
def test_seed_fixes_inputs(module):
    assert module.make_inputs(7) == module.make_inputs(7)
    assert module.make_inputs(7) != module.make_inputs(8)


def test_traced_self_times_within_traced_run():
    some_paper_ops = [op for op in paper.operations(paper.make_inputs(1), None)
                      if op.label.split()[1:3] in (["table", "5"], ["table", "17"],
                                                   ["census", "--inner"], ["twins", "--below"])]
    mixed = types.SimpleNamespace(operations=lambda inputs, workdir: (
        some_paper_ops + queries.operations(inputs, workdir)))
    for mode in ("spans", "memory"):
        result = worker.run_round(mixed, _small_queries(), mode=mode)
        assert result["failed"] == 0, result["failures"]
        self_times = [result["layers"][m] for m, unit, _ in LAYER_METRICS if unit == "s"]
        assert 0 < sum(self_times) <= result["self_s"] <= result["run_s"]
        assert result["layers"]["cli.commands"] == 4
        assert result["layers"]["goldbach.solves"] == 28 + 4
    assert not hasattr(pslb.goldbach_solve, "__wrapped__")  # wrappers removed


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import run

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    reported = {name: unit for name, unit, _ in LAYER_METRICS} | run.TRACE_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "paper", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
