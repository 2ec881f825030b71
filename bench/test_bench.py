"""Self-test of the benchmark harness.

Run from the root of a checkout with ``python3 -m pytest -q bench/test_bench.py``
(about a minute on two cores).  It checks that tracing changes no operation
result, that traced counts repeat exactly, that the printed metrics are the
ones ``BENCHMARK.json`` declares, and that the benchmark refuses to run
without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".iterations", ".samples", ".max_side", ".bytes", ".failed")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_keeps_results_and_counts_repeat(workload):
    plain = run.worker(workload, 5, "fixed", 1, False)
    first = run.worker(workload, 5, "fixed", 1, True)
    second = run.worker(workload, 5, "fixed", 1, True)
    assert plain["failed"] == first["failed"] == second["failed"] == 0, first["failures"]
    assert plain["attempted"] == first["attempted"] == second["attempted"] == len(WORKLOADS[workload].cycle)
    assert plain["digest"] == first["digest"] == second["digest"]
    counts = {k: v for k, v in first["layers"].items() if k.endswith(COUNT_SUFFIXES)}
    assert set(counts) == {m["name"] for m in SPEC["per_layer"] if m["name"].endswith(COUNT_SUFFIXES)}
    assert counts == {k: second["layers"][k] for k in counts}


def _result(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_printed_metrics_match_the_spec():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _result("sampled", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no program source" in proc.stderr


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90
    assert run.percentile([3.0], 0.9) == 3.0
