"""Steadiness test of the benchmark itself (not part of the library suite).

    python3 -m pytest -q bench/test_bench.py

Each workload (riccati-only too, which BENCHMARK.json leaves out of the
timed set) runs twice, traced, on one seed: both runs must pass the
correctness gate and report identical per-layer counts.  Each workload
also runs once untraced and must report every end-to-end metric of
BENCHMARK.json, non-zero.  Without the library source the benchmark must
fail without printing a result.  Takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SEED = 7
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
sys.path.insert(0, os.path.join(ROOT, "src"))
from workloads import WORKLOADS  # noqa: E402


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_gate_is_clean(workload):
    runs = [_result(_run(workload, 1)) for _ in range(2)]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    for res in runs:
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert [runs[0]["metrics"][c]["value"] for c in counts] == \
        [runs[1]["metrics"][c]["value"] for c in counts]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    res = _result(_run(workload, 0))
    assert res["correct"] and res["failed"] == 0
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0.0


def test_fails_without_library_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(next(iter(WORKLOADS)), 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
