"""Smoke test of the benchmark harness: one short traced run of one
workload must pass its correctness gate and report every per-layer metric
that BENCHMARK.json declares.  Timings are not checked."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iv-b3-compare-l2",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    missing = [name for name in declared if name not in result["metrics"]]
    assert not missing
