"""Quick check of the benchmark harness itself, on shrunken inputs.

Run from the repository root with ``python3 -m pytest -q bench/test_smoke.py``.
Each case starts ``bench/run.py --smoke`` as its own process, the way the
benchmark is meant to be run, and holds its last output line to the
metric names and units declared in ``BENCHMARK.json``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_inputs_follow_the_seed():
    def filon_points(seed):
        proc = run_bench(ROOT, "--workload", "control-sweep", "--seed", str(seed),
                         "--seconds", "0.1", "--trace", "1", "--smoke")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        return metrics["dynamics.filon_points"]["value"]

    assert filon_points(5) == filon_points(5)
    assert filon_points(5) != filon_points(6)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
