import json
import subprocess
import sys

from .bench_record import ROOT


def test_smoke_record_holds_every_run_and_metric(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    proc = subprocess.run([sys.executable, "-m", "tests.bench_record", "smoke", "--smoke",
                           "--workload", "control-sweep", "--runs", "3", "--seeds", "3", "4",
                           "--seconds", "0.2", "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert [(r["workload"], r["seed"]) for r in doc["runs"]] == [("control-sweep", 3),
                                                                 ("control-sweep", 4),
                                                                 ("control-sweep", 3)]
    assert all(r["env"]["nproc"] >= 1 and r["result"]["correct"] for r in doc["runs"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = doc["summary"]["control-sweep"]
    assert summary["failed"] == 0
    assert summary["attempted"] == sum(r["result"]["attempted"] for r in doc["runs"])
    assert set(summary["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    walls = sorted(r["result"]["metrics"]["wall_s"]["value"] for r in doc["runs"])
    wall = summary["metrics"]["wall_s"]
    assert (wall["n"], wall["unit"], wall["median"]) == (3, "s", walls[1])
    assert walls[0] <= wall["q1"] <= wall["median"] <= wall["q3"] <= walls[2]
