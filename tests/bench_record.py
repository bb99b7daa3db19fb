"""Record benchmark runs of one checkout as ``BENCH_<tag>.json``.

Usage, from the repository root:

    python -m tests.bench_record TAG                      # every workload, 10 runs each
    python -m tests.bench_record TAG --workload control-sweep --runs 10
    python -m tests.bench_record TAG --checkout ../other  # another checkout's benchmark
    python -m tests.bench_record TAG --smoke --runs 2     # shrunken inputs, a few seconds

Each run is one ``bench/run.py --workload W --seed S --seconds SEC --trace 0``
process in the checkout, with the seed alternating over ``--seeds`` and
``SEC`` by default the ``run_seconds`` of ``BENCHMARK.json``.  The record
holds, per run, the workload, the seed, the parsed ``env:`` line and the
parsed result line (the last stdout line), and per workload and metric
the unit, the run count, the median and the quartiles.  The workloads and
metrics are read from the checkout's ``BENCHMARK.json``; nothing under
``bench/`` is changed.  A run that exits nonzero stops the recording.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("tag", help="names the record BENCH_<tag>.json")
    p.add_argument("--checkout", type=Path, default=ROOT,
                   help="the checkout whose bench/run.py runs (default: this one)")
    p.add_argument("--workload", action="append",
                   help="a workload of BENCHMARK.json, repeatable (default: every one)")
    p.add_argument("--runs", type=int, default=10, help="runs per workload")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                   help="run i of a workload takes seed i modulo this list")
    p.add_argument("--seconds", type=float, help="per run (default: run_seconds)")
    p.add_argument("--smoke", action="store_true", help="pass --smoke to every run")
    p.add_argument("--out", type=Path, help="the record's path (default: ROOT/BENCH_<tag>.json)")
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be at least 1")
    return args


def run_once(checkout, workload, seed, seconds, smoke):
    """The parsed ``env:`` line and result line of one benchmark process."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[len("env: "):]) for line in lines if line.startswith("env: "))
    return env, json.loads(lines[-1])


def summarize(results, names):
    """Per metric of ``names``: unit, run count, median and quartiles over ``results``."""
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "n": len(values),
                     "median": float(median), "q1": float(q1), "q3": float(q3)}
    return out


def record(args):
    spec = json.loads((args.checkout / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [m["name"] for m in spec["end_to_end"]]
    runs, summary = [], {}
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.seeds[i % len(args.seeds)]
            env, result = run_once(args.checkout, workload, seed, seconds, args.smoke)
            runs.append({"workload": workload, "seed": seed, "env": env, "result": result})
            results.append(result)
        summary[workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": summarize(results, names),
        }
    return {"tag": args.tag, "seconds": seconds, "smoke": args.smoke, "seeds": args.seeds,
            "runs": runs, "summary": summary}


def main(argv=None):
    args = parse_args(argv)
    doc = record(args)
    out = args.out or ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for workload, s in doc["summary"].items():
        wall = s["metrics"]["wall_s"]
        print(f"{workload}: wall_s median {wall['median']:.6g} s "
              f"[{wall['q1']:.6g}, {wall['q3']:.6g}], {s['failed']}/{s['attempted']} failed")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
