"""Benchmark of the bischro pipeline: one workload per run, one process.

Usage, from the repository root:

    python3 bench/run.py --workload spectrum-fine --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload control-sweep --seed 1 --smoke

The run builds its inputs from ``--seed``, sets them up several times
(``setup_s`` is the median, plus the one-off import time), then repeats
the workload's fixed list of operations in a closed loop with one caller
until ``--seconds`` have passed (at least two passes), checks every
outcome, and probes accuracy on the constant profile.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics, which are the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  A traced run alternates untraced
and traced passes, so the tracing overhead is measured in the same run;
its spans are written to ``.bench_out/`` when the run ends.

``--smoke`` shrinks every workload so that all generators, calls and
checks run in a few seconds; see ``bench/test_smoke.py``.

The run reads and writes only inside the checkout: the library comes from
``src/``, scratch files go to ``.bench_out/``.  It exits with status 2,
printing no result, when the library sources are missing.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MIN_PASSES = 2
SETUPS = 3

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "eig_relerr_max": "ratio", "eig_relres_max": "ratio",
    "ctrl_residual_max": "ratio", "ctrl_route_gap_max": "ratio",
}
ACCURACY = ("eig_relerr_max", "eig_relres_max", "ctrl_residual_max", "ctrl_route_gap_max")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("spectrum-fine", "control-sweep", "cli-small"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrunken inputs, for checking the harness itself")
    return p.parse_args(argv)


def import_library():
    """Import bischro from this checkout's src/; None when it is missing."""
    src = ROOT / "src"
    if not (src / "bischro" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import bischro
    import bischro.cli  # noqa: F401
    if Path(bischro.__file__).resolve().parent != (src / "bischro").resolve():
        return None
    return bischro


# ---- environment stamp -------------------------------------------------------

def blas_threads():
    """Thread count in effect for every OpenBLAS loaded in this process."""
    import ctypes

    libs = set()
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            for line in maps:
                m = re.search(r"(/\S*openblas\S*\.so\S*)", line)
                if m:
                    libs.add(m.group(1))
    except OSError:
        return {}
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bischro").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"), "blas_threads": blas_threads(),
        "nproc": os.cpu_count(), "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16], "seed": seed,
    }


def check_load(env, workload):
    """The load must come from this one process, within nproc threads."""
    problems = []
    nproc = env["nproc"] or 1
    for lib, n in env["blas_threads"].items():
        if n > nproc:
            problems.append(f"{lib} uses {n} threads > nproc={nproc}")
    if getattr(workload, "threads", 1) > nproc:
        problems.append(f"CLI --threads {workload.threads} > nproc={nproc}")
    if threading.active_count() != 1:
        problems.append(f"{threading.active_count()} Python threads still running")
    return problems


# ---- measurement -------------------------------------------------------------

def quantile_summary(values):
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    s = sorted(values)
    summary = {"median": statistics.median(s), "n": n}
    if n >= 11:
        j = n - 11  # the highest sample with ten samples beyond it
        summary[f"p{100 * (j + 1) // n}"] = s[j]
    return summary


def run_workload(bischro, args, env):
    import spans
    from workloads import WORKLOADS, Ledger, call_op

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, OUT)
    ledger = Ledger()
    try:
        import_s = env["import_s"]
        setup_times = []
        for _ in range(SETUPS):
            state = None  # free the previous set-up first, so it cannot raise peak RSS
            t0 = time.perf_counter()
            state = workload.setup()
            setup_times.append(time.perf_counter() - t0)
        ops = workload.ops(state)
        del state

        walls = {False: [], True: []}
        layer_runs = []
        all_spans = []
        t_begin = time.perf_counter()
        i = 0
        while i < MIN_PASSES or time.perf_counter() - t_begin < args.seconds:
            traced = bool(args.trace) and i % 2 == 1
            tracer = spans.Tracer() if traced else None
            restore = spans.install(tracer, bischro) if traced else None
            try:
                t0 = time.perf_counter()
                outcomes = [call_op(op) for op in ops]
                t1 = time.perf_counter()
            finally:
                if restore is not None:
                    spans.uninstall(restore)
            walls[traced].append(t1 - t0)
            workload.counters = {}
            ledger.settle_all(ops, outcomes)
            del outcomes
            if traced:
                m = spans.layer_metrics(tracer.spans)
                m.update(workload.counters)
                m["trace.uncovered_s"] = spans.uncovered(tracer.spans, t0, t1)
                layer_runs.append(m)
                all_spans.append([vars(s) for s in tracer.spans])
            i += 1

        del ops
        accuracy = workload.accuracy(ledger)
    finally:
        workload.close()

    wall = quantile_summary(walls[False])
    result = {
        "wall_s": wall["median"],
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if accuracy is None:  # the probe failed and the ledger says so
        accuracy = dict.fromkeys(ACCURACY, 1.0)
    result.update(accuracy)
    detail = {"wall_s": wall, "pass_walls_s": walls[False], "setup_runs_s": setup_times,
              "passes": i}

    per_layer = None
    if args.trace:
        per_layer = {}
        for key in layer_runs[0]:
            vals = [m.get(key, 0) for m in layer_runs]
            per_layer[key] = (max(vals) if key.endswith("_max")
                              else statistics.fmean(vals))
        traced_wall = statistics.median(walls[True])
        per_layer["trace.wall_s"] = traced_wall
        per_layer["trace.overhead_frac"] = traced_wall / wall["median"] - 1.0
        per_layer["trace.uncovered_frac"] = per_layer["trace.uncovered_s"] / traced_wall
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"env": env, "passes": all_spans}) + "\n", encoding="ascii")
    return ledger, result, per_layer, detail, workload


def main(argv=None):
    args = parse_args(argv)
    bischro = import_library()
    if bischro is None:
        print("error: bischro sources not found under src/ of this checkout", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    env = environment(args.seed)
    env["import_s"] = import_s
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import Op

    ledger, e2e, per_layer, detail, workload = run_workload(bischro, args, env)
    ledger.settle(Op("load", None, lambda _: "; ".join(check_load(env, workload)) or None), None)
    failed = len(ledger.failures)

    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload: {args.workload} seed={args.seed} passes={detail['passes']} "
          f"wall_s={json.dumps(detail['wall_s'])} setup_runs_s={detail['setup_runs_s']}")
    print(f"pass_walls_s: {detail['pass_walls_s']}")
    for name, value in e2e.items():
        print(f"metric {name} = {value!r} {END_TO_END_UNITS[name]}")
    print(f"fail_frac = {failed}/{ledger.attempted}")
    for f in ledger.failures[:20]:
        print(f"failure: {f}")
    if per_layer is not None:
        for name, value in per_layer.items():
            print(f"layer {name} = {value!r}")

    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_max"):
        return "ratio"
    if name.endswith("_mb_computed"):
        return "MB"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
