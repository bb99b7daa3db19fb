"""Command-line runner: config in, CSV/JSON reports out.

Five subcommands (spectrum, asymptotics, observability, control,
simulate) share one config format; the subcommand must match the
config's ``kind``.  Every output file starts with a ``# schema:`` line
and a header row, floats are printed with 17 significant digits, and no
timestamps enter the files, so identical configs run at the same BLAS
thread count produce byte-identical artifacts (the threaded dense
eigensolve moves the last bits of the spectrum with the thread count).
Every file is rendered before the first one is written, so a failing
run writes nothing.  The files are staged in a temporary directory
inside the output directory and renamed into place after the last
write, so a failed write leaves the files that existed before the run
untouched and removes the directories the run created.  The exit code tells the failure class apart:

    0  success
    2  configuration or profile error, found by ``parse_config`` before
       any solve (trusted-mode counts included), or an output file that
       cannot be written
    3  numerical failure (assembly, eigensolve, sampling)
    4  conditioning refusal (Gram condition above the cap)
"""

from __future__ import annotations

import argparse
import errno
import json
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .asymptotics import gap_report, index_offset, spacing_report, trace_limit_report
from .coefficients import ProfileError, build_profile, geometry
from .config import ConfigError, parse_config
from .control import ConditioningError, moments_for_null, synthesize_hum_control, \
    synthesize_moment_control
from .dynamics import ExponentialSum, evolve_free, modal_state
from .observability import observability_constants
from .operator import assemble
from .spectrum import NumericalError, solve_spectrum, validate_spectrum

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CONDITIONING = 4

SCHEMA_VERSION = "v1"


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _csv(schema_name, columns, rows):
    lines = [f"# schema: {schema_name}-{SCHEMA_VERSION}", ",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json(schema_name, payload):
    doc = {"schema": f"{schema_name}-{SCHEMA_VERSION}", **payload}
    return json.dumps(doc, sort_keys=True, indent=1, default=_json_default) + "\n"


@dataclass
class RunReport:
    kind: str
    schema: str
    records: list = field(default_factory=list)
    files: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def lines(self):
        out = [f"kind: {self.kind}", f"schema: {self.schema}"]
        out += [f"record: {rec}" for rec in self.records]
        out += [f"wrote: {f}" for f in self.files]
        out += [f"timing: {name} {secs:.3f}s" for name, secs in self.timings.items()]
        return out


def _initial_state(config, sd):
    coeff = np.zeros(sd.trusted_count, dtype=complex)
    for n, re, im in config.initial_coefficients:
        coeff[n - 1] += re + 1j * im
    return modal_state(sd, coeff)


def _export_matrices(op):
    files = {}
    for name, band in (("stiffness", op.kband), ("mass", op.mband)):
        rows = []
        n = band.shape[1]
        for d in range(band.shape[0]):
            for j in range(n - d):
                v = band[d, j]
                if v != 0.0:
                    rows.append((j + d, j, v))
        rows.sort()
        files[f"{name}.csv"] = _csv("matrix", ("row", "col", "value"), rows)
    return files


def _run_spectrum(config, sd, report):
    rows = [
        (n + 1, sd.eigenvalues[n], sd.wavenumbers[n], sd.traces[n], sd.residuals[n])
        for n in range(sd.count)
    ]
    files = {"spectrum.csv": _csv("spectrum", ("n", "lambda", "mu", "trace", "residual"), rows)}
    check = validate_spectrum(sd)
    report.records.append({
        "modes": sd.count, "trusted": sd.trusted_count,
        "validation": "pass" if check.passed else "fail",
        "failures": check.failures,
    })
    if config.export_matrices:
        files.update(_export_matrices(sd.op))
    return files


def _run_asymptotics(config, sd, report):
    profile = sd.op.profile
    geo = geometry(profile, config.quadrature_order)
    files = {
        fname: _csv(table.name, table.columns, table.rows)
        for table, fname in (
            (spacing_report(sd, geo), "spacing.csv"),
            (gap_report(sd, geo), "gap.csv"),
            (trace_limit_report(sd, profile, geo), "trace.csv"),
        )
    }
    report.records.append({"optical_length": geo.optical_length,
                           "trusted": sd.trusted_count,
                           "index_offset": index_offset(sd, geo)})
    return files


def _run_observability(config, sd, report):
    rows = []
    for T in config.horizons:
        rep = observability_constants(sd, T, sd.trusted_count)
        if rep.resolution_failure:
            raise NumericalError(
                f"Gram eigensolve lost positivity at T={rep.horizon:g}; "
                "raise the horizon or lower the mode count"
            )
        rows.append((rep.horizon, rep.n_modes, rep.c_lower, rep.c_upper,
                     rep.gram_condition, rep.density))
    report.records.append({"cells": len(rows)})
    return {"observability.csv": _csv(
        "observability", ("T", "N", "c_T", "C_T", "condition", "density_estimate"), rows)}


def _run_control(config, sd, report):
    T = config.horizons[0]
    state0 = _initial_state(config, sd)
    sigma_l = sd.sigma_at_right_end()
    t0 = time.perf_counter()
    moments = moments_for_null(state0, sd, sigma_l)
    sol = synthesize_moment_control(moments, sd, T, condition_cap=config.condition_cap)
    hum = synthesize_hum_control(state0, sd, T, len(moments), sigma_l,
                                 condition_cap=config.condition_cap)
    report.timings["synthesis"] = time.perf_counter() - t0
    diff = sol.waveform().weights - hum.waveform().weights
    dn = ExponentialSum(sol.frequencies, diff).norm(T)
    agreement = dn / sol.control_norm if sol.control_norm > 0 else 0.0

    ts = np.linspace(0.0, T, 2001)
    fv = sol.waveform()(ts)
    report.records.append({
        "residual_final": sol.residual_final,
        "hum_agreement_l2": agreement,
        "control_norm": sol.control_norm,
    })
    return {
        "control_report.json": _json("control", {
            "T": T, "N": sol.n_modes,
            "moments": sol.moments, "beta": sol.beta,
            "control_norm": sol.control_norm,
            "residual_final": sol.residual_final,
            "gram_condition": sol.gram_condition,
            "method": sol.method,
            "hum_residual_final": hum.residual_final,
            "hum_method": hum.method,
            "hum_agreement_l2": agreement,
        }),
        "control.csv": _csv("control-waveform", ("t", "re_f", "im_f"),
                            [(t, v.real, v.imag) for t, v in zip(ts, fv)]),
    }


def _run_simulate(config, sd, report):
    state0 = _initial_state(config, sd)
    files = {}
    for k, T in enumerate(config.horizons):
        state = evolve_free(state0, T)
        rows = [(n + 1, c.real, c.imag) for n, c in enumerate(state.coefficients)]
        files[f"state_{k:03d}.csv"] = _csv("state", ("n", "re_c", "im_c"), rows)
    report.records.append({"snapshots": len(config.horizons)})
    return files


_RUNNERS = {
    "spectrum": _run_spectrum,
    "asymptotics": _run_asymptotics,
    "observability": _run_observability,
    "control": _run_control,
    "simulate": _run_simulate,
}


def run(config):
    """Execute a validated config, then write its files; returns the report.

    Every file is rendered in memory before the first write, so a failing
    computation writes nothing.  The files are written into a staging
    directory inside ``--out`` and renamed into place only once all of
    them are written, so a failing write leaves the files that existed
    before the run untouched; it also removes the directories this run
    created, then re-raises the OSError.
    """
    report = RunReport(kind=config.kind, schema=SCHEMA_VERSION)
    t0 = time.perf_counter()
    op = assemble(build_profile(config.profile_spec), config.elements)
    report.timings["assemble"] = time.perf_counter() - t0
    t1 = time.perf_counter()
    sd = solve_spectrum(op, config.modes)
    report.timings["eigensolve"] = time.perf_counter() - t1
    files = _RUNNERS[config.kind](config, sd, report)

    outdir = Path(config.output)
    targets = [outdir / name for name in files]
    for path in targets:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "output file is a directory", str(path))
    created = [d for d in (outdir, *outdir.parents) if not d.exists()]  # deepest first
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=outdir, prefix=".staging-") as staging:
            for name, text in files.items():
                (Path(staging) / name).write_text(text, encoding="ascii")
            for name, path in zip(files, targets):
                (Path(staging) / name).replace(path)
    except OSError:
        for d in created:
            if d.exists():  # mkdir may have failed part of the way down
                d.rmdir()
        raise
    report.files = [str(p) for p in targets]
    report.timings["total"] = time.perf_counter() - t0
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bischro",
        description="spectral analysis and boundary null control of the "
                    "clamped fourth-order dispersive equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in _RUNNERS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = parse_config(text)
        if config.kind != args.command:
            raise ConfigError(
                [f"config kind={config.kind!r} does not match subcommand {args.command!r}"]
            )
        if args.out is not None:
            config = replace(config, output=args.out)
        report = run(config)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ProfileError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConditioningError as exc:
        print(f"conditioning error: {exc}", file=sys.stderr)
        return EXIT_CONDITIONING
    except (ValueError, RuntimeError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for line in report.lines():
        print(line)
    return EXIT_OK


def entry():
    raise SystemExit(main())
