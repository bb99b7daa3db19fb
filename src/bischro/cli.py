"""Command-line runner: config in, CSV/JSON reports out.

Five subcommands (spectrum, asymptotics, observability, control,
simulate) share one config format; the subcommand must match the
config's ``kind``.  Every output file starts with a ``# schema:`` line
and a header row, floats are printed with 17 significant digits, and no
timestamps enter the files, so identical configs run at the same BLAS
thread count produce byte-identical artifacts (the threaded dense
eigensolve moves the last bits of the spectrum with the thread count).
On failure all partially written files are removed and the exit code
tells the failure class apart:

    0  success
    2  configuration or profile error
    3  numerical failure (assembly, eigensolve, sampling)
    4  conditioning refusal (Gram condition above the cap)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .asymptotics import gap_report, index_offset, spacing_report, trace_limit_report
from .coefficients import ProfileError, build_profile, geometry
from .config import ConfigError, parse_config
from .control import ConditioningError, moments_for_null, synthesize_hum_control, \
    synthesize_moment_control
from .dynamics import CoarseSamplingError, ExponentialSum, ResamplingError, \
    evolve_free, modal_state
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


def write_csv(path, schema_name, columns, rows):
    lines = [f"# schema: {schema_name}-{SCHEMA_VERSION}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj]
    return obj


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


class _Workspace:
    """Tracks written files so a failing run leaves no partial outputs."""

    def __init__(self, outdir):
        self.outdir = Path(outdir)
        self.written = []

    def prepare(self):
        self.outdir.mkdir(parents=True, exist_ok=True)

    def csv(self, name, schema_name, columns, rows):
        path = self.outdir / name
        write_csv(path, schema_name, columns, rows)
        self.written.append(path)
        return path

    def json(self, name, schema_name, payload):
        path = self.outdir / name
        doc = {"schema": f"{schema_name}-{SCHEMA_VERSION}", **_jsonify(payload)}
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="ascii")
        self.written.append(path)
        return path

    def discard_all(self):
        for path in self.written:
            try:
                path.unlink()
            except OSError:
                pass
        self.written.clear()


def _solve_pipeline(config, report):
    t0 = time.perf_counter()
    op = assemble(build_profile(config.profile_spec), config.elements)
    report.timings["assemble"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    sd = solve_spectrum(op, config.modes)
    report.timings["eigensolve"] = time.perf_counter() - t0
    return sd


def _initial_state(config, sd):
    coeff = np.zeros(min(config.modes, sd.trusted_count), dtype=complex)
    for n, re, im in config.initial_coefficients:
        if n > len(coeff):
            raise NumericalError(
                f"initial coefficient for mode {n} exceeds the "
                f"{len(coeff)} solved/trusted modes"
            )
        coeff[n - 1] += re + 1j * im
    return modal_state(sd, coeff)


def _export_matrices(ws, op):
    for name, band in (("stiffness", op.kband), ("mass", op.mband)):
        rows = []
        n = band.shape[1]
        for d in range(band.shape[0]):
            for j in range(n - d):
                v = band[d, j]
                if v != 0.0:
                    rows.append((j + d, j, v))
        rows.sort()
        ws.csv(f"{name}.csv", "matrix", ("row", "col", "value"), rows)


def _run_spectrum(config, ws, report):
    sd = _solve_pipeline(config, report)
    rows = [
        (n + 1, sd.eigenvalues[n], sd.wavenumbers[n], sd.traces[n], sd.residuals[n])
        for n in range(sd.count)
    ]
    ws.csv("spectrum.csv", "spectrum", ("n", "lambda", "mu", "trace", "residual"), rows)
    check = validate_spectrum(sd)
    report.records.append({
        "modes": sd.count, "trusted": sd.trusted_count,
        "validation": "pass" if check.passed else "fail",
        "failures": check.failures,
    })
    if config.export_matrices:
        _export_matrices(ws, sd.op)


def _run_asymptotics(config, ws, report):
    sd = _solve_pipeline(config, report)
    profile = sd.op.profile
    geo = geometry(profile, config.quadrature_order)
    for table, fname in (
        (spacing_report(sd, geo), "spacing.csv"),
        (gap_report(sd, geo), "gap.csv"),
        (trace_limit_report(sd, profile, geo), "trace.csv"),
    ):
        ws.csv(fname, table.name, table.columns, table.rows)
    report.records.append({"optical_length": geo.optical_length,
                           "trusted": sd.trusted_count,
                           "index_offset": index_offset(sd, geo)})


def _run_observability(config, ws, report):
    sd = _solve_pipeline(config, report)
    n_modes = min(config.modes, sd.trusted_count)

    rows = []
    for T in config.horizons:
        rep = observability_constants(sd, T, n_modes)
        if rep.resolution_failure:
            raise NumericalError(
                f"Gram eigensolve lost positivity at T={rep.horizon:g}; "
                "raise the horizon or lower the mode count"
            )
        rows.append((rep.horizon, rep.n_modes, rep.c_lower, rep.c_upper,
                     rep.gram_condition, rep.density))
    ws.csv("observability.csv", "observability",
           ("T", "N", "c_T", "C_T", "condition", "density_estimate"), rows)
    report.records.append({"cells": len(rows)})


def _run_control(config, ws, report):
    T = config.horizons[0]
    sd = _solve_pipeline(config, report)
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

    ws.json("control_report.json", "control", {
        "T": T, "N": sol.n_modes,
        "moments": sol.moments, "beta": sol.beta,
        "control_norm": sol.control_norm,
        "residual_final": sol.residual_final,
        "gram_condition": sol.gram_condition,
        "method": sol.method,
        "hum_residual_final": hum.residual_final,
        "hum_method": hum.method,
        "hum_agreement_l2": agreement,
    })
    ts = np.linspace(0.0, T, 2001)
    fv = sol.waveform()(ts)
    ws.csv("control.csv", "control-waveform", ("t", "re_f", "im_f"),
           [(t, v.real, v.imag) for t, v in zip(ts, fv)])
    report.records.append({
        "residual_final": sol.residual_final,
        "hum_agreement_l2": agreement,
        "control_norm": sol.control_norm,
    })


def _run_simulate(config, ws, report):
    sd = _solve_pipeline(config, report)
    state0 = _initial_state(config, sd)
    for k, T in enumerate(config.horizons):
        state = evolve_free(state0, T)
        rows = [(n + 1, c.real, c.imag) for n, c in enumerate(state.coefficients)]
        ws.csv(f"state_{k:03d}.csv", "state", ("n", "re_c", "im_c"), rows)
    report.records.append({"snapshots": len(config.horizons)})


_RUNNERS = {
    "spectrum": _run_spectrum,
    "asymptotics": _run_asymptotics,
    "observability": _run_observability,
    "control": _run_control,
    "simulate": _run_simulate,
}


def run(config):
    """Execute a validated config; returns the report, cleans up on failure."""
    report = RunReport(kind=config.kind, schema=SCHEMA_VERSION)
    ws = _Workspace(config.output)
    ws.prepare()
    t0 = time.perf_counter()
    try:
        _RUNNERS[config.kind](config, ws, report)
    except Exception:
        ws.discard_all()
        raise
    report.files = [str(p) for p in ws.written]
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
            from dataclasses import replace
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
    except (NumericalError, ResamplingError, CoarseSamplingError,
            ValueError, RuntimeError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for line in report.lines():
        print(line)
    return EXIT_OK


def entry():
    raise SystemExit(main())
