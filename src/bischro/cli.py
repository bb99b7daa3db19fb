"""Command-line runner: config in, CSV/JSON reports out.

Five subcommands (spectrum, asymptotics, observability, control,
simulate) share one config format; the subcommand must match the
config's ``kind``.  Every CSV file is rendered from a ``{column name:
values}`` dict, the form every report takes, and starts with a
``# schema:`` line and a header row; floats are printed with 17
significant digits, integers without a decimal point, and no
timestamps enter the files, so identical configs run at the same BLAS
thread count produce byte-identical artifacts (the threaded dense
eigensolve moves the last bits of the spectrum with the thread count).
Every file is rendered before the first one is written, so a failing
run writes nothing.  The files are staged in a temporary directory
inside the output directory and renamed into place after the last
write, so a failed write leaves the files that existed before the run
untouched and removes the directories the run created.  The
installed ``bischro`` script and ``python -m bischro.cli`` both call
:func:`main`, whose exit code tells the failure class apart:

    0  success
    2  configuration or profile error, found by ``parse_config`` before
       any solve (trusted-mode counts included), a config file that
       cannot be read or is not UTF-8, or an output file that cannot be
       written
    3  numerical failure (eigensolve breakdown, observability Gram
       positivity lost, a dense pencil that cannot be allocated)
    4  conditioning refusal (Gram condition above the cap)
"""

from __future__ import annotations

import argparse
import errno
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from .asymptotics import gap_report, index_offset, spacing_report, trace_limit_report
from .coefficients import ProfileError, build_profile, geometry
from .config import ConfigError, parse_config
from .control import ConditioningError, moments_for_null, synthesize_hum_control, \
    synthesize_moment_control
from .dynamics import ExponentialSum, evolve_free, modal_state
from .observability import beurling_density, observability_constants
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


def _csv(schema_name, table):
    """Render a ``{column name: values}`` dict; columns of unequal length raise."""
    lines = [f"# schema: {schema_name}-{SCHEMA_VERSION}", ",".join(table)]
    lines += [",".join(map(_fmt, row)) for row in zip(*table.values(), strict=True)]
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


def _initial_state(config, sd):
    coeff = np.zeros(sd.trusted_count, dtype=complex)
    for n, re, im in config.initial_coefficients:
        coeff[n - 1] = re + 1j * im
    return modal_state(sd, coeff)


def _export_matrices(op):
    files = {}
    for name, band in (("stiffness", op.kband), ("mass", op.mband)):
        d, col = np.nonzero(band)  # band[d, j] holds entry (j + d, j)
        order = np.lexsort((col, col + d))  # by row, then column
        files[f"{name}.csv"] = _csv("matrix", {"row": (col + d)[order], "col": col[order],
                                               "value": band[d, col][order]})
    return files


def _run_spectrum(config, sd):
    files = {"spectrum.csv": _csv("spectrum", {
        "n": np.arange(1, sd.count + 1), "lambda": sd.eigenvalues, "mu": sd.wavenumbers,
        "trace": sd.traces, "residual": sd.residuals,
    })}
    check = validate_spectrum(sd)
    if config.export_matrices:
        files.update(_export_matrices(sd.op))
    return files, {"modes": sd.count, "trusted": sd.trusted_count,
                   "validation": "pass" if check.passed else "fail",
                   "failures": check.failures}


def _run_asymptotics(config, sd):
    files = {f"{name}.csv": _csv(name, report(sd)) for name, report in (
        ("spacing", spacing_report), ("gap", gap_report), ("trace", trace_limit_report))}
    return files, {"optical_length": geometry(sd.op.profile).optical_length,
                   "trusted": sd.trusted_count, "index_offset": index_offset(sd)}


def _run_observability(config, sd):
    reps = []
    for T in config.horizons:
        rep = observability_constants(sd, T, sd.trusted_count)
        if rep.resolution_failure:
            raise NumericalError(
                f"Gram eigensolve lost positivity at T={rep.horizon:g}; "
                "raise the horizon or lower the mode count"
            )
        reps.append(rep)
    # one estimate for the spectrum, repeated on every horizon's row
    lam = sd.eigenvalues[: sd.trusted_count]
    density = float(beurling_density(lam)["estimate"][-1]) if len(lam) >= 2 else 0.0
    table = {"T": [r.horizon for r in reps], "N": [r.n_modes for r in reps],
             "c_T": [r.c_lower for r in reps], "C_T": [r.c_upper for r in reps],
             "condition": [r.gram_condition for r in reps],
             "density_estimate": [density] * len(reps)}
    return {"observability.csv": _csv("observability", table)}, {"cells": len(reps)}


def _run_control(config, sd):
    T = config.horizons[0]
    state0 = _initial_state(config, sd)
    sigma_l = sd.sigma_at_right_end()
    moments = moments_for_null(state0, sd, sigma_l)
    sol = synthesize_moment_control(moments, sd, T)
    hum = synthesize_hum_control(state0, sd, T, len(moments), sigma_l)
    dn = ExponentialSum(sol.frequencies, sol.beta - hum.beta).norm(T)
    agreement = dn / sol.control_norm if sol.control_norm > 0 else 0.0

    ts = np.linspace(0.0, T, 2001)
    fv = sol.waveform()(ts)
    files = {
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
        "control.csv": _csv("control-waveform", {"t": ts, "re_f": fv.real, "im_f": fv.imag}),
    }
    return files, {"residual_final": sol.residual_final, "hum_agreement_l2": agreement,
                   "control_norm": sol.control_norm}


def _run_simulate(config, sd):
    state0 = _initial_state(config, sd)
    files = {}
    for k, T in enumerate(config.horizons):
        c = evolve_free(state0, T).coefficients
        files[f"state_{k:03d}.csv"] = _csv("state", {"n": np.arange(1, len(c) + 1),
                                                     "re_c": c.real, "im_c": c.imag})
    return files, {"snapshots": len(config.horizons)}


_RUNNERS = {
    "spectrum": _run_spectrum,
    "asymptotics": _run_asymptotics,
    "observability": _run_observability,
    "control": _run_control,
    "simulate": _run_simulate,
}


def run(config):
    """Execute a validated config, then write its files; returns the stdout lines.

    Every file is rendered in memory before the first write, so a failing
    computation writes nothing.  The files are written into a staging
    directory inside ``--out`` and renamed into place only once all of
    them are written, so a failing write leaves the files that existed
    before the run untouched; it also removes the directories this run
    created, then re-raises the OSError.
    """
    op = assemble(build_profile(config.profile_spec), config.elements)
    sd = solve_spectrum(op, config.modes)
    files, record = _RUNNERS[config.kind](config, sd)

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
    return [f"kind: {config.kind}", f"schema: {SCHEMA_VERSION}", f"record: {record}",
            *(f"wrote: {p}" for p in targets)]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bischro",
        description="spectral analysis and boundary null control of the "
                    "clamped fourth-order dispersive equation",
    )
    parser.add_argument("command", choices=_RUNNERS)
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
        lines = run(config)
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
    except (ValueError, RuntimeError, MemoryError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for line in lines:
        print(line)
    return EXIT_OK


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
