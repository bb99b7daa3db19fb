"""The three benchmark workloads: seeded inputs, timed operations, checks.

Every workload is built from ``--seed`` alone and hands bischro only the
generated inputs.  A pass is a fixed list of operations; the runner times
the list, then settles each outcome against its check outside the timed
region.  An exception or a failed check makes that operation fail; it
never aborts the run.

The accuracy metrics come from a reference probe on the constant profile,
run after the timed passes through the same layer path the workload uses.
Its inputs do not depend on the seed, so the four accuracy figures repeat
bit for bit on one commit and a drift is a change in the numerics.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import bischro
import bischro.cli

# Acceptance-suite tolerances (tests/test_acceptance.py, criteria 1 and 9).
EIG_RELERR_TOL = 1e-6
CONTROL_RESIDUAL_TOL = 1e-8
ROUTE_GAP_TOL = 1e-8
# Projection of a smooth datum (tests/test_dynamics.py sampled-datum gate).
PROJECTION_TOL = 1e-4
# Filon-Simpson at 80 samples per period of the fastest mode; the closed
# form reaches roundoff, the tabulated route its quadrature error.
FILON_RESIDUAL_TOL = 1e-6
FILON_OVERSAMPLE = 4

# Fixed reference controls on the constant profile, independent of the seed.
REF_CONTROL_MODES = 12
REF_CONTROL_HORIZON = 0.5
REF_CONTROL_STATES = 4


@dataclass
class Op:
    label: str
    call: Callable[[], object] | None
    check: Callable[[object], str | None]


class Ledger:
    """Attempted and failed operations, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def settle(self, op, outcome):
        self.attempted += 1
        if isinstance(outcome, Exception):
            msg = f"{type(outcome).__name__}: {outcome}"
        else:
            try:
                msg = op.check(outcome)
            except Exception as exc:  # a check that cannot run is a failed check
                msg = f"check raised {type(exc).__name__}: {exc}"
        if msg:
            self.failures.append(f"{op.label}: {msg}")

    def settle_all(self, ops, outcomes):
        for op, outcome in zip(ops, outcomes):
            self.settle(op, outcome)

    def run(self, op):
        """Call and settle one untimed operation; returns its outcome."""
        outcome = call_op(op)
        self.settle(op, outcome)
        return outcome


def call_op(op):
    try:
        return op.call()
    except Exception as exc:
        return exc


# ---- exact clamped-beam roots -----------------------------------------------

def beam_roots(count):
    """Roots of cos x - sech x (same as cos x cosh x = 1), by bisection.

    The k-th root lies within 1 of (k + 1/2) pi, where cos is monotone and
    |cos| at the bracket ends exceeds sech, so the bracket holds one sign
    change.
    """
    def g(x):
        return math.cos(x) - 1.0 / math.cosh(x)

    roots = []
    for k in range(1, count + 1):
        lo, hi = (k + 0.5) * math.pi - 1.0, (k + 0.5) * math.pi + 1.0
        glo = g(lo)
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            gm = g(mid)
            if (gm > 0) == (glo > 0):
                lo, glo = mid, gm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return np.array(roots)


# ---- seeded inputs ----------------------------------------------------------

def variable_spec(rng):
    """rho = 1 + a x, sigma monotone-cubic through 5 samples, q = b x (1 - x)."""
    a = float(rng.uniform(0.2, 1.0))
    b = float(rng.uniform(0.2, 1.0))
    sigma = [(float(x), float(1.0 + rng.uniform(0.0, 0.6))) for x in np.linspace(0.0, 1.0, 5)]
    return {"length": 1.0, "rho": {"poly": [1.0, a]},
            "sigma": {"samples": sigma}, "q": {"poly": [0.0, b, -b]}}


def jitter(rng, value, share=0.1):
    return float(value * (1.0 + rng.uniform(-share, share)))


def complex_normal(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# ---- shared checks and probes -----------------------------------------------

def eig_relerr(eigenvalues):
    exact = beam_roots(5) ** 4
    return float(np.max(np.abs(np.asarray(eigenvalues[:5]) / exact - 1.0)))


def check_eig(eigenvalues):
    err = eig_relerr(eigenvalues)
    return None if err <= EIG_RELERR_TOL else f"lambda_1..5 relative error {err:.3e}"


def route_gap(mom, hum):
    diff = bischro.ExponentialSum(mom.frequencies, mom.beta - hum.beta)
    return diff.norm(mom.horizon) / mom.control_norm


def check_control_pair(pair):
    mom, hum = pair
    if not mom.residual_final <= CONTROL_RESIDUAL_TOL:
        return f"moment residual {mom.residual_final:.3e}"
    if not hum.residual_final <= CONTROL_RESIDUAL_TOL:
        return f"HUM residual {hum.residual_final:.3e}"
    gap = route_gap(mom, hum)
    if not gap <= ROUTE_GAP_TOL:
        return f"route gap {gap:.3e}"
    return None


def control_pair(sd, state, horizon, n_modes):
    sigma_l = sd.sigma_at_right_end()
    mom = bischro.synthesize_moment_control(
        bischro.moments_for_null(state, sd, sigma_l), sd, horizon)
    hum = bischro.synthesize_hum_control(state, sd, horizon, n_modes, sigma_l)
    return mom, hum


def check_spectrum(expect_modes, constant):
    def check(result):
        sd, validation = result
        if sd.count != expect_modes:
            return f"{sd.count} modes, expected {expect_modes}"
        if not validation.passed:
            return f"validation failed: {validation.failures[:3]}"
        return check_eig(sd.eigenvalues) if constant else None
    return check


def reference_accuracy(sd_const, ledger):
    """The four accuracy metrics from a constant-profile spectrum."""
    acc = {"eig_relerr_max": eig_relerr(sd_const.eigenvalues),
           "eig_relres_max": float(np.max(sd_const.residuals / sd_const.eigenvalues))}
    rng = np.random.default_rng(0)
    n = min(REF_CONTROL_MODES, sd_const.trusted_count)
    states = [np.eye(n)[0] + np.eye(n)[1]] + [complex_normal(rng, n)
                                              for _ in range(REF_CONTROL_STATES - 1)]
    res = gap = 0.0
    for k, c in enumerate(states):
        state = bischro.modal_state(sd_const, c)
        pair = ledger.run(Op(f"reference control #{k}",
                             lambda s=state: control_pair(sd_const, s, REF_CONTROL_HORIZON, n),
                             check_control_pair))
        if isinstance(pair, Exception):
            return None
        res = max(res, pair[0].residual_final, pair[1].residual_final)
        gap = max(gap, route_gap(*pair))
    acc["ctrl_residual_max"] = res
    acc["ctrl_route_gap_max"] = gap
    return acc


# ---- workloads --------------------------------------------------------------

class Workload:
    """One benchmark workload; see the README for why each was chosen."""

    name = ""

    def __init__(self, seed, smoke, scratch):
        self.seed = seed
        self.smoke = smoke
        self.scratch = Path(scratch)
        self.counters = {}
        self.first = {}

    def same_as_first(self, key, data):
        """None if ``data`` equals what the first pass gave for ``key``."""
        ref = self.first.setdefault(key, data)
        return None if data == ref else "result differs from the first pass"

    def deterministic(self, key, check, digest):
        """Wrap a check: the result must also equal the first pass's, bit for bit."""
        def wrapped(result):
            return check(result) or self.same_as_first(key, digest(result))
        return wrapped

    def setup(self):
        """Build every input from the seed; called several times, timed."""
        raise NotImplementedError

    def ops(self, state):
        raise NotImplementedError

    def accuracy(self, ledger):
        raise NotImplementedError

    def close(self):
        pass


class SpectrumFine(Workload):
    name = "spectrum-fine"

    def setup(self):
        rng = np.random.default_rng(self.seed)
        return {"const": bischro.constant_profile(),
                "var": bischro.build_profile(variable_spec(rng))}

    def ops(self, state):
        elements, modes = (256, 26) if self.smoke else (2048, 206)
        self.last_const = None
        out = []
        for key in ("const", "var"):
            profile = state[key]

            def call(profile=profile):
                sd = bischro.solve_spectrum(bischro.assemble(profile, elements), modes)
                return sd, bischro.validate_spectrum(sd)

            check = check_spectrum(modes, key == "const")
            if key == "const":
                check = self._keep_const(check)
            out.append(Op(f"spectrum {key} E={elements}", call,
                          self.deterministic(f"spectrum {key}", check, _spectrum_bytes)))
        return out

    def _keep_const(self, check):
        def keep(result):
            self.last_const = result[0]
            return check(result)
        return keep

    def accuracy(self, ledger):
        if self.last_const is None:
            return None
        return reference_accuracy(self.last_const, ledger)


def _spectrum_bytes(result):
    sd = result[0]
    return sd.eigenvalues.tobytes() + sd.residuals.tobytes() + sd.traces.tobytes()


class ControlSweep(Workload):
    name = "control-sweep"

    def _sizes(self):
        if self.smoke:
            return 256, 26, (4, 12, 25)
        return 1024, 103, (8, 32, 102)

    def setup(self):
        elements, modes, n_list = self._sizes()
        rng = np.random.default_rng(self.seed)
        profile = bischro.build_profile(variable_spec(rng))
        sd = bischro.solve_spectrum(bischro.assemble(profile, elements), modes)
        states_per_cell = 2 if self.smoke else 4
        cells = []
        for n in n_list:
            for base in (0.01, 0.1, 0.5):
                T = jitter(rng, base)
                states = [bischro.modal_state(sd, complex_normal(rng, n))
                          for _ in range(states_per_cell)]
                cells.append((n, T, states))
        data = []
        for _ in range(1 if self.smoke else 3):
            a = float(rng.uniform(-1.0, 1.0))
            data.append((
                lambda x, a=a: x**2 * (1 - x) ** 2 * np.exp(a * x),
                lambda x, a=a: (2 * x * (1 - x) ** 2 - 2 * x**2 * (1 - x)
                                + a * x**2 * (1 - x) ** 2) * np.exp(a * x),
            ))
        # tabulated controls for the Filon forward solve, N = 8 (smoke: 4)
        tabulated = []
        n8 = n_list[0]
        sigma_l = sd.sigma_at_right_end()
        for base in (0.01, 0.1):
            T = jitter(rng, base)
            state = bischro.modal_state(sd, complex_normal(rng, n8))
            sol = bischro.synthesize_moment_control(
                bischro.moments_for_null(state, sd, sigma_l), sd, T)
            lam_max = float(sd.eigenvalues[n8 - 1])
            need = math.ceil(bischro.dynamics.SAMPLES_PER_PERIOD * lam_max * T / (2 * math.pi)) + 1
            samples = FILON_OVERSAMPLE * need
            samples += 1 - samples % 2
            ts = np.linspace(0.0, T, samples)
            f = sol.waveform()
            # in slices, so the tabulation adds no transient to peak RSS
            fs = np.concatenate([f(ts[i:i + 8192]) for i in range(0, samples, 8192)])
            tabulated.append((state, T, ts, fs))
        return {"sd": sd, "cells": cells, "data": data, "tabulated": tabulated}

    def ops(self, state):
        sd = state["sd"]
        sigma_l = sd.sigma_at_right_end()
        out = []
        for n, T, states in state["cells"]:
            for k, st in enumerate(states):
                out.append(Op(f"control N={n} T={T:.4g} #{k}",
                              lambda st=st, T=T, n=n: control_pair(sd, st, T, n),
                              check_control_pair))
            out.append(Op(f"observability N={n} T={T:.4g}",
                          lambda T=T, n=n: bischro.observability_constants(sd, T, n),
                          _check_observability))
        for k, (f, fp) in enumerate(state["data"]):
            out.append(Op(f"project #{k}",
                          lambda f=f, fp=fp: bischro.project_initial(sd, f, fp),
                          _check_projection))
        for st, T, ts, fs in state["tabulated"]:
            out.append(Op(f"filon N={len(st.coefficients)} T={T:.4g} samples={len(ts)}",
                          lambda st=st, T=T, ts=ts, fs=fs:
                              (st, bischro.evolve_controlled(st, sd, sigma_l, (ts, fs), T)),
                          _check_filon))
        return out

    def accuracy(self, ledger):
        elements, modes, _ = self._sizes()
        op = Op(f"reference spectrum E={elements}",
                lambda: bischro.solve_spectrum(
                    bischro.assemble(bischro.constant_profile(), elements), modes),
                lambda sd: check_eig(sd.eigenvalues))
        sd = ledger.run(op)
        return None if isinstance(sd, Exception) else reference_accuracy(sd, ledger)


def _check_observability(rep):
    if rep.resolution_failure or not 0 < rep.c_lower <= rep.c_upper:
        return f"constants c={rep.c_lower:.3e} C={rep.c_upper:.3e}"
    if not rep.gram_condition < bischro.control.CONDITION_CAP:
        return f"Gram condition {rep.gram_condition:.3e}"
    return None


def _check_projection(state):
    r = state.projection_residual
    if not np.all(np.isfinite(state.coefficients)) or not r <= PROJECTION_TOL:
        return f"projection residual {r}"
    return None


def _check_filon(result):
    state0, final = result
    r = bischro.sobolev_norm(final, -0.5) / bischro.sobolev_norm(state0, -0.5)
    return None if r <= FILON_RESIDUAL_TOL else f"Filon-verified residual {r:.3e}"


KINDS = ("spectrum", "asymptotics", "observability", "control", "simulate")


class CliSmall(Workload):
    name = "cli-small"

    def __init__(self, seed, smoke, scratch):
        super().__init__(seed, smoke, scratch)
        self.root = Path(tempfile.mkdtemp(prefix="cli-", dir=self.scratch))
        self.threads = 2

    def _elements(self):
        return (64, 128) if self.smoke else (64, 128, 256, 512)

    def setup(self):
        rng = np.random.default_rng(self.seed)
        spec = variable_spec(rng)
        profile = (f"[profile]\nlength = 1.0\nrho_poly = {spec['rho']['poly']!r}\n"
                   f"sigma_samples = {spec['sigma']['samples']!r}\n"
                   f"q_poly = {spec['q']['poly']!r}\n")
        cfg_dir = self.root / "configs"
        cfg_dir.mkdir(exist_ok=True)
        calls = []
        for elements in self._elements():
            for kind in KINDS:
                text = _experiment(kind, elements, rng) + profile + _initial(kind, rng)
                path = cfg_dir / f"{kind}-{elements}.cfg"
                path.write_text(text, encoding="ascii")
                calls.append((f"{kind} E={elements}", kind, path))
        return calls

    def ops(self, calls):
        out = []
        for label, kind, path in calls:
            def call(label=label, kind=kind, path=path):
                outdir = self.root / label.replace(" ", "_")
                argv = [kind, "--config", str(path), "--out", str(outdir)]
                if kind == "observability":
                    argv += ["--threads", str(self.threads)]
                return _main(argv), outdir
            out.append(Op(f"cli {label}", call,
                          self._check_call(label, kind)))
        return out

    def _check_call(self, label, kind):
        def check(result):
            (code, text), outdir = result
            try:
                if code != 0:
                    return f"exit code {code}: {text.strip()[-200:]}"
                if kind == "spectrum" and "'validation': 'pass'" not in text:
                    return "spectrum validation did not pass"
                files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
                self.counters["cli.files_written"] = (
                    self.counters.get("cli.files_written", 0) + len(files))
                self.counters["cli.bytes_written"] = (
                    self.counters.get("cli.bytes_written", 0)
                    + sum(len(b) for b in files.values()))
                if kind == "control":
                    msg = _check_control_report(json.loads(files["control_report.json"]))
                    if msg:
                        return msg
                return self.same_as_first(f"cli {label}", files)
            finally:
                shutil.rmtree(outdir, ignore_errors=True)
        return check

    def accuracy(self, ledger):
        """Constant profile at the largest mesh, through the spectrum and control kinds."""
        elements = self._elements()[-1]
        common = (f"elements = {elements}\nmodes = {elements // 10 + 2}\n"
                  f"horizons = [{REF_CONTROL_HORIZON!r}]\n"
                  "[profile]\nlength = 1.0\nrho_poly = [1.0]\nsigma_poly = [1.0]\nq_poly = [0.0]\n"
                  "[initial]\ncoefficients = [(1, 1.0, 0.0), (2, 1.0, 0.0)]\n")
        outs = {}
        for kind in ("spectrum", "control"):
            path = self.root / f"reference-{kind}.cfg"
            path.write_text(f"[experiment]\nkind = {kind}\n{common}", encoding="ascii")
            outs[kind] = self.root / f"reference-{kind}"
            argv = [kind, "--config", str(path), "--out", str(outs[kind])]
            result = ledger.run(Op(f"cli reference {kind}", lambda argv=argv: _main(argv),
                                   lambda r: f"exit code {r[0]}: {r[1].strip()[-200:]}" if r[0] else None))
            if isinstance(result, Exception) or result[0] != 0:
                return None
        lam, res = _read_spectrum_csv(outs["spectrum"] / "spectrum.csv")
        report = json.loads((outs["control"] / "control_report.json").read_text())
        ledger.settle(Op("cli reference accuracy", None,
                         lambda _: _check_control_report(report) or check_eig(lam)), None)
        return {"eig_relerr_max": eig_relerr(lam),
                "eig_relres_max": float(np.max(res / lam)),
                "ctrl_residual_max": max(report["residual_final"], report["hum_residual_final"]),
                "ctrl_route_gap_max": report["hum_agreement_l2"]}

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


def _main(argv):
    """Run the CLI entry point with its stdout and stderr captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = bischro.cli.main(argv)
    return code, buf.getvalue()


def _experiment(kind, elements, rng):
    lines = ["[experiment]", f"kind = {kind}", f"elements = {elements}",
             f"modes = {elements // 10 + 2}"]
    if kind == "spectrum":
        lines.append("export_matrices = true")
    elif kind == "observability":
        lines.append(f"horizons = {[jitter(rng, t) for t in (0.01, 0.1, 0.5)]!r}")
    elif kind == "control":
        lines.append(f"horizons = {[jitter(rng, 0.5)]!r}")
    elif kind == "simulate":
        lines.append(f"horizons = {[jitter(rng, t) for t in (0.1, 0.5, 1.0)]!r}")
    return "\n".join(lines) + "\n"


def _initial(kind, rng):
    if kind not in ("control", "simulate"):
        return ""
    coeffs = [(n, float(rng.standard_normal()), float(rng.standard_normal()))
              for n in range(1, 5)]
    return f"[initial]\ncoefficients = {coeffs!r}\n"


def _check_control_report(report):
    for key in ("residual_final", "hum_residual_final"):
        if not report[key] <= CONTROL_RESIDUAL_TOL:
            return f"{key} {report[key]:.3e}"
    if not report["hum_agreement_l2"] <= ROUTE_GAP_TOL:
        return f"route gap {report['hum_agreement_l2']:.3e}"
    return None


def _read_spectrum_csv(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return rows[:, 1], rows[:, 4]


WORKLOADS = {w.name: w for w in (SpectrumFine, ControlSweep, CliSmall)}
