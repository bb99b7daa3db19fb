"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -v -s tests/test_acceptance.py` to see the PASS/FAIL
lines interleaved; without -s they still appear for failing criteria.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bischro import (
    ExponentialSum,
    assemble,
    constant_profile,
    evolve_controlled,
    evolve_free,
    gap_report,
    gram,
    modal_state,
    moments_for_null,
    beurling_density,
    observability_constants,
    sobolev_norm,
    solve_spectrum,
    spacing_report,
    synthesize_hum_control,
    synthesize_moment_control,
    trace_limit_report,
    validate_spectrum,
)
from bischro.cli import EXIT_OK, main

from .oracles import beam_roots


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL - {label}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS - {label}")


def test_criterion_1_clamped_beam_oracle_equivalence(const_profile):
    with criterion(1, "clamped-beam oracle equivalence, rel 1e-6 for n <= 8"):
        t0 = time.perf_counter()
        sd = solve_spectrum(assemble(const_profile, 512), 8)
        elapsed = time.perf_counter() - t0
        oracle = beam_roots(8)
        worst = np.max(np.abs(sd.wavenumbers / oracle - 1.0))
        assert worst <= 1e-6, f"worst relative wavenumber error {worst:.2e}"
        assert elapsed <= 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_2_spacing_law(sd_const_2048, const_geometry,
                                 sd_var_2048, var_geometry):
    with criterion(2, "mu-spacing law on both profiles, n = 15..24"):
        for sd, geo, band in (
            (sd_const_2048, const_geometry, 1e-3),
            (sd_var_2048, var_geometry, 1e-2),
        ):
            table = spacing_report(sd, geo)
            n = table.column("n")
            ratio = table.column("spacing_ratio")
            window = ratio[(n >= 15) & (n <= 24)]
            assert len(window) == 10
            dev = np.max(np.abs(window - 1.0))
            assert dev <= band, f"spacing ratio deviates {dev:.2e} > {band}"


def test_criterion_3_cubic_gap_law(sd_const_2048, const_geometry,
                                   sd_var_2048, var_geometry):
    with criterion(3, "cubic gap law [0.9, 1.1] at n = 15..24 plus bounded ratios"):
        for sd, geo in ((sd_const_2048, const_geometry),
                        (sd_var_2048, var_geometry)):
            table = gap_report(sd, geo)
            n = table.column("n")
            normed = table.column("normalized_gap")
            window = normed[(n >= 15) & (n <= 24)]
            assert len(window) == 10
            assert np.all(window >= 0.9) and np.all(window <= 1.1), (
                f"normalized gaps outside [0.9, 1.1]: {window}"
            )
            wide = normed[(n >= 2) & (n <= sd.trusted_count - 1)]
            assert len(wide) == sd.trusted_count - 2
            assert np.all(wide >= 0.4) and np.all(wide <= 2.5), (
                "bounded-ratio check failed at "
                f"[{wide.min():.3f}, {wide.max():.3f}]"
            )


def test_criterion_4_trace_asymptote(sd_const_2048, const_profile, const_geometry,
                                     sd_var_2048, var_profile, var_geometry):
    with criterion(4, "boundary-trace asymptote within 4 percent, n = 10..15"):
        for sd, profile, geo in (
            (sd_const_2048, const_profile, const_geometry),
            (sd_var_2048, var_profile, var_geometry),
        ):
            ell = profile.length
            gamma = geo.optical_length
            stated = 2.0 * geo.amplitude(ell) * np.sqrt(
                profile.rho(ell) / profile.sigma(ell)) / gamma
            quotients = sd.traces[9:15] / np.sqrt(sd.eigenvalues[9:15])
            dev = np.max(np.abs(quotients / stated - 1.0))
            assert dev <= 0.04, f"trace quotient off stated limit by {dev:.3f}"


def test_criterion_5_simplicity_and_trace_nonvanishing(
        sd_const_512, sd_var_512, sd_const_2048, sd_var_2048):
    with criterion(5, "simplicity and trace nonvanishing up to trusted count"):
        for sd in (sd_const_512, sd_var_512, sd_const_2048, sd_var_2048):
            report = validate_spectrum(sd)
            assert report.passed, f"validation failures: {report.failures[:4]}"
            assert len(report.rows) == sd.trusted_count


def test_criterion_6_energy_conservation(sd_const_512, rng):
    with criterion(6, "free evolution conserves every Sobolev scale, rel 1e-12"):
        for _ in range(100):
            m = int(rng.integers(1, sd_const_512.trusted_count + 1))
            c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            state = modal_state(sd_const_512, c)
            t = float(rng.uniform(0, 10))
            evolved = evolve_free(state, t)
            for theta in (-0.5, 0.0, 0.5):
                e0 = sobolev_norm(state, theta)
                et = sobolev_norm(evolved, theta)
                assert abs(et - e0) <= 1e-12 * e0


def test_criterion_7_observability_constants(sd_const_512, rng):
    with criterion(7, "observability constants bracket all sampled quotients"):
        N = 12
        reports = {T: observability_constants(sd_const_512, T, N) for T in (0.1, 1.0)}
        lam = sd_const_512.eigenvalues[:N]
        traces = sd_const_512.traces[:N]
        for T, rep in reports.items():
            assert rep.c_lower > 0 and not rep.resolution_failure
            weighted = np.outer(traces, traces) * gram(lam, T).matrix
            for _ in range(100):
                c = rng.standard_normal(N) + 1j * rng.standard_normal(N)
                q = float(np.real(np.vdot(c, weighted @ c))
                          / np.sum(lam * np.abs(c) ** 2))
                assert rep.c_lower * (1 - 1e-8) <= q <= rep.c_upper * (1 + 1e-8)
        assert reports[1.0].c_lower >= reports[0.1].c_lower * (1 - 1e-12)


def test_criterion_8_beurling_density():
    with criterion(8, "Beurling density estimate decays toward zero"):
        lams = beam_roots(200) ** 4
        grid = lams[-1] * np.array([0.01, 0.05, 0.1, 0.5, 1.0])
        est = beurling_density(lams, r_grid=grid)
        values = est.table.column("estimate")
        assert est.estimate <= 0.05, f"largest-window estimate {est.estimate}"
        assert np.all(np.diff(values) < 0), "estimate must decrease with window size"
        assert values[0] <= 0.05


def test_criterion_9_null_control(sd_const_512, rng):
    with criterion(9, "verified null controls, moment and dual routes agree"):
        sd = sd_const_512
        sigma_l = sd.sigma_at_right_end()
        N, T = 12, 0.5
        data = [np.concatenate([[1.0, 1.0], np.zeros(N - 2)]).astype(complex)]
        for _ in range(10):
            data.append(rng.standard_normal(N) + 1j * rng.standard_normal(N))
        for c in data:
            state = modal_state(sd, c)
            t0 = time.perf_counter()
            mom = synthesize_moment_control(
                moments_for_null(state, sd, sigma_l), sd, T)
            hum = synthesize_hum_control(state, sd, T, N, sigma_l)
            elapsed = time.perf_counter() - t0
            assert mom.residual_final <= 1e-8, f"moment residual {mom.residual_final:.2e}"
            assert hum.residual_final <= 1e-8, f"dual-route residual {hum.residual_final:.2e}"
            diff = ExponentialSum(mom.frequencies, mom.beta - hum.beta)
            rel = diff.norm(T) / mom.control_norm
            assert rel <= 1e-8, f"route disagreement {rel:.2e}"
            assert elapsed <= 10.0, f"synthesis took {elapsed:.1f}s"


def test_criterion_10_wellposedness_bound(sd_const_512, rng):
    with criterion(10, "transposition-style bound holds with one constant"):
        sd = sd_const_512
        N, T = 12, 1.0
        sigma_l = sd.sigma_at_right_end()
        lam = sd.eigenvalues[:N]
        traces = sd.traces[:N]
        bound = max(1.0, sigma_l * np.sqrt(T) * np.sqrt(np.sum(traces**2 / lam)))
        worst = 0.0
        for _ in range(100):
            c = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            w = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            state = modal_state(sd, c)
            f = ExponentialSum(lam, w)
            denom = sobolev_norm(state, -0.5) + f.norm(T)
            sup = max(
                sobolev_norm(evolve_controlled(state, sd, sigma_l, f, t), -0.5)
                for t in np.linspace(T / 8, T, 8)
            )
            worst = max(worst, sup / denom)
        assert worst <= bound, f"quotient {worst:.3f} above constant {bound:.3f}"
        print(f"  [criterion 10] empirical max quotient {worst:.4f}, "
              f"configuration constant {bound:.4f}")


SPECTRUM_CFG = """
[experiment]
kind = spectrum
elements = 64
modes = 6

[profile]
length = 1.0
rho_poly = [1.0]
sigma_poly = [1.5, 0.25]
q_poly = [0.1]
"""

CONTROL_CFG = """
[experiment]
kind = control
elements = 64
modes = 6
horizons = [0.5]

[profile]
length = 1.0
rho_poly = [1.0]
sigma_poly = [1.0]
q_poly = [0.0]

[initial]
coefficients = [(1, 1.0, 0.0), (2, 0.0, 1.0)]
"""

GOLDEN_HEADERS = {
    "spectrum.csv": ("# schema: spectrum-v1", "n,lambda,mu,trace,residual"),
    "control_report.json": None,
    "control.csv": ("# schema: control-waveform-v1", "t,re_f,im_f"),
    "state_000.csv": ("# schema: state-v1", "n,re_c,im_c"),
}


def test_criterion_11_determinism_and_schema(tmp_path):
    with criterion(11, "byte-identical reruns and golden schemas"):
        cfg_s = tmp_path / "spectrum.cfg"
        cfg_s.write_text(SPECTRUM_CFG)
        cfg_c = tmp_path / "control.cfg"
        cfg_c.write_text(CONTROL_CFG)
        cfg_sim = tmp_path / "simulate.cfg"
        cfg_sim.write_text(CONTROL_CFG.replace("kind = control", "kind = simulate"))

        for cmd, cfg, files in (
            ("spectrum", cfg_s, ["spectrum.csv"]),
            ("control", cfg_c, ["control_report.json", "control.csv"]),
            ("simulate", cfg_sim, ["state_000.csv"]),
        ):
            out_a, out_b = tmp_path / f"{cmd}_a", tmp_path / f"{cmd}_b"
            assert main([cmd, "--config", str(cfg), "--out", str(out_a)]) == EXIT_OK
            assert main([cmd, "--config", str(cfg), "--out", str(out_b)]) == EXIT_OK
            for name in files:
                a = (out_a / name).read_bytes()
                b = (out_b / name).read_bytes()
                assert a == b, f"{name} differs between identical runs"
                golden = GOLDEN_HEADERS[name]
                if golden is not None:
                    lines = a.decode().splitlines()
                    assert lines[0] == golden[0], f"{name} schema line changed"
                    assert lines[1] == golden[1], f"{name} header row changed"
                else:
                    doc = json.loads(a.decode())
                    assert doc["schema"] == "control-v1"
                    assert set(doc) >= {"T", "N", "moments", "beta", "control_norm",
                                        "residual_final", "gram_condition", "method"}
