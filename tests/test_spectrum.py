import dataclasses
import errno
import mmap
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import bischro.operator
import bischro.spectrum
from bischro import (NumericalError, assemble, build_profile, constant_profile, solve_spectrum,
                     validate_spectrum)
from bischro.operator import band_matvec

from .oracles import (CLAMPED_ROOTS, beam_roots, galerkin_clamped_spectrum, symmetrize,
                      wrapper_post_eigh)

# a smooth variable profile with every coefficient non-constant:
# rho = 1 + x/2, sigma = 1 + 0.3 x + 0.2 x^2, q = 0.4 x (1 - x)
ORACLE_POLYS = {"rho": [1.0, 0.5], "sigma": [1.0, 0.3, 0.2], "q": [0.0, 0.4, -0.4]}


def _galerkin(size=48):
    rho, sigma, q = (lambda x, c=ORACLE_POLYS[k]: np.polynomial.polynomial.polyval(x, c)
                     for k in ("rho", "sigma", "q"))
    return galerkin_clamped_spectrum(rho, sigma, q, 1.0, 10, size=size)


def test_oracle_bisection_matches_frozen_roots():
    assert beam_roots(8) == pytest.approx(np.array(CLAMPED_ROOTS), rel=1e-14)


def test_galerkin_oracle_matches_clamped_beam():
    one = np.ones_like
    lam, traces = galerkin_clamped_spectrum(one, one, np.zeros_like, 1.0, 8)
    mu = np.array(CLAMPED_ROOTS)
    assert lam == pytest.approx(mu**4, rel=1e-12)
    assert traces == pytest.approx(2 * mu**2, rel=1e-10)


def test_galerkin_oracle_converges_in_basis_size():
    # modes 1-10 only: mode 20 still moves by 3e-7 between 40 and 48 functions
    lam, traces = _galerkin()
    for size in (40, 56):
        lam_k, traces_k = _galerkin(size)
        assert lam_k == pytest.approx(lam, rel=1e-14)
        assert traces_k == pytest.approx(traces, rel=1e-11)


def test_variable_profile_spectrum_against_galerkin_oracle():
    # measured maxima at 512 elements: 2.4e-8 (lambda_10), 9.5e-6 (t_10)
    spec = {"length": 1.0, **{k: {"poly": c} for k, c in ORACLE_POLYS.items()}}
    sd = solve_spectrum(assemble(build_profile(spec), 512), 12)
    lam, traces = _galerkin()
    assert sd.eigenvalues[:10] == pytest.approx(lam, rel=5e-8)
    assert sd.traces[:10] == pytest.approx(traces, rel=2e-5)


def test_constant_coefficient_wavenumbers_match_oracle(sd_const_512):
    for n in range(8):
        assert sd_const_512.wavenumbers[n] == pytest.approx(
            CLAMPED_ROOTS[n], rel=1e-6
        )


def test_modes_m_orthonormal(sd_const_128):
    sd = sd_const_128
    _, mb = sd.op.constrained_bands()
    mv = np.column_stack([band_matvec(mb, sd.modes[:, j]) for j in range(sd.count)])
    gram = sd.modes.T @ mv
    assert np.abs(gram - np.eye(sd.count)).max() < 1e-10


def test_traces_positive_by_convention(sd_const_128, sd_var_512):
    assert np.all(sd_const_128.traces > 0)
    assert np.all(sd_var_512.traces > 0)


def test_eigenvalues_strictly_increasing_and_positive(sd_const_128):
    lam = sd_const_128.eigenvalues
    assert lam[0] > 0
    assert np.all(np.diff(lam) > 0)


def test_determinism_bit_identical(const_profile):
    a = solve_spectrum(assemble(const_profile, 96), 6)
    b = solve_spectrum(assemble(const_profile, 96), 6)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.traces, b.traces)
    assert np.array_equal(a.modes, b.modes)


def test_trusted_count_rule(const_profile):
    sd = solve_spectrum(assemble(const_profile, 160), 12)
    assert sd.trusted_count == 12
    sd = solve_spectrum(assemble(const_profile, 80), 12)
    assert sd.trusted_count == 8


def test_count_exceeding_dimension_rejected(const_profile):
    op = assemble(const_profile, 8)
    with pytest.raises(ValueError, match="exceeds"):
        solve_spectrum(op, op.n_dof + 1)


def test_count_must_be_an_integer_before_any_densify(const_profile, monkeypatch):
    op = assemble(const_profile, 16)

    def densify(band):
        raise AssertionError("densified before the count was checked")

    monkeypatch.setattr(bischro.spectrum, "band_to_dense", densify)
    for count in (6.0, True):
        with pytest.raises(TypeError, match="count must be an integer"):
            solve_spectrum(op, count)


@pytest.mark.parametrize("name, coefficient", [
    ("sigma", lambda x: np.where(x > 0.5, np.nan, 1.0)),
    ("rho", lambda x: np.where(x > 0.5, np.nan, 1.0)),
    ("q", lambda x: np.full_like(x, np.inf)),
])
def test_nonfinite_pencil_refused_before_any_densify(const_profile, monkeypatch, name,
                                                     coefficient):
    # the dense kernels do not scan the pencil for NaN or inf; the solve checks the bands
    op = assemble(dataclasses.replace(const_profile, **{name: coefficient}), 16)

    def densify(band):
        raise AssertionError("densified a non-finite pencil")

    monkeypatch.setattr(bischro.spectrum, "band_to_dense", densify)
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        solve_spectrum(op, 4)


def test_unmappable_dense_pencil_is_a_memory_error(const_profile, monkeypatch):
    def unmappable(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")
    monkeypatch.setattr(bischro.operator.mmap, "mmap", unmappable)
    with pytest.raises(MemoryError, match="cannot allocate a 30-square dense pencil"):
        solve_spectrum(assemble(const_profile, 16), 4)


def test_refused_huge_page_advice_keeps_the_solve(const_profile, monkeypatch):
    advised = []

    class Unadvisable(mmap.mmap):
        def madvise(self, *args):
            advised.append(args)
            raise OSError(errno.EINVAL, "Invalid argument")
    op = assemble(const_profile, 64)
    sd = solve_spectrum(op, 6)
    monkeypatch.setattr(bischro.operator.mmap, "mmap", Unadvisable)
    again = solve_spectrum(op, 6)
    assert advised == [(mmap.MADV_NOHUGEPAGE,)] * 3   # M, its factor's band, K
    assert np.array_equal(again.eigenvalues, sd.eigenvalues)
    assert np.array_equal(again.modes, sd.modes)


def test_random_rayleigh_quotients_bound_smallest_eigenvalue(sd_const_128, rng):
    sd = sd_const_128
    op = sd.op
    lam1 = sd.eigenvalues[0]
    kb, mb = op.constrained_bands()
    for _ in range(1000):
        u = rng.standard_normal(op.n_dof)
        q = (u @ band_matvec(kb, u)) / (u @ band_matvec(mb, u))
        assert q >= lam1 * (1 - 1e-10)


def test_refinement_decreases_eigenvalues(sd_const_512, sd_const_1024, sd_const_2048):
    # monotone decrease holds up to the eigensolver noise floor
    # (eps * lambda_max)^2 / gap, which for the fundamental mode on fine
    # meshes exceeds the discretization error itself; modes n >= 2 meet
    # the strict 1e-6 mesh-convergence pin
    for n in range(10):
        a = sd_const_512.eigenvalues[n]
        b = sd_const_1024.eigenvalues[n]
        c = sd_const_2048.eigenvalues[n]
        noise = 1e-5 if n == 0 else 5e-7
        assert a >= b * (1 - noise)
        assert b >= c * (1 - noise)
        assert abs(b - c) / c < (1e-5 if n == 0 else 1e-6)


def test_validate_passes_on_clean_spectrum(sd_const_128):
    report = validate_spectrum(sd_const_128)
    assert report.passed
    assert len(report.table["index"]) == sd_const_128.trusted_count
    assert np.all(report.table["rel_gap"] > 1e-8)


def test_validate_flags_duplicate_eigenvalue(sd_const_128):
    lam = sd_const_128.eigenvalues.copy()
    lam[3] = lam[2]
    doctored = dataclasses.replace(sd_const_128, eigenvalues=lam)
    report = validate_spectrum(doctored)
    assert not report.passed
    assert [f for f in report.failures if "simplicity" in f] == \
        ["mode 3: simplicity", "mode 4: simplicity"]


def test_validate_flags_zeroed_trace(sd_const_128):
    tr = sd_const_128.traces.copy()
    tr[1] = 0.0
    doctored = dataclasses.replace(sd_const_128, traces=tr)
    report = validate_spectrum(doctored)
    assert not report.passed
    assert "mode 2: trace" in report.failures


def test_non_spd_mass_detected(const_profile):
    from bischro import NumericalError
    op = assemble(const_profile, 16)
    broken = dataclasses.replace(op, mband=-op.mband)
    with pytest.raises(NumericalError, match="positive definite"):
        solve_spectrum(broken, 3)


def test_nonpositive_eigenvalue_detected(const_profile):
    # shifting the stiffness below zero makes the pencil indefinite
    from bischro import NumericalError
    op = assemble(const_profile, 16)
    shifted = dataclasses.replace(op, kband=op.kband - 600.0 * op.mband)
    with pytest.raises(NumericalError, match="nonpositive"):
        solve_spectrum(shifted, 3)


def _weighted_residual(op, lam, vec):
    import scipy.linalg as sla
    kb, mb = op.constrained_bands()
    cb = sla.cholesky_banded(mb, lower=True)
    r = band_matvec(kb, vec) - lam * band_matvec(mb, vec)
    return float(np.sqrt(abs(r @ sla.cho_solve_banded((cb, True), r))))


def test_residual_gate_separates_good_from_corrupt(const_profile):
    # the gate must sit far above honest residuals and far below the
    # residual of an eigenpair evaluated against the wrong pencil
    import scipy.linalg as sla
    from bischro.spectrum import RESIDUAL_FLOOR_FACTOR, RESIDUAL_TOL, \
        _estimate_lambda_max
    op = assemble(const_profile, 64)
    sd = solve_spectrum(op, 4)
    kb, mb = op.constrained_bands()
    cb = sla.cholesky_banded(mb, lower=True)
    floor = RESIDUAL_FLOOR_FACTOR * np.finfo(float).eps * _estimate_lambda_max(kb, mb, cb)
    gate = RESIDUAL_TOL * sd.eigenvalues[0] + floor
    assert sd.residuals[0] < 0.1 * gate
    wrong = assemble(constant_profile(rho=1.3), 64)
    bad = _weighted_residual(wrong, sd.eigenvalues[0], sd.modes[:, 0])
    assert bad > 100 * gate


def test_eigensolve_makes_no_private_dense_copies(const_profile):
    # the dense pencil lives in mappings of its own, which tracemalloc does
    # not see, and LAPACK factors it in place; numpy allocates no n^2 array
    # at all, not even a half-size one
    import tracemalloc
    op = assemble(const_profile, 512)
    solve_spectrum(op, 12)
    tracemalloc.start()
    try:
        solve_spectrum(op, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * op.n_dof**2 * 8


def test_eigensolve_keeps_only_the_lower_pencil_resident():
    # M is factored and its dense mapping released before K is densified,
    # so one lower triangle (half an n^2 matrix of 8-byte entries) is
    # resident at a time; the pages that straddle the diagonal or a column
    # end add about 512 / n of one (0.25 at n = 2046), the band pages of
    # M's factor as much again, the workspace and modes a little more.
    # Measured: 1.16-1.18.  Two lower triangles resident together, as when
    # LAPACK's dsygvx factors M and reduces K in one call, measure 1.63-1.66
    # and the full symmetric pencil about 2.3.
    src = str(Path(bischro.spectrum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    # the peak is VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec, so
    # a child starts at the peak of the test process it was forked from
    code = """
from bischro import assemble, constant_profile, solve_spectrum

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status
                    if line.startswith("VmHWM:"))

solve_spectrum(assemble(constant_profile(), 64), 6)  # libraries and BLAS buffers
op = assemble(constant_profile(), 1024)
before = peak()
solve_spectrum(op, 12)
print((peak() - before) / (8 * op.n_dof**2))
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1.4


@pytest.mark.parametrize("failure", ["nan", "singular"])
def test_polish_breakdown_raises_naming_the_mode(monkeypatch, failure):
    gbsv = bischro.spectrum._gbsv

    def broken(kl, ku, ab, b, **kwargs):
        if failure == "singular":   # the real kernel, on an exactly singular shift
            return gbsv(kl, ku, np.zeros_like(ab), b, **kwargs)
        return ab, None, np.full_like(b, np.nan), 0

    monkeypatch.setattr(bischro.spectrum, "_gbsv", broken)
    with pytest.raises(NumericalError, match="mode 1 polish"):
        solve_spectrum(assemble(constant_profile(), 32), 4)


def test_polish_reports_gbsv_info_naming_the_mode(monkeypatch):
    # the raw kernel reports a zero pivot through info instead of raising,
    # and its solution may still look finite
    from bischro.spectrum import POLISH_SWEEPS
    gbsv = bischro.spectrum._gbsv
    calls = []

    def late_pivot(kl, ku, ab, b, **kwargs):
        calls.append(None)
        lub, piv, x, info = gbsv(kl, ku, ab, b, **kwargs)
        return lub, piv, x, 7 if len(calls) == 2 * POLISH_SWEEPS + 1 else info

    monkeypatch.setattr(bischro.spectrum, "_gbsv", late_pivot)
    with pytest.raises(NumericalError,
                       match=r"mode 3 polish: shifted solve failed \(gbsv info 7\)"):
        solve_spectrum(assemble(constant_profile(), 32), 4)


def test_lambda_max_breakdown_raises(monkeypatch):
    monkeypatch.setattr(bischro.spectrum, "_pbtrs",
                        lambda cb, b, **kwargs: (np.zeros_like(b), 0))
    with pytest.raises(NumericalError, match="lambda_max power iteration"):
        solve_spectrum(assemble(constant_profile(), 32), 4)


SAMPLED_SIGMA_SPEC = {
    "length": 1.0, "rho": {"poly": [1.0, 0.5]}, "q": {"poly": [0.0, 0.4, -0.4]},
    "sigma": {"samples": [(0.0, 1.0), (0.25, 1.2), (0.5, 1.1), (0.75, 1.3), (1.0, 1.25)]},
}


PENCIL_SPECS = pytest.mark.parametrize(
    "spec", [{"length": 1.0, "rho": 1.0, "sigma": 1.0, "q": 0.0}, SAMPLED_SIGMA_SPEC],
    ids=["constant", "sampled_sigma"])


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("elements", [64, 512])
@PENCIL_SPECS
def test_dense_eigh_matches_scipy_eigh_bit_for_bit(blas, spec, elements, threads):
    # potrf, sygst, syevx and trsm called one by one keep every bit of the
    # dsygvx that sla.eigh runs on the full symmetric pencil, at one BLAS
    # thread (pinned) and at two (the blas fixture's count)
    from bischro._blas import serial_blas
    kb, mb = assemble(build_profile(spec), elements).constrained_bands()
    count = elements // 8

    def both():
        full = [symmetrize(bischro.operator.band_to_dense(band)) for band in (kb, mb)]
        return (sla.eigh(*full, subset_by_index=(0, count - 1)),
                bischro.spectrum._dense_eigh(kb, mb, count))

    (w_ref, v_ref), (w, v) = (serial_blas(both) if threads == 1 else both)()
    assert np.array_equal(w, w_ref)
    assert np.array_equal(v, v_ref)


@pytest.mark.parametrize("elements", [64, 512])
@PENCIL_SPECS
def test_post_eigh_kernels_match_the_wrapper_loop_bit_for_bit(monkeypatch, spec, elements):
    # the benchmark's control metrics sit at 1-2 ulp, so the direct LAPACK/BLAS
    # calls after the dense eigh must keep every bit of the wrapper-based loop
    from bischro._blas import serial_blas
    from bischro.spectrum import _estimate_lambda_max
    dense, real_eigh = [], bischro.spectrum._dense_eigh

    def eigh(*args):
        w, v = real_eigh(*args)
        dense.append((w.copy(), v.copy(order="K")))   # keep the F order trsm returns
        return w, v

    op = assemble(build_profile(spec), elements)
    monkeypatch.setattr(bischro.spectrum, "_dense_eigh", eigh)
    sd = solve_spectrum(op, elements // 8)
    (w, v), = dense
    # solve_spectrum runs everything but its eigh on one BLAS thread, and a
    # threaded Gram matmul moves bits
    lams, modes, traces, residuals, lam_max = serial_blas(wrapper_post_eigh)(op, w, v)
    assert np.array_equal(sd.eigenvalues, lams)
    assert np.array_equal(sd.modes, modes)
    assert np.array_equal(sd.traces, traces)
    assert np.array_equal(sd.residuals, residuals)
    kb, mb = op.constrained_bands()
    assert _estimate_lambda_max(kb, mb, sla.cholesky_banded(mb, lower=True)) == lam_max
