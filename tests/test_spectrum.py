import dataclasses

import numpy as np
import pytest

from bischro import assemble, constant_profile, solve_spectrum, validate_spectrum
from bischro.operator import band_matvec

from .oracles import CLAMPED_ROOTS, beam_roots


def test_oracle_bisection_matches_frozen_roots():
    assert beam_roots(8) == pytest.approx(np.array(CLAMPED_ROOTS), rel=1e-14)


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
    assert len(report.rows) == sd_const_128.trusted_count
    assert all(r.rel_gap > 1e-8 for r in report.rows)


def test_validate_flags_duplicate_eigenvalue(sd_const_128):
    lam = sd_const_128.eigenvalues.copy()
    lam[3] = lam[2]
    doctored = dataclasses.replace(sd_const_128, eigenvalues=lam)
    report = validate_spectrum(doctored)
    assert not report.passed
    assert any("simplicity" in f for f in report.failures)
    flagged = {r.index for r in report.rows if "simplicity" in r.flags}
    assert flagged == {3, 4}


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
    # the dense pencil is materialized once (K and M, two n^2 arrays) and
    # LAPACK factors it in place; a copy of either would push the peak
    # past 2.5 matrices
    import tracemalloc
    op = assemble(const_profile, 512)
    solve_spectrum(op, 12)
    tracemalloc.start()
    try:
        solve_spectrum(op, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * op.n_dof**2 * 8
