import dataclasses
import re

import numpy as np
import pytest

import bischro.control
import bischro.dynamics
from bischro import (
    ConditioningError,
    ExponentialSum,
    ModalState,
    assemble,
    constant_profile,
    evolve_controlled,
    gram,
    modal_state,
    moments_for_null,
    observability_constants,
    phase_integral,
    sobolev_norm,
    solve_spectrum,
    synthesize_hum_control,
    synthesize_moment_control,
)

from bischro._blas import serial_blas

from .oracles import exact_beam_residual, exponential_energy, modal_residual, wrapper_gram_solves
from .test_dynamics import _direct_forward


def test_zero_state_gives_zero_moments(sd_const_128):
    state = modal_state(sd_const_128, np.zeros(6))
    m = moments_for_null(state, sd_const_128, 1.0)
    assert np.all(m == 0)


def test_moments_scale_linearly(sd_const_128, rng):
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    s = 2.7
    m1 = moments_for_null(modal_state(sd_const_128, c), sd_const_128, 1.0)
    m2 = moments_for_null(modal_state(sd_const_128, s * c), sd_const_128, 1.0)
    assert m2 == pytest.approx(s * m1, rel=1e-14)


def test_vanishing_trace_refused(sd_const_128):
    # a zero moment for an unsteerable mode would verify a state without
    # that mode while the caller's state keeps it
    doctored = dataclasses.replace(
        sd_const_128, traces=np.where(np.arange(sd_const_128.count) == 1,
                                      1e-12, sd_const_128.traces))
    state = modal_state(doctored, np.ones(4))
    with pytest.raises(ValueError, match=r"modes \[2\] have boundary traces below"):
        moments_for_null(state, doctored, 1.0)
    with pytest.raises(ValueError, match=r"modes \[2\] have boundary traces below"):
        synthesize_hum_control(state, doctored, 0.5, 4, 1.0)


def test_mode_count_outside_trusted_range_refused(sd_const_128):
    sd = sd_const_128
    state = modal_state(sd, np.ones(4))
    sigma_l = sd.sigma_at_right_end()
    for N in (0, sd.trusted_count + 1):
        calls = (
            lambda: synthesize_moment_control(np.ones(N), sd, 0.5),
            lambda: synthesize_hum_control(state, sd, 0.5, N, sigma_l),
            lambda: observability_constants(sd, 0.5, N),
        )
        message = rf"^mode count {N} must lie in \[1, trusted_count={sd.trusted_count}\]$"
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()


@pytest.mark.parametrize("count", [np.float64(3.9), 3.5, True, "4"])
def test_mode_count_must_be_an_integer(sd_const_128, count):
    sd = sd_const_128
    state = modal_state(sd, np.ones(4))
    for call in (lambda: synthesize_hum_control(state, sd, 0.5, count, sd.sigma_at_right_end()),
                 lambda: observability_constants(sd, 0.5, count)):
        with pytest.raises(TypeError, match=r"^mode count must be an integer, got "):
            call()
    assert observability_constants(sd, 0.5, np.int64(3)).n_modes == 3


def test_single_mode_moment_control_annihilates(sd_const_128):
    sd = sd_const_128
    sigma_l = 1.0
    state = modal_state(sd, [1.0])
    m = moments_for_null(state, sd, sigma_l)
    sol = synthesize_moment_control(m, sd, 0.4)
    out = evolve_controlled(state, sd, sigma_l, sol.waveform(), 0.4)
    assert abs(out.coefficients[0]) <= 1e-12


def test_single_moment_closed_form_beta(sd_const_128):
    sd = sd_const_128
    T = 0.7
    m = np.array([0.3 - 0.4j])
    sol = synthesize_moment_control(m, sd, T)
    assert sol.beta[0] == pytest.approx(m[0] / T, rel=1e-12)
    assert sol.control_norm == pytest.approx(abs(m[0]) / np.sqrt(T), rel=1e-12)


def test_moment_control_null_and_norm_identity(sd_const_512, rng):
    sd = sd_const_512
    sigma_l = 1.0
    T = 0.5
    c = np.zeros(12, dtype=complex)
    c[0] = c[1] = 1.0
    state = modal_state(sd, c)
    sol = synthesize_moment_control(moments_for_null(state, sd, sigma_l), sd, T)
    assert sol.residual_final <= 1e-8
    # consistency: ||f||^2 == beta^H G beta
    gs = gram(sd.eigenvalues[:12], T)
    direct = np.sqrt(np.real(np.vdot(sol.beta, gs.matrix @ sol.beta)))
    assert sol.control_norm == pytest.approx(direct, rel=1e-12)


def test_doubling_horizon_never_costs_more(sd_const_512, rng):
    sd = sd_const_512
    c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    m = moments_for_null(modal_state(sd, c), sd, 1.0)
    short = synthesize_moment_control(m, sd, 0.25)
    long = synthesize_moment_control(m, sd, 0.5)
    assert long.control_norm <= short.control_norm * (1 + 1e-12)


def _hum_operator(sd, T, N, sigma_l):
    # the operator synthesize_hum_control factors: sigma(ell) t_m t_n G[m, n]
    tr = sd.traces[:N]
    return sigma_l * (np.outer(tr, tr) * gram(sd.eigenvalues[:N], T).matrix)


def test_hum_operator_scalar_case(sd_const_128):
    sd = sd_const_128
    T, sigma_l = 0.6, 2.0
    lam_op = _hum_operator(sd, T, 1, sigma_l)
    assert lam_op.shape == (1, 1)
    assert lam_op[0, 0] == pytest.approx(sigma_l * sd.traces[0] ** 2 * T, rel=1e-13)


def test_hum_operator_positive_definite(sd_const_512):
    import scipy.linalg as sla
    lam_op = _hum_operator(sd_const_512, 0.5, 12, 1.0)
    assert np.array_equal(lam_op, lam_op.conj().T)
    assert sla.eigvalsh(lam_op).min() > 0


def test_hum_quadratic_form_is_output_energy(sd_const_512, rng):
    # c^H Lambda c = sigma * integral |boundary output|^2 over (0, T)
    sd = sd_const_512
    N, T, sigma_l = 8, 0.5, 1.3
    lam_op = _hum_operator(sd, T, N, sigma_l)
    lam = sd.eigenvalues[:N]
    tr = sd.traces[:N]
    for _ in range(3):
        c = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        form = float(np.real(np.vdot(c, lam_op @ c)))
        energy = sigma_l * exponential_energy(lam, c * tr, T)
        assert form == pytest.approx(energy, rel=1e-10)


def test_zero_state_zero_hum_control(sd_const_128):
    sd = sd_const_128
    state = modal_state(sd, np.zeros(5))
    sol = synthesize_hum_control(state, sd, 0.5, 5, 1.0)
    assert np.all(sol.beta == 0)
    assert sol.control_norm == 0.0
    assert sol.residual_final == 0.0


def test_hum_steers_first_mode(sd_const_512):
    sd = sd_const_512
    state = modal_state(sd, np.eye(12)[0])
    sol = synthesize_hum_control(state, sd, 0.5, 12, 1.0)
    assert sol.residual_final <= 1e-8
    assert sol.method == "hum"


def test_hum_equals_moment_route(sd_const_512, rng):
    sd = sd_const_512
    sigma_l = 1.0
    T = 0.5
    c = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    state = modal_state(sd, c)
    mom = synthesize_moment_control(moments_for_null(state, sd, sigma_l), sd, T)
    hum = synthesize_hum_control(state, sd, T, 12, sigma_l)
    diff = ExponentialSum(mom.frequencies, mom.beta - hum.beta)
    rel = diff.norm(T) / mom.control_norm
    assert rel <= 1e-14
    assert hum.residual_final <= 1e-14


def test_control_linear_in_initial_state(sd_const_512, rng):
    sd = sd_const_512
    T, sigma_l = 0.5, 1.0
    c1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    c2 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    sols = [synthesize_moment_control(
        moments_for_null(modal_state(sd, c), sd, sigma_l), sd, T)
        for c in (c1, c2, c1 + c2)]
    assert sols[2].beta == pytest.approx(sols[0].beta + sols[1].beta, rel=1e-10)


def test_time_reversal_reaches_conjugate_data(sd_const_512):
    # reversibility: if f nulls a0 over [0, T], then b(s) = conj(a(T - s))
    # solves the same modal system driven by g(s) = conj(f(T - s)) and
    # runs from rest to conj(a0); verified by an independent forward solve
    sd = sd_const_512
    sigma_l = 1.0
    T = 0.5
    c = np.array([1.0, -0.5 + 0.25j, 0.0, 0.7j] + [0.0] * 8)
    state = modal_state(sd, c)
    sol = synthesize_moment_control(moments_for_null(state, sd, sigma_l), sd, T)
    assert sol.residual_final <= 1e-8
    lam = sd.eigenvalues[:12]
    reversed_f = ExponentialSum(lam, np.conj(sol.beta) * np.exp(-1j * lam * T))
    rest = modal_state(sd, np.zeros(12))
    out = evolve_controlled(rest, sd, sigma_l, reversed_f, T)
    scale = sobolev_norm(state, -0.5)
    err = modal_state(sd, out.coefficients - np.conj(c))
    assert sobolev_norm(err, -0.5) / scale <= 1e-8


def test_conditioning_cap_refusal(sd_const_128):
    sd = sd_const_128
    state = modal_state(sd, np.ones(8))
    m = moments_for_null(state, sd, 1.0)
    with pytest.raises(ConditioningError, match="increase the horizon"):
        synthesize_moment_control(m, sd, 1e-9)
    with pytest.raises(ConditioningError):
        synthesize_hum_control(state, sd, 1e-9, 8, 1.0)


@pytest.mark.parametrize("factor", [2.0, 0.5, 0.0, -1.0])
def test_foreign_sigma_refused_before_any_gram(sd_var_512, monkeypatch, factor):
    # a control solved and verified with another sigma(ell) reports a
    # null residual while the caller's state keeps its energy
    sd = sd_var_512
    sigma_l = factor * sd.sigma_at_right_end()
    state = modal_state(sd, np.eye(12)[0] + np.eye(12)[1])

    def no_gram(*args, **kwargs):
        raise AssertionError("Gram formed for a foreign sigma(ell)")

    monkeypatch.setattr(bischro.control, "gram", no_gram)
    monkeypatch.setattr(bischro.dynamics, "phase_integral", no_gram)
    f = ExponentialSum(sd.eigenvalues[:2], [1.0, 1.0])
    calls = (
        lambda: moments_for_null(state, sd, sigma_l),
        lambda: synthesize_hum_control(state, sd, 0.5, 12, sigma_l),
        lambda: evolve_controlled(state, sd, sigma_l, f, 0.5),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"differs from sigma\(ell\) = 1\.5"):
            call()


def test_foreign_basis_refused_before_any_solve(sd_const_512, sd_var_512, monkeypatch):
    # moments against another basis's traces look like a perfect null
    # control there, while the state's own modes keep almost all of it
    state = modal_state(sd_const_512, np.eye(12)[0] + np.eye(12)[1])
    sigma_l = sd_var_512.sigma_at_right_end()
    with pytest.raises(ValueError, match="different bases"):
        moments_for_null(state, sd_var_512, sigma_l)

    def no_gram(*args, **kwargs):
        raise AssertionError("Gram formed for a state of another basis")

    monkeypatch.setattr(bischro.control, "gram", no_gram)
    with pytest.raises(ValueError, match="different bases"):
        synthesize_hum_control(state, sd_var_512, 0.5, 12, sigma_l)


def test_hum_mode_count_must_match_state(sd_const_128, monkeypatch):
    # the dual route steers exactly the state it is given: a smaller count
    # would leave modes of the state unsteered, a larger one would steer
    # modes the state does not hold
    sd = sd_const_128
    state = modal_state(sd, np.ones(6))

    def no_gram(*args, **kwargs):
        raise AssertionError("Gram formed for a mode count other than the state's")

    monkeypatch.setattr(bischro.control, "gram", no_gram)
    for N in (5, 7):
        with pytest.raises(ValueError,
                           match=rf"^mode count {N} differs from the state's 6 coefficients$"):
            synthesize_hum_control(state, sd, 0.5, N, sd.sigma_at_right_end())


def test_one_gram_eigensolve_per_horizon(sd_const_512, monkeypatch, cold_gram_cache):
    sd = sd_const_512
    N, T = 12, 0.37
    calls = []
    phases = []
    heevr = bischro.dynamics._heevr
    phase = bischro.dynamics.phase_integral

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return heevr(a, *args, **kwargs)

    def counted_phase(omega, horizon):
        phases.append(np.shape(omega))
        return phase(omega, horizon)

    cold_gram_cache()
    # the zheevr of dynamics._eigvalsh, which the condition and the constants call
    monkeypatch.setattr(bischro.dynamics, "_heevr", counted)
    monkeypatch.setattr(bischro.dynamics, "phase_integral", counted_phase)
    # a cold norm forms the Gram but never reads its condition
    assert ExponentialSum(sd.eigenvalues[:N], np.ones(N)).norm(T) > 0
    assert calls == []
    state = modal_state(sd, np.eye(N)[0] + np.eye(N)[1])
    sigma_l = sd.sigma_at_right_end()
    mom = synthesize_moment_control(moments_for_null(state, sd, sigma_l), sd, T)
    hum = synthesize_hum_control(state, sd, T, N, sigma_l)
    ExponentialSum(mom.frequencies, mom.beta - hum.beta).norm(T)
    observability_constants(sd, T, N)
    # the Gram once, and the weight-normalized matrix of the constants
    assert calls == [(N, N), (N, N)]
    # the Gram's phase table once: the solves, every norm and both
    # controls' forward checks read it
    assert phases == [(N, N)]


def _residual_from_full_table(state, f, T):
    # the forward check's residual with a full phase table formed afresh
    final = modal_state(state.basis, _direct_forward(state, f, T))
    return float(sobolev_norm(final, -0.5) / sobolev_norm(state, -0.5))


@pytest.mark.parametrize("N", [8, 32, 102])
def test_pair_residuals_match_uncached_forward_table(sd_const_2048, rng, N, cold_gram_cache):
    sd = sd_const_2048
    sigma_l = sd.sigma_at_right_end()
    for T in (0.01, 0.5):
        state = modal_state(sd, rng.standard_normal(N) + 1j * rng.standard_normal(N))
        cold_gram_cache()
        mom = synthesize_moment_control(moments_for_null(state, sd, sigma_l), sd, T)
        hum = synthesize_hum_control(state, sd, T, N, sigma_l)
        # the moment control is verified on the state its moments encode
        mom_state = modal_state(sd, -1j * sigma_l * sd.traces[:N] * mom.moments)
        assert mom.residual_final == _residual_from_full_table(mom_state, mom.waveform(), T)
        assert hum.residual_final == _residual_from_full_table(state, hum.waveform(), T)


@pytest.mark.parametrize("N", [8, 12, 32, 51, 64, 65, 102])
def test_direct_kernels_match_scipy_wrappers(sd_const_2048, rng, N, cold_gram_cache):
    # 64 and 65 straddle zhetrf's block size; the oracle runs pinned to one
    # BLAS thread, as the wrappers did inside the package
    sd = sd_const_2048
    sigma_l = sd.sigma_at_right_end()
    lam, traces = sd.eigenvalues[:N], sd.traces[:N]
    for T in (0.01, 0.5):
        state = modal_state(sd, rng.standard_normal(N) + 1j * rng.standard_normal(N))
        moments = moments_for_null(state, sd, sigma_l)
        cold_gram_cache()
        mom = synthesize_moment_control(moments, sd, T)
        hum = synthesize_hum_control(state, sd, T, N, sigma_l)
        obs = observability_constants(sd, T, N)
        beta, hum_beta, condition, constants = serial_blas(wrapper_gram_solves)(
            gram(lam, T).matrix, lam, traces, sigma_l, moments, state.coefficients)
        assert np.array_equal(mom.beta, beta)
        assert np.array_equal(hum.beta, hum_beta)
        assert mom.gram_condition == hum.gram_condition == obs.gram_condition == condition
        assert (obs.c_lower, obs.c_upper) == constants


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_moments_and_coefficients_refused(sd_const_128, bad):
    sd = sd_const_128
    moments = np.ones(4, dtype=complex)
    moments[2] = bad
    with pytest.raises(ValueError, match="^moments must be finite$"):
        synthesize_moment_control(moments, sd, 0.5)
    # no state, however built, can carry such coefficients to the HUM route
    with pytest.raises(ValueError, match="^coefficients must be finite$"):
        ModalState(coefficients=[1, bad, 1, 1], basis=sd)


@pytest.mark.parametrize("bad", [0.5, np.ones((4, 2)), np.ones((4, 4))],
                         ids=["scalar", "4x2", "4x4"])
def test_non_vector_moments_refused_before_any_gram(sd_const_128, monkeypatch, bad):
    # unchecked, a scalar failed on len(), a 4 x 2 array was factored and
    # solved as two right-hand sides before a broadcast error, and a 4 x 4
    # array was refused as a state only after the factorization
    def no_gram(*args, **kwargs):
        raise AssertionError("Gram formed for moments that are not a 1-d sequence")

    monkeypatch.setattr(bischro.control, "gram", no_gram)
    with pytest.raises(ValueError, match="^moments must be a 1-d sequence$"):
        synthesize_moment_control(bad, sd_const_128, 0.5)


@pytest.mark.parametrize("held", [[1, 2, -1, 3], np.array([1, 2, -1, 3])],
                         ids=["list", "int_array"])
def test_directly_built_state_runs_both_routes(sd_const_128, held):
    # a ModalState holding a list failed with a bare TypeError in
    # moments_for_null and the HUM route
    sd = sd_const_128
    sigma_l = sd.sigma_at_right_end()
    direct = ModalState(coefficients=held, basis=sd)
    reference = modal_state(sd, np.array([1, 2, -1, 3], dtype=complex))
    m = moments_for_null(direct, sd, sigma_l)
    assert np.array_equal(m, moments_for_null(reference, sd, sigma_l))
    routes = (lambda s: synthesize_moment_control(moments_for_null(s, sd, sigma_l), sd, 0.5),
              lambda s: synthesize_hum_control(s, sd, 0.5, 4, sigma_l))
    for synthesize in routes:
        got, want = synthesize(direct), synthesize(reference)
        assert np.array_equal(got.beta, want.beta)
        assert np.array_equal(got.moments, want.moments)
        assert got.residual_final == want.residual_final


def _misreport(module, kernel, info):
    """The LAPACK handle ``kernel`` of ``module`` returns ``info`` as its last item."""
    def inject(monkeypatch):
        real = getattr(module, kernel)
        monkeypatch.setattr(module, kernel, lambda *args, **kwargs: (*real(*args, **kwargs)[:-1],
                                                                     info))
    return inject


@pytest.mark.parametrize("route, inject, message", [
    ("moment", _misreport(bischro.control, "_hetrf", 3), "zhetrf failed (info 3)"),
    ("moment", _misreport(bischro.control, "_hetrs", -2), "zhetrs failed (info -2)"),
    ("hum", _misreport(bischro.control, "_potrf", 2), "zpotrf failed (info 2)"),
    ("hum", _misreport(bischro.control, "_potrs", -1), "zpotrs failed (info -1)"),
    # the Gram's condition, read before either route solves
    ("moment", _misreport(bischro.dynamics, "_heevr", 5), "zheevr failed (info 5)"),
    ("observability", _misreport(bischro.dynamics, "_heevr", 5), "zheevr failed (info 5)"),
], ids=["zhetrf", "zhetrs", "zpotrf", "zpotrs", "zheevr_condition", "zheevr_constants"])
def test_lapack_info_refused_naming_the_kernel(sd_const_128, monkeypatch, cold_gram_cache,
                                               route, inject, message):
    sd = sd_const_128
    sigma_l = sd.sigma_at_right_end()
    state = modal_state(sd, np.ones(6))
    calls = {
        "moment": lambda: synthesize_moment_control(moments_for_null(state, sd, sigma_l), sd, 0.5),
        "hum": lambda: synthesize_hum_control(state, sd, 0.5, 6, sigma_l),
        "observability": lambda: observability_constants(sd, 0.5, 6),
    }
    cold_gram_cache()
    inject(monkeypatch)
    # a LinAlgError is a ValueError, which the CLI maps to its numerical exit
    with pytest.raises(np.linalg.LinAlgError, match=rf"^{re.escape(message)}$"):
        calls[route]()


def _closed_form_norm(frequencies, weights, T):
    # the L^2 norm as ExponentialSum.norm has always formed it: a
    # Fortran-ordered phase-integral matrix, no cache
    g = phase_integral(np.subtract.outer(frequencies, frequencies).T, T)
    return float(np.sqrt(abs(np.real(np.vdot(weights, g @ weights)))))


@pytest.mark.parametrize("n_modes", [8, 32, None])
def test_control_norm_bits_match_closed_form(sd_const_2048, rng, n_modes, cold_gram_cache):
    # the norms read the cached Gram; a product in another memory order
    # differs by an ulp in about one case of five, hence several states
    sd = sd_const_2048
    N = n_modes or sd.trusted_count
    sigma_l = sd.sigma_at_right_end()
    for T in (0.05, 0.5):
        for _ in range(4):
            state = modal_state(sd, rng.standard_normal(N) + 1j * rng.standard_normal(N))
            mom = synthesize_moment_control(moments_for_null(state, sd, sigma_l), sd, T)
            hum = synthesize_hum_control(state, sd, T, N, sigma_l)
            for sol in (mom, hum):
                expected = _closed_form_norm(sol.frequencies, sol.beta, T)
                assert sol.control_norm == expected
                cold_gram_cache()
                f = sol.waveform()
                assert f.norm(T) == expected       # cold: the norm forms the Gram
                assert f.norm(T) == expected       # warm: it reads its own entry


def test_norm_bits_match_closed_form_unsorted_repeated(rng, cold_gram_cache):
    # unsorted, one frequency twice: no solve would accept these, the norm must
    freqs = np.array([37.5, 2.0, 911.25, -4.0, 2.0, 0.0, 150.3, 1e-3])
    for T in (0.009, 0.3, 1.0):
        for _ in range(6):
            w = rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs))
            expected = _closed_form_norm(freqs, w, T)
            cold_gram_cache()
            assert ExponentialSum(freqs, w).norm(T) == expected
            assert ExponentialSum(freqs, w).norm(T) == expected


@pytest.mark.parametrize("horizon", [np.nan, np.inf, 0.0, -1.0])
def test_nonpositive_or_nonfinite_horizon_refused(sd_const_128, horizon):
    sd = sd_const_128
    state = modal_state(sd, np.ones(4))
    sigma_l = sd.sigma_at_right_end()
    f = ExponentialSum([1.0, 2.0], [1.0, 1.0])
    calls = (
        lambda: gram(sd.eigenvalues[:4], horizon),
        lambda: f.norm(horizon),
        lambda: ExponentialSum([], []).norm(horizon),
        lambda: evolve_controlled(state, sd, sigma_l, f, horizon),
        lambda: synthesize_moment_control(moments_for_null(state, sd, sigma_l), sd, horizon),
        lambda: synthesize_hum_control(state, sd, horizon, 4, sigma_l),
        lambda: observability_constants(sd, horizon, 4),
    )
    for call in calls:
        with pytest.raises(ValueError, match="horizon must be a positive finite number"):
            call()


@pytest.mark.parametrize("elements", [256, 512])
def test_exact_beam_residual_records_the_eigenvalue_error(sd_const_512, elements):
    """A control synthesized on the discrete pencil, evolved on the exact
    clamped beam (400 modes): state = mode 1 + mode 2, N = 12, T = 0.5,
    14 computed modes.  Its H^-2 residual measures the error of the
    discrete eigenvalues (a phase error delta lambda_n T per mode), which
    the reported residual_final (about 1e-16) cannot see.  Measured at
    one and two BLAS threads: 1.47 and 1.49e-6 at E = 256, 1.74 and
    1.43e-6 at 512 (14 modes solved).  Finer meshes make the control
    worse, because the eigenvalues' roundoff grows as h^-4, and there
    the figure also moves with the mode count and the thread count,
    which change the dense solve's roundoff: at 1024, 2.27e-6 and
    4.09e-5 with 14 modes, 1.24e-5 and 1.45e-5 with 102; at 2048,
    3.93e-4 and 1.70e-4 with 14, 1.29e-4 and 1.34e-5 with 204.  A more
    accurate eigensolver shows here as a smaller number."""
    sd = sd_const_512 if elements == 512 else solve_spectrum(assemble(constant_profile(), 256), 14)
    state = modal_state(sd, [1.0, 1.0] + [0.0] * 10)
    horizon = 0.5
    control = synthesize_moment_control(moments_for_null(state, sd, 1.0), sd, horizon)
    # the oracle's evolution on the discrete modes is the package's forward solve
    discrete = modal_residual(sd.eigenvalues[:12], sd.traces[:12], state.coefficients, control,
                              horizon)
    assert discrete < 1e-12 and control.residual_final < 1e-12
    assert exact_beam_residual(state, dataclasses.replace(control, beta=0 * control.beta),
                               horizon) == pytest.approx(1.0, rel=1e-14)
    residual = exact_beam_residual(state, control, horizon)
    assert 0.5 * 1.5e-6 < residual < 2.0 * 1.5e-6
