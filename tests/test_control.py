import dataclasses

import numpy as np
import pytest

import bischro.control
from bischro import (
    ConditioningError,
    ExponentialSum,
    evolve_controlled,
    gram,
    modal_state,
    moments_for_null,
    sobolev_norm,
    synthesize_hum_control,
    synthesize_moment_control,
)

from .oracles import exponential_energy


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


def test_vanishing_trace_excluded_with_warning(sd_const_128):
    doctored = dataclasses.replace(
        sd_const_128, traces=np.where(np.arange(sd_const_128.count) == 1,
                                      1e-12, sd_const_128.traces))
    state = modal_state(doctored, np.ones(4))
    with pytest.warns(UserWarning, match=r"modes \[2\]"):
        m = moments_for_null(state, doctored, 1.0)
    assert m[1] == 0
    assert np.all(m[[0, 2, 3]] != 0)


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
    return sigma_l * gram(sd.eigenvalues[:N], T, traces=sd.traces[:N]).weighted


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


@pytest.mark.parametrize("sigma_l", [0.0, -1.0])
def test_nonpositive_sigma_rejected(sd_const_128, sigma_l):
    state = modal_state(sd_const_128, np.ones(4))
    with pytest.raises(ValueError, match="must be positive"):
        moments_for_null(state, sd_const_128, sigma_l)
    with pytest.raises(ValueError, match="must be positive"):
        synthesize_hum_control(state, sd_const_128, 0.5, 4, sigma_l)


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
