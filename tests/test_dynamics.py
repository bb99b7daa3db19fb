import dataclasses

import numpy as np
import pytest

from bischro import (
    CoarseSamplingError,
    ExponentialSum,
    ResamplingError,
    evolve_controlled,
    evolve_free,
    filon_moment,
    modal_state,
    phase_integral,
    project_initial,
    sobolev_norm,
)
from .oracles import gauss_integral, rk_controlled


def synthetic_basis(template, lambdas, traces):
    return dataclasses.replace(
        template,
        eigenvalues=np.asarray(lambdas, dtype=float),
        wavenumbers=np.asarray(lambdas, dtype=float) ** 0.25,
        traces=np.asarray(traces, dtype=float),
        residuals=np.zeros(len(lambdas)),
        trusted_count=len(lambdas),
    )


# ---- projection -----------------------------------------------------------

def test_project_recovers_single_mode(sd_const_128):
    sd = sd_const_128
    state = project_initial(sd, sd.modes[:, 2])
    assert state.coefficients[2] == pytest.approx(1.0, abs=1e-10)
    others = np.delete(state.coefficients, 2)
    assert np.abs(others).max() < 1e-10
    assert state.projection_residual < 1e-8


def test_project_is_linear(sd_const_128):
    sd = sd_const_128
    y0 = 2.0 * sd.modes[:, 0] + 1j * sd.modes[:, 1]
    state = project_initial(sd, y0)
    expected = np.zeros(sd.trusted_count, dtype=complex)
    expected[0] = 2.0
    expected[1] = 1j
    assert state.coefficients == pytest.approx(expected, abs=1e-10)


def test_project_polynomial_against_direct_quadrature(sd_const_128):
    sd = sd_const_128
    op = sd.op
    state = project_initial(sd, lambda x: x**2 * (1 - x) ** 2,
                            lambda x: 2 * x * (1 - x) ** 2 - 2 * x**2 * (1 - x))
    dofs = op.interpolate(lambda x: x**2 * (1 - x) ** 2,
                          lambda x: 2 * x * (1 - x) ** 2 - 2 * x**2 * (1 - x))
    for n in range(6):
        mode = sd.modes[:, n]

        def integrand(x):
            return (op.profile.rho(x) * op.evaluate(dofs, x)
                    * op.evaluate(mode, x))

        direct = sum(
            gauss_integral(integrand, op.h * e, op.h * (e + 1), panels=1, order=8)
            for e in range(op.n_elements)
        )
        assert state.coefficients[n] == pytest.approx(direct, abs=1e-10)


def test_project_samples_and_resampling_guard(sd_const_128):
    sd = sd_const_128
    xs = np.linspace(0, 1, 4 * sd.op.n_elements + 1)
    state = project_initial(sd, (xs, np.sin(np.pi * xs) ** 2 * xs * (1 - xs)))
    assert state.projection_residual < 1e-4
    coarse = np.linspace(0, 1, 12)
    with pytest.raises(ResamplingError, match="at least"):
        project_initial(sd, (coarse, np.sin(np.pi * coarse)))
    short = np.linspace(0, 0.7, 400)
    with pytest.raises(ResamplingError, match="cover"):
        project_initial(sd, (short, np.sin(np.pi * short)))


# ---- free evolution and norms --------------------------------------------

def test_evolve_free_identity_at_zero(sd_const_128, rng):
    state = modal_state(sd_const_128, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    out = evolve_free(state, 0.0)
    assert np.array_equal(out.coefficients, state.coefficients)


def test_evolve_free_unimodular(sd_const_128, rng):
    state = modal_state(sd_const_128, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    for t in (0.3, 2.7, 41.0):
        out = evolve_free(state, t)
        assert np.abs(out.coefficients) == pytest.approx(np.abs(state.coefficients), rel=1e-14)


def test_evolve_free_group_property(sd_const_128, rng):
    # phase accuracy is |lambda t| * eps, so the 1e-14 contract is tested
    # on order-one frequencies and the real spectrum at its own scale
    small = synthetic_basis(sd_const_128, [0.5, 1.2, 2.0], [1.0, 1.0, 1.0])
    state = modal_state(small, rng.standard_normal(3) + 1j * rng.standard_normal(3))
    a = evolve_free(evolve_free(state, 0.2), 0.5)
    b = evolve_free(state, 0.7)
    assert a.coefficients == pytest.approx(b.coefficients, rel=1e-14)
    assert a.time == pytest.approx(b.time)

    state = modal_state(sd_const_128, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    a = evolve_free(evolve_free(state, 0.2), 0.5)
    b = evolve_free(state, 0.7)
    scale = sd_const_128.eigenvalues[5] * 0.7 * np.finfo(float).eps
    assert a.coefficients == pytest.approx(b.coefficients, rel=10 * scale)


def test_sobolev_norm_single_mode(sd_const_128):
    state = modal_state(sd_const_128, [1.0])
    lam1 = sd_const_128.eigenvalues[0]
    for theta in (-0.5, 0.0, 0.5, 1.3):
        assert sobolev_norm(state, theta) == pytest.approx(lam1**theta, rel=1e-13)


def test_sobolev_theta_zero_is_plain_l2(sd_const_128, rng):
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    state = modal_state(sd_const_128, c)
    assert sobolev_norm(state, 0.0) == pytest.approx(np.linalg.norm(c), rel=1e-14)


def test_free_evolution_conserves_every_scale(sd_const_128, rng):
    state = modal_state(sd_const_128, rng.standard_normal(10) + 1j * rng.standard_normal(10))
    for theta in (-0.5, 0.0, 0.5):
        e0 = sobolev_norm(state, theta)
        for t in (0.1, 1.0, 13.7):
            assert sobolev_norm(evolve_free(state, t), theta) == pytest.approx(e0, rel=1e-12)


def test_modal_state_rejects_untrusted_length(sd_const_128):
    with pytest.raises(ValueError, match="trusted"):
        modal_state(sd_const_128, np.ones(sd_const_128.trusted_count + 1))


# ---- phase integrals and Filon quadrature ---------------------------------

def test_phase_integral_against_quadrature():
    for omega in (0.0, 1e-9, 1e-3, 0.5, 7.0, 431.0):
        direct = gauss_integral(lambda t: np.exp(1j * omega * t), 0.0, 0.8,
                                panels=max(16, int(omega)), order=12)
        assert phase_integral(omega, 0.8) == pytest.approx(direct, rel=1e-12, abs=1e-15)


def test_phase_integral_array_matches_scalar_calls_bitwise():
    # zero, series-branch (|omega T| < 1e-2) and closed-form entries mixed
    T = 0.7
    omega = np.array([[0.0, 1e-9, -3e-3, 0.0142],
                      [-0.0143, 2.5, -431.0, 1e6]])
    out = phase_integral(omega, T)
    assert out.shape == omega.shape
    for idx, w in np.ndenumerate(omega):
        single = phase_integral(w, T)
        assert isinstance(single, complex)
        assert single == out[idx]
    assert phase_integral(np.array(0.0), T) == complex(T)


def test_filon_matches_closed_form_for_exponential():
    T = 2.0
    ts = np.linspace(0, T, 4001)
    for omega_f, omega in ((3.0, 40.0), (0.0, 0.0), (11.0, 1e-4)):
        fs = np.exp(1j * omega_f * ts)
        exact = phase_integral(omega_f - omega, T)
        assert filon_moment(ts, fs, omega) == pytest.approx(exact, rel=1e-8, abs=1e-12)


def test_filon_polynomial_times_phase():
    # quadratics are integrated exactly up to roundoff, any frequency
    T = 1.0
    ts = np.linspace(0, T, 201)
    fs = 1.5 + 2.0 * ts - 3.0 * ts**2
    for omega in (0.0, 2.0, 57.0):
        exact = gauss_integral(lambda t: (1.5 + 2 * t - 3 * t**2) * np.exp(-1j * omega * t),
                               0, T, panels=max(32, int(omega)), order=12)
        assert filon_moment(ts, fs, omega) == pytest.approx(exact, rel=1e-12, abs=1e-14)


def test_filon_requires_odd_uniform_grid():
    with pytest.raises(ValueError, match="odd"):
        filon_moment(np.linspace(0, 1, 10), np.zeros(10), 1.0)
    bad = np.concatenate([np.linspace(0, 0.5, 5), np.linspace(0.6, 1.0, 4)])
    with pytest.raises(ValueError, match="uniform"):
        filon_moment(bad, np.zeros(9), 1.0)


# ---- controlled evolution --------------------------------------------------

def test_zero_control_bitwise_matches_free(sd_const_128, rng):
    state = modal_state(sd_const_128, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    free = evolve_free(state, 0.37)
    controlled = evolve_controlled(state, sd_const_128, 1.0,
                                   ExponentialSum([], []), 0.37)
    assert np.array_equal(free.coefficients, controlled.coefficients)


def test_single_mode_resonant_control_closed_form(sd_const_128):
    sd = sd_const_128
    lam1, t1 = sd.eigenvalues[0], sd.traces[0]
    sigma_l = 1.0
    T = 0.4
    a0 = 0.7 - 0.2j
    state = modal_state(sd, [a0])
    f = ExponentialSum([lam1], [1.0])
    out = evolve_controlled(state, sd, sigma_l, f, T)
    expected = np.exp(1j * lam1 * T) * (a0 + 1j * sigma_l * t1 * T)
    assert out.coefficients[0] == pytest.approx(expected, rel=1e-13)
    oracle = rk_controlled([a0], [lam1], [t1], sigma_l, f, T)
    assert out.coefficients[0] == pytest.approx(oracle[0], rel=1e-9)


def test_controlled_solve_matches_rk_oracle(sd_const_128, rng):
    lambdas = np.array([1.3, 4.7, 9.2, 33.0])
    traces = np.array([0.8, 1.7, 2.2, 3.9])
    sd = synthetic_basis(sd_const_128, lambdas, traces)
    sigma_l = 1.4
    T = 0.9
    for _ in range(5):
        a0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        wf = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f = ExponentialSum(np.array([0.9, 5.5, 17.0]), wf)
        state = modal_state(sd, a0)
        out = evolve_controlled(state, sd, sigma_l, f, T)
        oracle = rk_controlled(a0, lambdas, traces, sigma_l, f, T)
        assert out.coefficients == pytest.approx(oracle, rel=1e-8)


def test_controlled_solve_linear_in_control(sd_const_128, rng):
    sd = sd_const_128
    a0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    state = modal_state(sd, a0)
    lam = sd.eigenvalues[:3]
    f1 = ExponentialSum(lam, [1.0, 0.5j, 0.0])
    f2 = ExponentialSum(lam, [0.0, -0.2, 1.1j])
    fsum = ExponentialSum(lam, f1.weights + f2.weights)
    T = 0.3
    r_sum = evolve_controlled(state, sd, 1.0, fsum, T).coefficients
    r1 = evolve_controlled(state, sd, 1.0, f1, T).coefficients
    r2 = evolve_controlled(state, sd, 1.0, f2, T).coefficients
    free = evolve_free(state, T).coefficients
    assert r_sum == pytest.approx(r1 + r2 - free, rel=1e-12)


def test_tabulated_control_matches_closed_form(sd_const_128):
    lambdas = np.array([2.0, 11.0, 29.0])
    traces = np.array([1.0, 1.5, 2.5])
    sd = synthetic_basis(sd_const_128, lambdas, traces)
    f = ExponentialSum(np.array([3.0, 8.0]), np.array([1.0, -0.5j]))
    T = 1.2
    state = modal_state(sd, np.array([1.0, -1.0j, 0.3]))
    exact = evolve_controlled(state, sd, 2.0, f, T)
    ts = np.linspace(0, T, 3001)
    tab = evolve_controlled(state, sd, 2.0, (ts, f(ts)), T)
    assert tab.coefficients == pytest.approx(exact.coefficients, rel=1e-8)


def test_tabulated_control_high_frequency_modes(sd_const_128):
    # modes at 1e5..1e6 sampled near the 20-per-period minimum: every panel
    # advances the phase by ~0.6 rad, over ~8e4 panels per mode
    lambdas = np.array([1.1e5, 4.3e5, 9.7e5])
    sd = synthetic_basis(sd_const_128, lambdas, np.array([1.0, -2.0, 3.5]))
    f = ExponentialSum(np.array([0.0, 40.0, 350.0]), np.array([1.0, -0.5j, 0.25]))
    T = 0.05
    state = modal_state(sd, np.zeros(3))  # the final state is the moment term alone
    exact = evolve_controlled(state, sd, 1.3, f, T)
    ts = np.linspace(0, T, 160001)
    tab = evolve_controlled(state, sd, 1.3, (ts, f(ts)), T)
    assert tab.coefficients == pytest.approx(exact.coefficients, rel=1e-8)


def test_tabulated_control_coarse_grid_refused(sd_const_512):
    sd = sd_const_512
    state = modal_state(sd, np.ones(12))
    T = 0.5
    ts = np.linspace(0, T, 101)
    with pytest.raises(CoarseSamplingError, match="at least") as err:
        evolve_controlled(state, sd, 1.0, (ts, np.ones_like(ts)), T)
    required = int(str(err.value).rsplit("at least", 1)[1].strip())
    lam_max = sd.eigenvalues[11]
    assert required >= 20 * lam_max * T / (2 * np.pi)


def test_transposition_style_bound_sampled(sd_const_128, rng):
    # sup_t ||y(t)||_{-1/2} / (||y0||_{-1/2} + ||f||) stays under the
    # Cauchy-Schwarz constant max(1, sigma sqrt(T) sqrt(sum t_n^2/lambda_n))
    sd = sd_const_128
    N = 8
    lam = sd.eigenvalues[:N]
    tr = sd.traces[:N]
    sigma_l = 1.0
    T = 0.6
    bound = max(1.0, sigma_l * np.sqrt(T) * np.sqrt(np.sum(tr**2 / lam)))
    worst = 0.0
    for _ in range(25):
        a0 = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        w = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        f = ExponentialSum(lam, w)
        state = modal_state(sd, a0)
        denom = sobolev_norm(state, -0.5) + f.norm(T)
        for t in np.linspace(T / 8, T, 8):
            out = evolve_controlled(state, sd, sigma_l, f, t)
            worst = max(worst, sobolev_norm(out, -0.5) / denom)
    assert worst <= bound
