import dataclasses
import re
import sys
import threading
import warnings

import numpy as np
import pytest

import bischro.dynamics
from bischro import (
    CoarseSamplingError,
    ExponentialSum,
    ResamplingError,
    assemble,
    evolve_controlled,
    evolve_free,
    modal_state,
    moments_for_null,
    observability_constants,
    phase_integral,
    project_initial,
    sobolev_norm,
    solve_spectrum,
    synthesize_moment_control,
)
from bischro.dynamics import SAMPLES_PER_PERIOD, _filon_moments, _gram, _uniform_grid, gram

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


def test_project_complex_data_splits_into_real_parts(sd_const_128):
    # complex samples and a complex callable without derivative go through
    # complex splines; the projection must be complex-linear (relative to
    # the coefficient norm: the small trailing coefficients carry the
    # roundoff of the leading ones)
    sd = sd_const_128
    xs = np.linspace(0, 1, 4 * sd.op.n_elements + 1)

    def fr(x):
        return np.sin(np.pi * x) ** 2 * x

    def fi(x):
        return x**2 * (1 - x) ** 3

    def check(project):
        re = project(fr).coefficients
        im = project(fi).coefficients
        both = project(lambda x: fr(x) + 1j * fi(x)).coefficients
        assert np.linalg.norm(both - (re + 1j * im)) <= 1e-14 * np.linalg.norm(both)

    check(lambda f: project_initial(sd, (xs, f(xs))))
    check(lambda f: project_initial(sd, f))


def test_project_refuses_nonfinite_data(sd_const_128):
    # unchecked, a NaN datum gives NaN coefficients and a projection residual of 0.0;
    # a NaN sample reached SciPy's "`y` (or `x`) must contain only finite values"
    sd = sd_const_128
    dofs = sd.modes[:, 0].copy()
    dofs[7] = np.nan
    xs = np.linspace(0, 1, 4 * sd.op.n_elements + 1)
    bad = xs.copy()
    bad[7] = np.nan
    cases = (lambda: project_initial(sd, lambda x: np.where(x > 0.5, np.nan, x),
                                     lambda x: np.ones_like(x)),
             lambda: project_initial(sd, dofs),
             lambda: project_initial(sd, (xs, bad)),
             lambda: project_initial(sd, (bad, xs)))
    for project in cases:
        with pytest.raises(ValueError, match="^initial data must be finite$"):
            project()


@pytest.mark.parametrize("y0, error, message", [
    ((np.array([]), np.array([])), ResamplingError,
     "samples must be two equal-length 1-d numeric arrays of at least two points"),
    ((np.zeros(1), np.zeros(1)), ResamplingError,
     "samples must be two equal-length 1-d numeric arrays of at least two points"),
    (3.0, ValueError, "y0 must be a callable on [0, ell], an (xs, values) tuple of samples "
                      "or a 1-d numeric dof vector, got float64 of shape ()"),
    (np.zeros((2, 254)), ValueError, "y0 must be a callable on [0, ell], an (xs, values) tuple "
                                     "of samples or a 1-d numeric dof vector, got float64 of "
                                     "shape (2, 254)"),
])
def test_project_refuses_malformed_data(sd_const_128, y0, error, message):
    # an IndexError, "samples must cover the whole interval", an IndexError
    # and an f2py error from dsbmv
    assert sd_const_128.op.n_dof == 254
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        project_initial(sd_const_128, y0)


def test_project_refuses_derivative_without_callable_data(sd_const_128):
    # unchecked, the derivative was silently ignored for these forms of data
    sd = sd_const_128
    xs = np.linspace(0, 1, 4 * sd.op.n_elements + 1)
    for y0 in (sd.modes[:, 0], (xs, np.sin(np.pi * xs))):
        with pytest.raises(ValueError, match="^derivative is accepted only with a callable y0$"):
            project_initial(sd, y0, lambda x: np.pi * np.cos(np.pi * x))


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

    state = modal_state(sd_const_128, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    a = evolve_free(evolve_free(state, 0.2), 0.5)
    b = evolve_free(state, 0.7)
    scale = sd_const_128.eigenvalues[5] * 0.7 * np.finfo(float).eps
    assert a.coefficients == pytest.approx(b.coefficients, rel=10 * scale)


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
def test_evolve_free_refuses_nonfinite_time(sd_const_128, t):
    # unchecked, the coefficients came back NaN, for a NaN time with no warning
    state = modal_state(sd_const_128, [1.0, 0.5j])
    with pytest.raises(ValueError, match="^time must be a finite number"):
        evolve_free(state, t)
    back = evolve_free(evolve_free(state, -0.3), 0.3)   # finite negative times stay allowed
    assert back.coefficients == pytest.approx(state.coefficients, rel=1e-14)


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


@pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan])
def test_sobolev_norm_refuses_nonfinite_theta(sd_const_128, theta):
    # unchecked, inf gave inf, -inf gave 0.0 and NaN gave NaN, with no warning
    state = modal_state(sd_const_128, [1.0, 0.5j])
    with pytest.raises(ValueError, match="^theta must be a finite number"):
        sobolev_norm(state, theta)


def test_modal_state_rejects_untrusted_length(sd_const_128):
    with pytest.raises(ValueError, match="trusted"):
        modal_state(sd_const_128, np.ones(sd_const_128.trusted_count + 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_modal_state_refuses_nonfinite_coefficients(sd_const_128, bad):
    # unchecked, the state evolves and measures as NaN with no error
    with pytest.raises(ValueError, match="^coefficients must be finite$"):
        modal_state(sd_const_128, [bad, 1.0])


@pytest.mark.parametrize("bad", [[[1.0, 2.0]], 5.0])
def test_modal_state_refuses_non_vector_coefficients(sd_const_128, bad):
    # unchecked, [[1, 2]] made a one-frequency state whose evolution, norm and
    # null moments came back with the wrong shapes, and a scalar failed on len()
    with pytest.raises(ValueError, match="^coefficients must be a 1-d sequence$"):
        modal_state(sd_const_128, bad)


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


@pytest.mark.parametrize("horizon", [np.inf, -np.inf, np.nan])
def test_phase_integral_refuses_nonfinite_horizon(horizon):
    # unchecked, NaN came back silently and inf with RuntimeWarnings
    with pytest.raises(ValueError, match="^horizon must be a finite number"):
        phase_integral([0.0, 1.0], horizon)


def test_phase_integral_allows_negative_horizon():
    # integral_0^-T exp(i omega t) dt = -integral_0^T exp(-i omega u) du
    for omega in (0.0, 1e-3, 2.5, 431.0):
        expected = -phase_integral(omega, 0.6).conjugate()
        assert phase_integral(omega, -0.6) == pytest.approx(expected, rel=1e-14)


def filon(ts, fs, omegas):
    return _filon_moments(*_uniform_grid(ts, fs), np.asarray(omegas, dtype=float))


def test_filon_matches_closed_form_for_exponential():
    T = 2.0
    ts = np.linspace(0, T, 4001)
    for omega_f, omega in ((3.0, 40.0), (0.0, 0.0), (11.0, 1e-4)):
        fs = np.exp(1j * omega_f * ts)
        exact = phase_integral(omega_f - omega, T)
        assert filon(ts, fs, [omega])[0] == pytest.approx(exact, rel=1e-8, abs=1e-12)


def quadratic_moment(omega, T):
    return gauss_integral(lambda t: (1.5 + 2 * t - 3 * t**2) * np.exp(-1j * omega * t),
                          0, T, panels=max(32, int(omega)), order=12)


def test_filon_polynomial_times_phase():
    # quadratics are integrated exactly up to roundoff, every mode in one
    # call; omega = 57 puts 0.57 rad on each panel, near the sampling gate
    T = 1.0
    ts = np.linspace(0, T, 201)
    fs = 1.5 + 2.0 * ts - 3.0 * ts**2
    omegas = (0.0, 2.0, 57.0)
    for omega, moment in zip(omegas, filon(ts, fs, omegas)):
        exact = quadratic_moment(omega, T)
        assert moment == pytest.approx(exact, rel=1e-12, abs=1e-14)


def test_filon_series_exact_at_sampling_gate():
    # SAMPLES_PER_PERIOD samples per period is the coarsest grid a forward
    # solve accepts: 4 pi / SAMPLES_PER_PERIOD rad per panel, the edge of
    # the panel-weight series
    T = 1.0
    ts = np.linspace(0, T, 201)
    omega = 4.0 * np.pi / SAMPLES_PER_PERIOD / (2.0 * (ts[1] - ts[0]))
    fs = 1.5 + 2.0 * ts - 3.0 * ts**2
    exact = quadratic_moment(omega, T)
    assert filon(ts, fs, [omega])[0] == pytest.approx(exact, rel=1e-12)


def test_filon_requires_odd_uniform_grid():
    with pytest.raises(ValueError, match="odd"):
        _uniform_grid(np.linspace(0, 1, 10), np.zeros(10))
    bad = np.concatenate([np.linspace(0, 0.5, 5), np.linspace(0.6, 1.0, 4)])
    with pytest.raises(ValueError, match="uniform"):
        _uniform_grid(bad, np.zeros(9))


def _grid_accepted(ts):
    try:
        _uniform_grid(ts, np.zeros(len(ts)))
    except ValueError as exc:
        assert "uniform" in str(exc)
        return False
    return True


def _allclose_accepts(ts):
    # the grid test as np.allclose states it; it warns of a non-finite atol
    dt = ts[1] - ts[0]
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return bool(np.allclose(np.diff(ts), dt, rtol=1e-9, atol=1e-12 * abs(dt)))


def test_uniform_grid_decisions_match_allclose(rng):
    # steps jittered around the tolerance 1e-12 |dt| + 1e-9 |dt|: inside,
    # at and just past it, in one step or in the first (which sets dt)
    decisions = []
    for dt in (1e-3, 0.37, 250.0):
        tol = 1e-12 * dt + 1e-9 * dt
        for scale in (0.5, 0.999, 1.0, 1.001, 1.01, 2.0):
            for at in (0, 1, 5):
                for sign in (1.0, -1.0):
                    for start in (0.0, rng.uniform(-1.0, 1.0)):
                        steps = np.full(10, dt)
                        steps[at] += sign * scale * tol
                        ts = start + np.concatenate([[0.0], np.cumsum(steps)])
                        accepted = _grid_accepted(ts)
                        assert accepted == _allclose_accepts(ts), (dt, scale, at, sign)
                        decisions.append(accepted)
    assert any(decisions) and not all(decisions)
    base = np.linspace(0.0, 1.0, 11)
    for k in (0, 1, 5, 10):
        for bad in (np.nan, np.inf, -np.inf):
            ts = base.copy()
            ts[k] = bad
            assert not _grid_accepted(ts) and not _allclose_accepts(ts), (k, bad)
    # every step infinite: np.allclose calls inf close to inf, the check refuses
    ts = np.array([-np.inf, 0.0, np.inf])
    assert _allclose_accepts(ts) and not _grid_accepted(ts)


# ---- controlled evolution --------------------------------------------------

@pytest.mark.parametrize("frequencies, weights", [(3.0, 2.0), ([[1.0, 2.0]], [[1.0, 0.5j]])])
def test_exponential_sum_refuses_non_vector_data(frequencies, weights):
    # such a sum used to construct, then fail inside its call or its norm
    with pytest.raises(ValueError, match="1-d arrays"):
        ExponentialSum(frequencies, weights)


@pytest.mark.parametrize("frequencies, weights", [
    ([1.0, np.nan], [1.0, 1.0]), ([1.0, np.inf], [1.0, 1.0]),
    ([1.0, 2.0], [1.0, np.nan]), ([1.0, 2.0], [complex(np.inf, 0.0), 1.0]),
])
def test_exponential_sum_refuses_nonfinite_data(frequencies, weights):
    # unchecked, the sum evaluates to NaN and its norm warns at most
    with pytest.raises(ValueError, match="^frequencies and weights must be finite$"):
        ExponentialSum(frequencies, weights)


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


def test_controlled_solve_matches_rk_oracle(sd_var_512, rng):
    lambdas = np.array([1.3, 4.7, 9.2, 33.0])
    traces = np.array([0.8, 1.7, 2.2, 3.9])
    sd = synthetic_basis(sd_var_512, lambdas, traces)
    sigma_l = sd.sigma_at_right_end()
    assert sigma_l == 1.5
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


def test_tabulated_control_matches_closed_form(sd_var_512):
    lambdas = np.array([2.0, 11.0, 29.0])
    traces = np.array([1.0, 1.5, 2.5])
    sd = synthetic_basis(sd_var_512, lambdas, traces)  # sigma(ell) = 1.5
    f = ExponentialSum(np.array([3.0, 8.0]), np.array([1.0, -0.5j]))
    T = 1.2
    state = modal_state(sd, np.array([1.0, -1.0j, 0.3]))
    exact = evolve_controlled(state, sd, sd.sigma_at_right_end(), f, T)
    ts = np.linspace(0, T, 3001)
    tab = evolve_controlled(state, sd, sd.sigma_at_right_end(), (ts, f(ts)), T)
    assert tab.coefficients == pytest.approx(exact.coefficients, rel=1e-8)


def test_tabulated_control_high_frequency_modes(sd_const_128):
    # modes at 1e5..1e6 sampled near the 20-per-period minimum: every panel
    # advances the phase by ~0.6 rad, over ~8e4 panels per mode
    lambdas = np.array([1.1e5, 4.3e5, 9.7e5])
    sd = synthetic_basis(sd_const_128, lambdas, np.array([1.0, -2.0, 3.5]))
    f = ExponentialSum(np.array([0.0, 40.0, 350.0]), np.array([1.0, -0.5j, 0.25]))
    T = 0.05
    state = modal_state(sd, np.zeros(3))  # the final state is the moment term alone
    exact = evolve_controlled(state, sd, sd.sigma_at_right_end(), f, T)
    ts = np.linspace(0, T, 160001)
    tab = evolve_controlled(state, sd, sd.sigma_at_right_end(), (ts, f(ts)), T)
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


def test_tabulated_control_shape_checked_before_coverage(sd_const_128):
    sd = sd_const_128
    state = modal_state(sd, np.ones(2))
    T = 0.5
    cases = (
        (np.array([]), np.array([]), "Filon-Simpson needs an odd number of samples >= 3"),
        (np.array(0.0), np.array(1.0), "ts and fs must be equal-length 1-d arrays"),
        (np.array([0.0, 0.25]), np.ones(3), "ts and fs must be equal-length 1-d arrays"),
    )
    for ts, fs, message in cases:
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            evolve_controlled(state, sd, 1.0, (ts, fs), T)


@pytest.mark.parametrize("f", [(np.linspace(0.0, 0.5, 2001),), [1, 2, 3], None])
def test_controlled_solve_refuses_other_forms_of_control(sd_const_128, f):
    # a tuple of one and a list of three reached _uniform_grid's signature as TypeErrors
    state = modal_state(sd_const_128, [1.0, 0.5])
    with pytest.raises(TypeError, match=r"^f must be an ExponentialSum or a \(ts, fs\) tabulation"):
        evolve_controlled(state, sd_const_128, sd_const_128.sigma_at_right_end(), f, 0.5)


def test_tabulated_control_refuses_nonfinite_samples(const_profile):
    # unchecked, one NaN sample turns every coefficient into NaN without a warning
    sd = solve_spectrum(assemble(const_profile, 64), 2)
    state = modal_state(sd, np.ones(2))
    T = 0.1
    ts = np.linspace(0, T, 2001)
    fs = np.ones_like(ts)
    fs[1000] = np.nan
    with pytest.raises(ValueError, match="^tabulation must be finite$"):
        evolve_controlled(state, sd, sd.sigma_at_right_end(), (ts, fs), T)


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


# ---- the forward-check phase table -----------------------------------------

def _direct_forward(state, f, T):
    # evolve_controlled's closed form with a full phase table formed afresh
    sd = state.basis
    lam = state.frequencies
    phases = phase_integral(-np.subtract.outer(lam, f.frequencies), T)
    moments = np.sum(phases * f.weights, axis=1)
    return np.exp(1j * lam * T) * (state.coefficients
                                   + 1j * sd.sigma_at_right_end() * sd.traces[: len(lam)] * moments)


def test_forward_table_general_branch_unchanged(sd_const_128, rng, cold_gram_cache):
    # the cached Gram serves only a waveform on the state's own frequencies;
    # unsorted, repeated and foreign ones get a table formed afresh
    sd = sd_const_128
    N, T = 6, 0.3
    lam = sd.eigenvalues[:N]
    state = modal_state(sd, rng.standard_normal(N) + 1j * rng.standard_normal(N))
    nudged = lam.copy()
    nudged[2] = np.nextafter(nudged[2], np.inf)
    waveforms = (
        lam,
        lam[::-1],
        np.array([37.5, 2.0, 911.25, -4.0, 2.0, 0.0, 150.3, 1e-3]),
        sd.eigenvalues[: N + 1],
        nudged,
    )
    for freqs in waveforms:
        f = ExponentialSum(freqs, rng.standard_normal(len(freqs)) + 1j)
        cold_gram_cache()
        out = evolve_controlled(state, sd, sd.sigma_at_right_end(), f, T)
        assert out.coefficients.tobytes() == _direct_forward(state, f, T).tobytes()


def test_forward_table_read_only_and_rebuilt_one_ulp_away(sd_const_128, cold_gram_cache):
    # on the state's own frequencies the forward table is the cached Gram
    sd = sd_const_128
    N, T = 8, 0.37
    lam = sd.eigenvalues[:N]
    key = lam.tobytes()
    state = modal_state(sd, np.ones(N))
    f = ExponentialSum(lam, np.ones(N))
    sigma_l = sd.sigma_at_right_end()
    cold_gram_cache()
    evolve_controlled(state, sd, sigma_l, f, T)
    built = _gram.cache_info().misses
    evolve_controlled(state, sd, sigma_l, f, T)
    table = gram(lam, T).matrix
    assert _gram.cache_info().misses == built
    assert not table.flags.writeable
    T_up = np.nextafter(T, 1.0)
    out = evolve_controlled(state, sd, sigma_l, f, T_up)
    assert _gram.cache_info().misses == built + 1
    assert _gram(key, T_up).matrix is not table
    assert out.coefficients.tobytes() == _direct_forward(state, f, T_up).tobytes()


def test_forward_table_consistent_under_concurrent_callers(sd_const_128, cold_gram_cache):
    # threads alternating between two horizons keep replacing the entry;
    # every forward solve must still read the table of its own horizon
    sd = sd_const_128
    N = 8
    lam = sd.eigenvalues[:N]
    state = modal_state(sd, np.ones(N))
    f = ExponentialSum(lam, np.linspace(1.0, 2.0, N) + 0.5j)
    sigma_l = sd.sigma_at_right_end()
    expected = {}
    for T in (0.3, 0.7):
        cold_gram_cache()
        expected[T] = evolve_controlled(state, sd, sigma_l, f, T).coefficients
    errors = []

    def work(first):
        try:
            for k in range(300):
                T = (0.3, 0.7)[(first + k) % 2]
                out = evolve_controlled(state, sd, sigma_l, f, T)
                if not np.array_equal(out.coefficients, expected[T]):
                    errors.append(T)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []


# ---- the number rule on every scalar ---------------------------------------

_SCALAR_CALLS = {
    "gram": lambda sd, st, v: gram(sd.eigenvalues[:4], v),
    "ExponentialSum.norm": lambda sd, st, v: ExponentialSum([1.0, 2.0], [1.0, 1.0]).norm(v),
    "synthesize_moment_control": lambda sd, st, v: synthesize_moment_control(
        moments_for_null(st, sd, sd.sigma_at_right_end()), sd, v),
    "observability_constants": lambda sd, st, v: observability_constants(sd, v, 2),
    "evolve_controlled": lambda sd, st, v: evolve_controlled(
        st, sd, sd.sigma_at_right_end(), ExponentialSum(st.frequencies, [1.0, 1.0]), v),
    "phase_integral": lambda sd, st, v: phase_integral(1.0, v),
    "evolve_free": lambda sd, st, v: evolve_free(st, v),
    "sobolev_norm": lambda sd, st, v: sobolev_norm(st, v),
    "moments_for_null": lambda sd, st, v: moments_for_null(st, sd, v),
}


@pytest.mark.parametrize("value", [True, "0.5", None])
@pytest.mark.parametrize("call", _SCALAR_CALLS)
def test_scalar_that_is_no_number_refused_before_any_gram(sd_const_128, monkeypatch, call, value):
    # True was read as 1 by every one of these and "0.5" as 0.5 by the six
    # horizons; None, and "0.5" as a time or theta, were bare TypeErrors
    sd = sd_const_128
    assert sd.sigma_at_right_end() == 1.0   # so True passed the sigma(ell) check
    state = modal_state(sd, [1.0, 0.5])
    formed = []
    monkeypatch.setattr(bischro.dynamics, "_gram", lambda *args: formed.append(args))
    with pytest.raises(ValueError, match=f"{value!r}"):
        _SCALAR_CALLS[call](sd, state, value)
    assert formed == []
