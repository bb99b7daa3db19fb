import pickle

import numpy as np
import pytest

from bischro import ProfileError, build_profile, constant_profile, geometry
from bischro.coefficients import _quarter_power

from .oracles import gauss_integral


def test_constant_profile_evaluations():
    p = constant_profile(rho=1.0, sigma=1.0, q=0.0, length=1.0)
    xs = np.linspace(0, 1, 17)
    assert np.all(p.rho(xs) == 1.0)
    assert np.all(p.sigma(xs) == 1.0)
    assert np.all(p.q(xs) == 0.0)


def test_polynomial_profile_evaluation():
    p = build_profile({"length": 1.0, "rho": {"poly": [1, 4, 6, 4, 1]},  # (1+x)^4
                       "sigma": 1.0, "q": 0.0})
    assert p.rho(1.0) == pytest.approx(16.0, rel=1e-15)
    assert p.rho(0.0) == pytest.approx(1.0, rel=1e-15)


def test_dipping_samples_rejected_with_location():
    xs = np.linspace(0, 1, 21)
    vals = 1.0 - 1.1 * np.exp(-200 * (xs - 0.5) ** 2)  # dips to -0.1 at x=0.5
    with pytest.raises(ProfileError, match="rho") as err:
        build_profile({"length": 1.0, "rho": {"samples": list(zip(xs, vals))},
                       "sigma": 1.0, "q": 0.0})
    x_named = float(str(err.value).split("x = ")[1])
    assert abs(x_named - 0.5) < 0.05


def test_negative_length_rejected():
    with pytest.raises(ProfileError, match="length"):
        build_profile({"length": -1.0, "rho": 1.0, "sigma": 1.0, "q": 0.0})


@pytest.mark.parametrize("spec, message", [
    ([("length", 1.0)], "profile spec must be a dict"),
    ({"length": 1.0, "rho": 1.0, "sigma": 1.0, "q": 0.0, "kappa": 1.0},
     "unknown profile keys ['kappa']"),
    ({"length": 1.0, "rho": 1.0}, "profile spec missing keys ['q', 'sigma']"),
    ({"length": 0.0, "rho": 1.0, "sigma": 1.0, "q": 0.0},
     "interval length must be positive, got 0"),
    ({"length": -1.0, "rho": 1.0, "sigma": 1.0, "q": 0.0},
     "interval length must be positive, got -1"),
])
def test_malformed_profile_spec_rejected(spec, message):
    with pytest.raises(ProfileError) as err:
        build_profile(spec)
    assert str(err.value) == message


def test_negative_q_rejected():
    with pytest.raises(ProfileError, match="q"):
        build_profile({"length": 1.0, "rho": 1.0, "sigma": 1.0, "q": {"poly": [0.0, -0.5]}})


@pytest.mark.parametrize("spec, message", [
    ("1.0", "expected number or dict, got str"),
    ({"poly": [1.0], "knots": [0.0]}, "unknown coefficient keys ['knots']"),
    ({}, "coefficient needs exactly one of poly= or samples="),
    ({"poly": [1.0], "samples": [(0.0, 1.0), (1.0, 1.0)]},
     "coefficient needs exactly one of poly= or samples="),
    ({"poly": []}, "poly must be a nonempty 1-d coefficient list"),
    ({"poly": [[1.0, 2.0]]}, "poly must be a nonempty 1-d coefficient list"),
    ({"samples": [(0.0, 1.0)]}, "samples must be a list of at least two (x, value) pairs"),
    ({"samples": [(0.0, 1.0), (0.0, 2.0), (1.0, 1.0)]},
     "sample abscissae must be strictly increasing"),
    ({"samples": [(0.0, 1.0), (0.5, 1.0)]}, "samples cover [0, 0.5] but must cover [0, 1]"),
    ({"samples": [(0.1, 1.0), (1.0, 1.0)]}, "samples cover [0.1, 1] but must cover [0, 1]"),
    # each was a bare NumPy ValueError
    ({"poly": "abc"}, "poly must be a nonempty 1-d coefficient list"),
    ({"samples": [(0.0, 1.0), (1.0,)]}, "samples must be a list of at least two (x, value) pairs"),
    ({"samples": [(0.0, 1.0), (0.5, 1.0, 2.0), (1.0, 1.0)]},
     "samples must be a list of at least two (x, value) pairs"),
])
def test_malformed_coefficient_spec_rejected(spec, message):
    with pytest.raises(ProfileError) as err:
        build_profile({"length": 1.0, "rho": spec, "sigma": 1.0, "q": 0.0})
    assert str(err.value) == f"rho: {message}"


@pytest.mark.parametrize("key, value, message", [
    ("rho", {"poly": [float("nan")]}, "rho must be finite"),
    ("sigma", float("inf"), "sigma must be finite"),
    ("length", float("inf"), "length must be finite"),
    ("q", {"samples": [(0.0, 0.0), (0.5, float("inf")), (1.0, 0.0)]}, "q must be finite"),
])
def test_nonfinite_profile_input_rejected(key, value, message):
    spec = {"length": 1.0, "rho": 1.0, "sigma": 1.0, "q": 0.0, key: value}
    with pytest.raises(ProfileError) as err:
        build_profile(spec)
    assert str(err.value) == message


@pytest.mark.parametrize("key, value, message", [
    ("length", True, "length must be a number, got bool"),
    ("length", np.True_, "length must be a number, got bool"),
    ("rho", True, "rho: expected number or dict, got bool"),
    ("q", False, "q: expected number or dict, got bool"),
    ("sigma", {"poly": [1.0, True]}, "sigma: poly entries must be numbers, got a bool"),
    ("sigma", {"poly": np.array([True])}, "sigma: poly entries must be numbers, got a bool"),
    ("rho", {"samples": [(0.0, 1.0), (1.0, True)]},
     "rho: samples entries must be numbers, got a bool"),
    # nor is a string, None or a complex: the strings were read as numbers,
    # the rest raised bare TypeErrors, and a None entry read "rho must be finite"
    ("length", "1.0", "length must be a number, got str"),
    ("length", None, "length must be a number, got NoneType"),
    ("length", 1 + 0j, "length must be a number, got complex"),
    ("rho", {"poly": ["2.0"]}, "rho: poly entries must be numbers, got a str"),
    ("rho", {"samples": [("0", "1"), ("1", "1")]},
     "rho: samples entries must be numbers, got a str"),
    ("rho", {"poly": [1 + 1j]}, "rho: poly entries must be numbers, got a complex"),
    ("rho", {"poly": [None]}, "rho: poly entries must be numbers, got a NoneType"),
])
def test_bool_is_not_a_number(key, value, message):
    # each bool was read as 1.0 or 0.0: {"length": True, "rho": True, "sigma": 1.0,
    # "q": False} built the unit profile
    spec = {"length": 1.0, "rho": 1.0, "sigma": 1.0, "q": 0.0, key: value}
    with pytest.raises(ProfileError) as err:
        build_profile(spec)
    assert str(err.value) == message


@pytest.mark.parametrize("numpy_value, value", [(np.float32(1.5), 1.5), (np.int64(2), 2.0)])
def test_numpy_scalar_builds_the_python_float_profile(numpy_value, value):
    # a NumPy scalar coefficient was refused with "expected number or dict,
    # got float32" while a NumPy poly array passed
    def spec(v):
        return {"length": v, "rho": v, "sigma": {"poly": [v, 0.5]},
                "q": {"samples": [(0.0, v), (v, 0.0)]}}

    a, b = build_profile(spec(numpy_value)), build_profile(spec(value))
    assert a.length == b.length == value
    xs = np.linspace(0.0, value, 65)
    for name in ("rho", "sigma", "q"):
        assert np.array_equal(getattr(a, name)(xs), getattr(b, name)(xs))


def test_samples_may_be_a_k_by_2_array():
    pts = np.array([(0.0, 1.0), (0.5, 2.0), (1.0, 1.0)])
    a = build_profile({"length": 1.0, "rho": {"samples": pts}, "sigma": 1.0, "q": 0.0})
    b = build_profile({"length": 1.0, "rho": {"samples": [tuple(p) for p in pts]},
                       "sigma": 1.0, "q": 0.0})
    xs = np.linspace(0.0, 1.0, 33)
    assert np.array_equal(a.rho(xs), b.rho(xs))


def test_first_malformed_coefficient_is_reported_in_rho_sigma_q_order():
    with pytest.raises(ProfileError, match="^rho: samples cover"):
        build_profile({"length": 1.0, "rho": {"samples": [(0.0, 1.0), (0.5, 1.0)]},
                       "sigma": {"poly": []}, "q": 0.0})


def test_profile_pickles_and_evaluates_identically():
    p = build_profile({"length": 1.0, "rho": {"poly": [1.0, 0.5]}, "q": 0.1,
                       "sigma": {"samples": [(0.0, 1.0), (0.4, 1.3), (1.0, 1.1)]}})
    back = pickle.loads(pickle.dumps(p))
    xs = np.linspace(0, 1, 33)
    for name in ("rho", "sigma", "q"):
        assert np.array_equal(getattr(back, name)(xs), getattr(p, name)(xs))


def test_geometry_constant_coefficients():
    geo = geometry(constant_profile())
    assert geo.optical_length == pytest.approx(1.0, abs=1e-14)
    assert geo.amplitude(0.3) == pytest.approx(1.0, abs=1e-14)
    xs = np.linspace(0, 1, 9)
    assert geo.phase(xs) == pytest.approx(xs, abs=1e-14)


def test_geometry_scaled_constants():
    geo = geometry(constant_profile(rho=16.0, length=2.0))
    assert geo.optical_length == pytest.approx(4.0, rel=1e-14)
    assert geo.amplitude(1.0) == pytest.approx(16.0 ** -0.375, rel=1e-14)  # ~0.3535534


def test_geometry_quartic_density_analytic():
    # rho = (1+x)^4: integrand (rho/sigma)^(1/4) = 1 + x, integral = 1.5
    p = build_profile({"length": 1.0, "rho": {"poly": [1, 4, 6, 4, 1]},
                       "sigma": 1.0, "q": 0.0})
    geo = geometry(p)
    assert geo.optical_length == pytest.approx(1.5, rel=1e-13)
    assert geo.optical_length == pytest.approx(fine_optical_length(p), rel=1e-15)


def test_phase_hits_optical_length_at_right_end(var_profile):
    geo = geometry(var_profile)
    assert abs(geo.phase(1.0) - geo.optical_length) <= 1e-13


def test_phase_strictly_increasing(var_profile):
    geo = geometry(var_profile)
    xs = np.linspace(0, 1, 257)
    ph = geo.phase(xs)
    assert np.all(np.diff(ph) > 0)
    assert np.all(geo.amplitude(xs) > 0)


@pytest.mark.parametrize("c", [2.0, 3.0])
def test_quartic_scaling_of_optical_length(c, var_profile):
    geo = geometry(var_profile)
    scaled = build_profile({
        "length": 1.0,
        # (c^4) * (1 + x)
        "rho": {"poly": [c**4, c**4]},
        "sigma": {"poly": [1.0, 0.5]},
        "q": {"poly": [0.0, 1.0, -1.0]},
    })
    geo_c = geometry(scaled)
    assert geo_c.optical_length == pytest.approx(c * geo.optical_length, rel=1e-13)


def test_geometry_deterministic(var_profile):
    a = geometry(var_profile)
    b = geometry(var_profile)
    assert a.optical_length == b.optical_length
    xs = np.linspace(0, 1, 33)
    assert np.array_equal(a.phase(xs), b.phase(xs))


def fine_optical_length(profile):
    """Reference quarter-power integral: 4096 panels of order 16."""
    return gauss_integral(lambda x: _quarter_power(profile, x), 0.0, profile.length,
                          panels=4096, order=16)


def test_optical_length_matches_fine_reference(var_profile):
    geo = geometry(var_profile)
    assert geo.optical_length == pytest.approx(fine_optical_length(var_profile), rel=1e-15)


def test_sampled_profile_runs_whole_pipeline():
    # monotone-cubic interpolation of linear data is exact, so the sampled
    # and polynomial representations must produce the same spectrum
    from bischro import assemble, solve_spectrum
    xs = np.linspace(0, 1, 41)
    sampled = build_profile({
        "length": 1.0, "rho": 1.0, "q": 0.0,
        "sigma": {"samples": [(float(x), float(1 + 0.5 * x)) for x in xs]},
    })
    poly = build_profile({"length": 1.0, "rho": 1.0,
                          "sigma": {"poly": [1.0, 0.5]}, "q": 0.0})
    assert geometry(sampled).optical_length == pytest.approx(
        geometry(poly).optical_length, rel=1e-13)
    sd_a = solve_spectrum(assemble(sampled, 96), 5)
    sd_b = solve_spectrum(assemble(poly, 96), 5)
    assert sd_a.wavenumbers == pytest.approx(sd_b.wavenumbers, rel=1e-9)
    assert sd_a.traces == pytest.approx(sd_b.traces, rel=1e-8)


def test_gauss_rule_is_one_read_only_pair_per_order():
    from bischro.coefficients import _gauss_rule
    nodes, weights = _gauss_rule(4)
    assert _gauss_rule(4) is _gauss_rule(4)
    x, w = np.polynomial.legendre.leggauss(4)
    assert np.array_equal(nodes, (x + 1.0) / 2.0) and np.array_equal(weights, w / 2.0)
    for arr in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
