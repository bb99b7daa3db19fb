import numpy as np
import pytest

from bischro import ProfileError, build_profile, constant_profile, geometry


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


def test_negative_q_rejected():
    with pytest.raises(ProfileError, match="q"):
        build_profile({"length": 1.0, "rho": 1.0, "sigma": 1.0, "q": {"poly": [0.0, -0.5]}})


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
    assert geo.error_estimate < 1e-12


def test_phase_hits_optical_length_at_right_end(var_profile):
    geo = geometry(var_profile)
    assert abs(geo.phase(1.0) - geo.optical_length) <= max(geo.error_estimate, 1e-13)


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


def test_refinement_within_error_estimate(var_profile):
    coarse = geometry(var_profile, cells=64)
    fine = geometry(var_profile, cells=128)
    assert abs(fine.optical_length - coarse.optical_length) <= max(
        coarse.error_estimate, 1e-14
    )


def test_rejects_bad_quadrature_order(const_profile):
    with pytest.raises(ValueError, match="quadrature_order"):
        geometry(const_profile, quadrature_order=1)


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
