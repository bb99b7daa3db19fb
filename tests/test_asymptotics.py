import dataclasses

import numpy as np
import pytest

from bischro import (
    assemble,
    build_profile,
    characteristic_roots,
    constant_profile,
    eigenfunction_asymptote,
    gap_report,
    geometry,
    index_offset,
    solve_spectrum,
    spacing_report,
    trace_limit,
    trace_limit_report,
)
from bischro.asymptotics import _char_scaled

from .oracles import CLAMPED_ROOTS, beam_roots


def synthetic_spectrum(template, mus):
    """SpectralData stand-in carrying oracle frequencies (modes unused)."""
    mus = np.asarray(mus, dtype=float)
    return dataclasses.replace(
        template,
        eigenvalues=mus**4,
        wavenumbers=mus,
        traces=np.ones_like(mus),
        residuals=np.zeros_like(mus),
        trusted_count=len(mus),
    )


def test_roots_match_frozen_oracle(const_geometry):
    roots = characteristic_roots(const_geometry, 8)
    assert roots == pytest.approx(np.array(CLAMPED_ROOTS), rel=1e-12)


def test_second_spacing_near_pi(const_geometry):
    r = characteristic_roots(const_geometry, 2)
    # the deviation from pi is 0.587 percent, frozen from the oracle roots
    assert abs((r[1] - r[0]) / np.pi - 1) < 0.006
    assert abs((r[1] - r[0]) / np.pi - 1) > 0.005


def test_roots_scale_inversely_with_optical_length(const_geometry):
    r1 = characteristic_roots(const_geometry, 12)
    r2 = characteristic_roots(geometry(constant_profile(length=2.0)), 12)
    assert r2 == pytest.approx(r1 / 2.0, rel=1e-13)


def test_root_residuals_below_gate():
    geo = geometry(constant_profile())
    mu = characteristic_roots(geo, 200)
    assert np.all(np.abs(_char_scaled(mu * geo.optical_length)) <= 1e-10)
    assert np.all(np.diff(mu) > 0)
    # roots approach the half-integer grid from the cosine zeros
    k = np.arange(1, 201)
    assert mu[-1] == pytest.approx((k[-1] + 0.5) * np.pi, rel=1e-9)


def test_raw_residual_is_uncomputable_for_large_roots(const_geometry):
    # the cosh-amplified raw form |cos cosh - 1| blows up on the rounded
    # roots; this is why the module reports the scaled residual
    x = characteristic_roots(const_geometry, 20)[-1] * const_geometry.optical_length
    raw = abs(np.cos(x) * np.cosh(x) - 1.0)
    assert raw > 1e3
    assert abs(_char_scaled(x)) < 1e-13


def test_spacing_report_constant(sd_const_512):
    table = spacing_report(sd_const_512)
    ratio = table["spacing_ratio"]
    assert len(table["n"]) == sd_const_512.trusted_count - 1
    # compare against the oracle-root spacings at matching indices
    oracle = beam_roots(sd_const_512.trusted_count)
    for n in range(3, len(ratio)):
        expected = (oracle[n + 1] - oracle[n]) / np.pi
        assert ratio[n] == pytest.approx(expected, abs=5e-7)


def test_spacing_doubles_when_density_drops(const_profile):
    # rho -> rho/16 multiplies every eigenvalue by 16 exactly, so mu and
    # all spacings double exactly at the discrete level
    light = constant_profile(rho=1.0 / 16.0)
    sd_a = solve_spectrum(assemble(const_profile, 96), 8)
    sd_b = solve_spectrum(assemble(light, 96), 8)
    sp_a = spacing_report(sd_a)["delta_mu"]
    sp_b = spacing_report(sd_b)["delta_mu"]
    assert sp_b == pytest.approx(2.0 * sp_a, rel=1e-9)
    # and the dimensionless ratio column is unchanged
    ra = spacing_report(sd_a)["spacing_ratio"]
    rb = spacing_report(sd_b)["spacing_ratio"]
    assert rb == pytest.approx(ra, rel=1e-9)


def test_variable_profile_spacing_settles(sd_var_2048):
    table = spacing_report(sd_var_2048)
    ratio = table["spacing_ratio"]
    assert np.all(np.abs(ratio[14:24] - 1) < 0.01)


def test_gap_report_oracle_roots(sd_const_128, const_geometry):
    # feed exact characteristic roots through the report; the normalized
    # column must sit within 5 percent of 1 from n ~ 5 on and within
    # 0.2 percent at n = 20
    mus = characteristic_roots(const_geometry, 30)
    sd = synthetic_spectrum(sd_const_128, mus)
    table = gap_report(sd)
    normed = table["normalized_gap"]
    n = table["n"]
    assert abs(normed[n == 20][0] - 1) < 0.002
    assert np.all(np.abs(normed[4:] - 1) < 0.05)
    # small-n rows are present as diagnostics but not law-quality
    assert n[0] == 1
    assert np.all(table["delta_lambda"] > 0)


def test_gap_positivity_computed(sd_const_512):
    table = gap_report(sd_const_512)
    assert np.all(table["delta_lambda"] > 0)


def test_index_offset_is_one(sd_const_512):
    # first computed root sits near 1.5 pi/gamma: one step above the
    # half-integer enumeration that starts the cosine zeros
    assert index_offset(sd_const_512) == 1


def test_eigenfunction_asymptote_boundary_zeros(const_geometry):
    for n in (1, 4, 12):
        assert abs(eigenfunction_asymptote(const_geometry, n, 0.0)) < 1e-12
        assert abs(eigenfunction_asymptote(const_geometry, n, 1.0)) < 1e-12


def test_eigenfunction_asymptote_matches_computed_mode(sd_const_512, const_geometry):
    xs = np.linspace(0, 1, 64)
    n = 8
    approx = eigenfunction_asymptote(const_geometry, n, xs)
    mode = sd_const_512.op.evaluate(sd_const_512.modes[:, n - 1], xs)
    corr = abs(np.dot(approx, mode)) / (np.linalg.norm(approx) * np.linalg.norm(mode))
    assert corr >= 0.999


def test_asymptote_matches_literal_formula_at_low_index(const_geometry):
    # below mu gamma = 12 the literal product loses nothing to cancellation,
    # so it is a faithful reference for the rearranged evaluation
    mu = characteristic_roots(const_geometry, 16)
    xs = np.linspace(0, 1, 23)
    gamma = const_geometry.optical_length
    for n in (1, 2, 3):
        a = mu[n - 1] * gamma
        assert a < 12.0
        b = mu[n - 1] * const_geometry.phase(xs)
        literal = (2.0 * const_geometry.amplitude(xs) / gamma) * np.exp(-a) * (
            (np.cos(a) - np.cosh(a)) * (np.cos(b) - np.cosh(b))
            + (np.sin(a) + np.sinh(a)) * (np.sin(b) - np.sinh(b))
        )
        assert eigenfunction_asymptote(const_geometry, n, xs) == pytest.approx(
            literal, rel=1e-10, abs=1e-11)


def test_asymptote_refuses_anything_but_a_geometry(const_profile):
    with pytest.raises(TypeError, match="WaveGeometry"):
        eigenfunction_asymptote(const_profile, 1, 0.5)


def test_asymptote_no_overflow_at_high_index(const_geometry):
    vals = eigenfunction_asymptote(const_geometry, 40, np.linspace(0, 1, 11))
    assert np.all(np.isfinite(vals))


def test_trace_limit_constant_profile(sd_const_512, const_geometry):
    assert trace_limit(const_geometry) == pytest.approx(2.0, rel=1e-12)
    table = trace_limit_report(sd_const_512)
    ratio = table["limit_ratio"]
    assert np.all(np.abs(ratio[9:14] - 1) < 0.04)


def test_trace_limit_quartic_rescale_value():
    # rho = 16: amplitude(1) = 16^(-3/8), optical length 2, so the limit is
    # 2 * 16^(-3/8) * 4 / sqrt(2) = 2 (scale invariance of the quotient)
    p = constant_profile(rho=16.0)
    geo = geometry(p)
    assert trace_limit(geo) == pytest.approx(2.0, rel=1e-12)


def test_trace_ratio_column_scale_invariant(const_profile):
    sd_a = solve_spectrum(assemble(const_profile, 96), 9)
    heavy = constant_profile(rho=16.0)
    sd_b = solve_spectrum(assemble(heavy, 96), 9)
    ta = trace_limit_report(sd_a)
    tb = trace_limit_report(sd_b)
    assert tb["limit_ratio"] == pytest.approx(ta["limit_ratio"], rel=1e-9)


def test_reports_demand_enough_trusted_modes(sd_const_512):
    starved = dataclasses.replace(sd_const_512, trusted_count=2)
    with pytest.raises(ValueError):
        spacing_report(starved)
    with pytest.raises(ValueError):
        gap_report(starved)
    with pytest.raises(ValueError):
        trace_limit_report(starved)

