"""Semi-analytic frequency laws for the clamped fourth-order pencil.

For constant coefficients the exact wavenumbers solve

    cos(mu * gamma) * cosh(mu * gamma) = 1,

with gamma the optical length; for smooth variable coefficients the same
equation is the leading-order characteristic equation.  Its positive
roots sit exponentially close to the half-integer multiples of
pi / gamma, so consecutive spacings approach pi / gamma and consecutive
eigenvalue gaps grow cubically.  This module computes the roots by
Brent's method on sign-change brackets and compares a computed
spectrum against the three laws (spacing, cubic gap, boundary-trace
magnitude).  Each comparison takes the geometry of the profile the
spectrum was solved on, or a plain optical length; a geometry of another
profile is refused.

The root residual is reported in the cosh-normalized form
|cos(x)cosh(x) - 1| / cosh(x) = |cos(x) - sech(x)|: the raw combination
overflows and amplifies roundoff like cosh(x), which makes any raw
tolerance meaningless already for the tenth root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .coefficients import WaveGeometry
from .reports import ReportTable

ROOT_RESIDUAL_TOL = 1e-10


def _gamma_of(geometry):
    if isinstance(geometry, WaveGeometry):
        return geometry.optical_length
    g = float(geometry)
    if g <= 0:
        raise ValueError("optical length must be positive")
    return g


def _of_profile(sd, geometry):
    """``geometry`` unchanged; a WaveGeometry of another profile than sd's is refused.

    A float optical length carries no profile and is taken as given.
    """
    if isinstance(geometry, WaveGeometry) and geometry.profile is not sd.op.profile:
        raise ValueError("geometry and spectral data refer to different profiles")
    return geometry


def _char_scaled(x):
    # cos(x) - sech(x): same roots as cos(x)cosh(x) - 1, no overflow
    return np.cos(x) - 1.0 / np.cosh(x)


def characteristic_roots(geometry, count):
    """First ``count`` positive roots of cos(mu*gamma)cosh(mu*gamma) = 1.

    The k-th root lies within 0.5 of (k + 1/2) pi / gamma and the scaled
    characteristic function changes sign across that bracket, so plain
    bracketed root finding cannot miss or skip roots.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    gamma = _gamma_of(geometry)
    roots = np.empty(count)
    for k in range(1, count + 1):
        z = (k + 0.5) * np.pi
        a, b = z - 0.5, z + 0.5
        fa, fb = _char_scaled(a), _char_scaled(b)
        if fa * fb > 0:
            raise RuntimeError(
                f"characteristic bracket [{a:.6g}, {b:.6g}] lost the sign change; "
                "geometry data is corrupt"
            )
        x = brentq(_char_scaled, a, b, xtol=1e-15, rtol=4 * np.finfo(float).eps)
        if abs(_char_scaled(x)) > ROOT_RESIDUAL_TOL:
            raise RuntimeError(f"root {k} residual {abs(_char_scaled(x)):.3e} too large")
        roots[k - 1] = x / gamma
    return roots


@dataclass(frozen=True)
class AsymptoticModel:
    """Characteristic roots with their scaled residuals."""

    geometry: WaveGeometry
    mu_tilde: np.ndarray
    residuals: np.ndarray


def asymptotic_model(geometry, count):
    mu = characteristic_roots(geometry, count)
    res = np.abs(_char_scaled(mu * _gamma_of(geometry)))
    return AsymptoticModel(geometry=geometry, mu_tilde=mu, residuals=res)


def index_offset(sd, geometry):
    """Best-fit integer shift between mode index and half-integer mu index.

    The computed wavenumbers satisfy mu_n ~ (n + offset - 1/2) pi / gamma;
    the offset is reported instead of trusting any fixed enumeration
    convention, since only spacings enter the laws downstream.
    """
    gamma = _gamma_of(_of_profile(sd, geometry))
    n = np.arange(1, min(sd.trusted_count, sd.count) + 1)
    est = sd.wavenumbers[: len(n)] * gamma / np.pi + 0.5 - n
    return int(np.round(np.median(est)))


def spacing_report(sd, geometry):
    """Rows (n, mu_{n+1} - mu_n, spacing * gamma / pi); last column -> 1."""
    if sd.trusted_count < 3:
        raise ValueError("spacing report needs trusted_count >= 3")
    gamma = _gamma_of(_of_profile(sd, geometry))
    m = min(sd.trusted_count, sd.count)
    mu = sd.wavenumbers[:m]
    rows = []
    for n in range(m - 1):
        d = mu[n + 1] - mu[n]
        rows.append((n + 1, float(d), float(d * gamma / np.pi)))
    return ReportTable("spacing", ("n", "delta_mu", "spacing_ratio"), rows)


def gap_report(sd, geometry):
    """Rows (n, lambda_{n+1} - lambda_n, gap / cubic-law prediction).

    The prediction differences the fourth powers of the half-integer law
    at the pair's own mu-midpoint index m = (mu_n + mu_{n+1}) gamma / 2 pi,
    giving 4 m^3 (pi/gamma)^4.  Anchoring the index on the data keeps the
    column free of enumeration-offset bias, so it tends to 1 like 1/n^2
    instead of 1/n.
    """
    if sd.trusted_count < 5:
        raise ValueError("gap report needs trusted_count >= 5")
    gamma = _gamma_of(_of_profile(sd, geometry))
    m = min(sd.trusted_count, sd.count)
    lam = sd.eigenvalues[:m]
    mu = sd.wavenumbers[:m]
    const = (np.pi / gamma) ** 4
    rows = []
    for n in range(m - 1):
        gap = lam[n + 1] - lam[n]
        mid = (mu[n] + mu[n + 1]) * gamma / (2.0 * np.pi)
        rows.append((n + 1, float(gap), float(gap / (4.0 * mid**3 * const))))
    return ReportTable("gap", ("n", "delta_lambda", "normalized_gap"), rows)


def eigenfunction_asymptote(model, n, x):
    """Leading-order mode shape at x for the n-th characteristic root.

    Evaluates

        (2 zeta(x) / gamma) exp(-mu gamma) [ (cos - cosh)(mu gamma)(cos - cosh)(mu X)
                                           + (sin + sinh)(mu gamma)(sin - sinh)(mu X) ]

    which vanishes at both clamped ends (exactly at the right end because
    mu is a characteristic root).  The literal product cancels terms of
    size cosh(mu gamma)^2, losing absolute accuracy like
    eps * exp(mu gamma) and overflowing outright for mu gamma beyond 355,
    so the combination is evaluated rearranged into scaled exponentials
    whose exponents are all nonpositive, which is valid at every index.
    """
    if not isinstance(model, AsymptoticModel):
        raise TypeError("eigenfunction_asymptote expects an AsymptoticModel")
    if not 1 <= n <= len(model.mu_tilde):
        raise ValueError(f"mode index {n} outside available roots")
    geo = model.geometry
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x)
    mu = model.mu_tilde[n - 1]
    gamma = geo.optical_length
    a = mu * gamma
    b = mu * np.atleast_1d(geo.phase(xv))
    pref = 2.0 * geo.amplitude(xv) / gamma
    comb = (
        np.exp(-a) * np.cos(a - b)
        + 0.5 * (np.exp(-b) + np.exp(b - 2 * a))
        - np.cos(a) * 0.5 * (np.exp(b - a) + np.exp(-a - b))
        - np.sin(a) * 0.5 * (np.exp(b - a) - np.exp(-a - b))
        + np.sin(b) * 0.5 * (1.0 - np.exp(-2 * a))
        - np.cos(b) * 0.5 * (1.0 + np.exp(-2 * a))
    )
    out = pref * comb
    return float(out[0]) if scalar else out


def trace_limit(geo):
    """Limit of |trace_n| / sqrt(lambda_n) for unit-mass normalized modes.

    The envelope calculation gives
    2 * amplitude(ell) * sqrt(rho(ell)/sigma(ell)) / sqrt(gamma); the
    square root on gamma is forced by exact unit normalization in the
    rho-weighted norm and makes the constant invariant under the
    rescaling rho -> c^4 rho, as the quotient itself is.  For constant
    coefficients the quotient equals this constant at every mode index,
    not just in the limit.  The coefficients are those of ``geo.profile``.
    """
    profile = geo.profile
    ell = profile.length
    gamma = geo.optical_length
    return float(
        2.0
        * geo.amplitude(ell)
        * np.sqrt(profile.rho(ell) / profile.sigma(ell))
        / np.sqrt(gamma)
    )


def trace_limit_report(sd, geo):
    """Rows (n, |t_n| / sqrt(lambda_n), ratio to the limit for sd's profile geometry geo)."""
    if sd.trusted_count < 5:
        raise ValueError("trace report needs trusted_count >= 5")
    limit = trace_limit(_of_profile(sd, geo))
    m = min(sd.trusted_count, sd.count)
    rows = []
    for n in range(m):
        val = abs(sd.traces[n]) / np.sqrt(sd.eigenvalues[n])
        rows.append((n + 1, float(val), float(val / limit)))
    return ReportTable("trace", ("n", "trace_over_sqrt_lambda", "limit_ratio"), rows)
