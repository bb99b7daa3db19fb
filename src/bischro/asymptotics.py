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
magnitude).  Each comparison takes the spectrum only, reads gamma and
the trace limit from the geometry of the profile it was solved on, and
returns a ``{column name: array}`` dict, the columns the CLI writes.

The root residual is reported in the cosh-normalized form
|cos(x)cosh(x) - 1| / cosh(x) = |cos(x) - sech(x)|: the raw combination
overflows and amplifies roundoff like cosh(x), which makes any raw
tolerance meaningless already for the tenth root.
"""

from __future__ import annotations

import numpy as np

from .coefficients import WaveGeometry, geometry

ROOT_RESIDUAL_TOL = 1e-10
MIN_REPORT_MODES = 5  # trusted modes the gap and trace reports need


def _char_scaled(x):
    # cos(x) - sech(x): same roots as cos(x)cosh(x) - 1, no overflow
    return np.cos(x) - 1.0 / np.cosh(x)


def characteristic_roots(geo, count):
    """First ``count`` positive roots of cos(mu*gamma)cosh(mu*gamma) = 1,
    gamma the optical length of the WaveGeometry ``geo``.

    The k-th root lies within 0.5 of (k + 1/2) pi / gamma and the scaled
    characteristic function changes sign across that bracket (|cos| =
    sin 0.5 ~ 0.479 at both ends, sech <= 0.03), so plain bracketed root
    finding cannot miss or skip roots.
    """
    from scipy.optimize import brentq
    if count < 1:
        raise ValueError("count must be >= 1")
    gamma = geo.optical_length
    roots = np.empty(count)
    for k in range(1, count + 1):
        z = (k + 0.5) * np.pi
        x = brentq(_char_scaled, z - 0.5, z + 0.5, xtol=1e-15, rtol=4 * np.finfo(float).eps)
        if abs(_char_scaled(x)) > ROOT_RESIDUAL_TOL:
            raise RuntimeError(f"root {k} residual {abs(_char_scaled(x)):.3e} too large")
        roots[k - 1] = x / gamma
    return roots


def index_offset(sd):
    """Best-fit integer shift between mode index and half-integer mu index.

    The computed wavenumbers satisfy mu_n ~ (n + offset - 1/2) pi / gamma;
    the offset is reported instead of trusting any fixed enumeration
    convention, since only spacings enter the laws downstream.
    """
    gamma = geometry(sd.op.profile).optical_length
    n = np.arange(1, sd.trusted_count + 1)
    est = sd.wavenumbers[: len(n)] * gamma / np.pi + 0.5 - n
    return int(np.round(np.median(est)))


def spacing_report(sd):
    """Columns n, delta_mu = mu_{n+1} - mu_n and spacing_ratio =
    delta_mu * gamma / pi; the last column tends to 1."""
    if sd.trusted_count < 3:
        raise ValueError("spacing report needs trusted_count >= 3")
    gamma = geometry(sd.op.profile).optical_length
    m = sd.trusted_count
    d = np.diff(sd.wavenumbers[:m])
    return {"n": np.arange(1, m), "delta_mu": d, "spacing_ratio": d * gamma / np.pi}


def gap_report(sd):
    """Columns n, delta_lambda = lambda_{n+1} - lambda_n and normalized_gap,
    the gap over its cubic-law prediction.

    The prediction differences the fourth powers of the half-integer law
    at the pair's own mu-midpoint index m = (mu_n + mu_{n+1}) gamma / 2 pi,
    giving 4 m^3 (pi/gamma)^4.  Anchoring the index on the data keeps the
    column free of enumeration-offset bias, so it tends to 1 like 1/n^2
    instead of 1/n.
    """
    if sd.trusted_count < MIN_REPORT_MODES:
        raise ValueError(f"gap report needs trusted_count >= {MIN_REPORT_MODES}")
    gamma = geometry(sd.op.profile).optical_length
    m = sd.trusted_count
    gap = np.diff(sd.eigenvalues[:m])
    mu = sd.wavenumbers[:m]
    mid = (mu[:-1] + mu[1:]) * gamma / (2.0 * np.pi)
    # scalar cubes: the array power takes a SIMD path whose last bit differs
    cube = np.array([x**3 for x in mid])
    return {"n": np.arange(1, m), "delta_lambda": gap,
            "normalized_gap": gap / (4.0 * cube * (np.pi / gamma) ** 4)}


def eigenfunction_asymptote(geo, n, x):
    """Leading-order mode shape at x for the n-th characteristic root of
    the WaveGeometry ``geo``.

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
    if not isinstance(geo, WaveGeometry):
        raise TypeError("eigenfunction_asymptote expects a WaveGeometry")
    mu = characteristic_roots(geo, n)[-1]
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x)
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


def trace_limit_report(sd):
    """Columns n, trace_over_sqrt_lambda = |t_n| / sqrt(lambda_n) and
    limit_ratio, its ratio to the trace limit of sd's profile."""
    if sd.trusted_count < MIN_REPORT_MODES:
        raise ValueError(f"trace report needs trusted_count >= {MIN_REPORT_MODES}")
    limit = trace_limit(geometry(sd.op.profile))
    m = sd.trusted_count
    val = np.abs(sd.traces[:m]) / np.sqrt(sd.eigenvalues[:m])
    return {"n": np.arange(1, m + 1), "trace_over_sqrt_lambda": val, "limit_ratio": val / limit}
