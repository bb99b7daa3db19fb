"""Coefficient profiles and the quarter-power wave geometry.

The clamped fourth-order operator on [0, ell],

    u  ->  ( (sigma u'')'' - (q u')' ) / rho,

is parametrized by a mass density rho > 0, a bending stiffness sigma > 0
and a nonnegative first-order coefficient q.  Everything downstream
consumes the coefficients through :class:`CoefficientProfile`, which
guards positivity on a dense validation grid, and through
:class:`WaveGeometry`, which tabulates the quantities controlling the
high-frequency behaviour of the spectrum:

    optical_length = integral_0^ell (rho/sigma)^(1/4) dx
    phase(x)       = the same integral truncated at x
    amplitude(x)   = ( rho(x)^(3/4) sigma(x)^(1/4) )^(-1/2)

Both integrals use a fixed composite Gauss-Legendre rule, so identical
inputs give bit-identical geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator


class ProfileError(ValueError):
    """Raised when a coefficient profile violates its admissibility bounds."""


# Validation grid density for positivity checks (design choice: positivity of
# black-box coefficients is only decidable by sampling).
VALIDATION_POINTS = 4096
DEFAULT_CELLS = 256
DEFAULT_ORDER = 4


class Coefficient:
    """One coefficient function, given as a polynomial or as sample data.

    Polynomials are stored as coefficient lists in increasing degree.
    Sampled data is interpolated with a monotone piecewise cubic (PCHIP),
    which is C1 and never overshoots the data range, so strictly positive
    samples produce a strictly positive interpolant.
    """

    def __init__(self, poly=None, samples=None):
        if (poly is None) == (samples is None):
            raise ProfileError("coefficient needs exactly one of poly= or samples=")
        if poly is not None:
            coeffs = np.atleast_1d(np.asarray(poly, dtype=float))
            if coeffs.ndim != 1 or coeffs.size == 0:
                raise ProfileError("poly must be a nonempty 1-d coefficient list")
            self._poly = coeffs
            self._interp = None
        else:
            pts = np.asarray(samples, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
                raise ProfileError("samples must be a list of at least two (x, value) pairs")
            xs, vs = pts[:, 0], pts[:, 1]
            if np.any(np.diff(xs) <= 0):
                raise ProfileError("sample abscissae must be strictly increasing")
            self._poly = None
            self._interp = PchipInterpolator(xs, vs, extrapolate=True)
            self._span = (xs[0], xs[-1])

    def check_cover(self, length):
        if self._interp is not None:
            lo, hi = self._span
            if lo > 1e-12 * length or hi < length * (1 - 1e-12):
                raise ProfileError(
                    f"samples cover [{lo:g}, {hi:g}] but must cover [0, {length:g}]"
                )

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self._poly is not None:
            return np.polynomial.polynomial.polyval(x, self._poly)
        return self._interp(x)


def _as_coefficient(spec, name):
    if isinstance(spec, Coefficient):
        return spec
    if isinstance(spec, (int, float)):
        return Coefficient(poly=[float(spec)])
    if isinstance(spec, dict):
        unknown = set(spec) - {"poly", "samples"}
        if unknown:
            raise ProfileError(f"{name}: unknown coefficient keys {sorted(unknown)}")
        return Coefficient(poly=spec.get("poly"), samples=spec.get("samples"))
    raise ProfileError(f"{name}: expected number, dict or Coefficient, got {type(spec).__name__}")


@dataclass(frozen=True)
class CoefficientProfile:
    """Admissible coefficient triple (rho, sigma, q) on [0, length]."""

    length: float
    rho: Coefficient
    sigma: Coefficient
    q: Coefficient

    def __post_init__(self):
        if not (self.length > 0):
            raise ProfileError(f"interval length must be positive, got {self.length}")


def _validation_grid(length):
    uniform = np.linspace(0.0, length, VALIDATION_POINTS)
    cells = np.linspace(0.0, length, DEFAULT_CELLS + 1)
    gx, _ = _gauss_rule(DEFAULT_ORDER)
    h = cells[1] - cells[0]
    quad = (cells[:-1, None] + gx[None, :] * h).ravel()
    return np.union1d(uniform, quad)


def build_profile(spec):
    """Build a validated profile from a description dict.

    ``spec`` maps ``length`` to a positive real and each of ``rho``,
    ``sigma``, ``q`` to a number, a ``{"poly": [...]}`` dict or a
    ``{"samples": [(x, v), ...]}`` dict.  Positivity (rho, sigma > 0,
    q >= 0) is enforced on a dense grid; the first offending abscissa is
    reported.
    """
    if not isinstance(spec, dict):
        raise ProfileError("profile spec must be a dict")
    unknown = set(spec) - {"length", "rho", "sigma", "q"}
    if unknown:
        raise ProfileError(f"unknown profile keys {sorted(unknown)}")
    missing = {"length", "rho", "sigma", "q"} - set(spec)
    if missing:
        raise ProfileError(f"profile spec missing keys {sorted(missing)}")

    length = float(spec["length"])
    if not length > 0:
        raise ProfileError(f"interval length must be positive, got {length:g}")
    rho = _as_coefficient(spec["rho"], "rho")
    sigma = _as_coefficient(spec["sigma"], "sigma")
    q = _as_coefficient(spec["q"], "q")
    for c in (rho, sigma, q):
        c.check_cover(length)

    grid = _validation_grid(length)
    for name, fn, strict in (("rho", rho, True), ("sigma", sigma, True), ("q", q, False)):
        vals = fn(grid)
        bad = vals <= 0 if strict else vals < 0
        if np.any(bad):
            i = int(np.argmax(bad))
            kind = "<= 0" if strict else "< 0"
            raise ProfileError(
                f"{name}(x) = {vals[i]:.6g} {kind} at x = {grid[i]:.6g}"
            )
    return CoefficientProfile(length=length, rho=rho, sigma=sigma, q=q)


def constant_profile(rho=1.0, sigma=1.0, q=0.0, length=1.0):
    """Shorthand for constant-coefficient profiles."""
    return build_profile({"length": length, "rho": rho, "sigma": sigma, "q": q})


def _quarter_power(profile, x):
    """The optical-length integrand (rho/sigma)^(1/4)."""
    return (profile.rho(x) / profile.sigma(x)) ** 0.25


def _gauss_rule(order):
    """Gauss-Legendre nodes/weights mapped to the unit interval [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


@dataclass(frozen=True)
class WaveGeometry:
    """Quarter-power integral geometry of a profile.

    ``optical_length`` is the full integral of (rho/sigma)^(1/4);
    ``phase`` maps [0, ell] monotonically onto [0, optical_length];
    ``amplitude`` is the leading-order mode envelope.  ``error_estimate``
    comes from doubling the quadrature order on the same mesh.
    """

    profile: CoefficientProfile
    cells: int
    order: int
    optical_length: float
    error_estimate: float
    _edges: np.ndarray = field(repr=False)
    _cumulative: np.ndarray = field(repr=False)

    def integrand(self, x):
        return _quarter_power(self.profile, x)

    def amplitude(self, x):
        p = self.profile
        return (p.rho(x) ** 0.75 * p.sigma(x) ** 0.25) ** -0.5

    def phase(self, x):
        """Quarter-power integral from 0 to x, evaluated per cell."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        if np.any((xv < -1e-12) | (xv > self.profile.length * (1 + 1e-12))):
            raise ValueError("phase argument outside [0, length]")
        h = self._edges[1] - self._edges[0]
        idx = np.clip((xv / h).astype(int), 0, self.cells - 1)
        left = self._edges[idx]
        gx, gw = _gauss_rule(self.order)
        span = xv - left
        pts = left[:, None] + span[:, None] * gx[None, :]
        vals = self.integrand(pts)
        partial = span * (vals @ gw)
        out = self._cumulative[idx] + partial
        return float(out[0]) if scalar else out


def geometry(profile, quadrature_order=DEFAULT_ORDER, cells=DEFAULT_CELLS):
    """Tabulate the wave geometry of a profile with composite Gauss quadrature."""
    if quadrature_order < 2:
        raise ValueError(f"quadrature_order must be >= 2, got {quadrature_order}")
    if cells < 1:
        raise ValueError(f"cells must be >= 1, got {cells}")
    edges = np.linspace(0.0, profile.length, cells + 1)
    h = edges[1] - edges[0]

    def cell_integrals(order):
        gx, gw = _gauss_rule(order)
        pts = edges[:-1, None] + gx[None, :] * h
        return h * (_quarter_power(profile, pts) @ gw), pts

    base, nodes = cell_integrals(quadrature_order)
    refined, _ = cell_integrals(2 * quadrature_order)
    total = float(np.sum(base))
    estimate = float(np.abs(np.sum(refined) - np.sum(base)))
    cumulative = np.concatenate([[0.0], np.cumsum(base)])

    geo = WaveGeometry(
        profile=profile,
        cells=cells,
        order=quadrature_order,
        optical_length=total,
        error_estimate=estimate,
        _edges=edges,
        _cumulative=cumulative,
    )
    amp = geo.amplitude(nodes)
    if np.any(amp <= 0) or not np.all(np.isfinite(amp)):
        raise ProfileError("amplitude is not strictly positive on the quadrature grid")
    return geo
