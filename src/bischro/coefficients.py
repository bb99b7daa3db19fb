"""Coefficient profiles and the quarter-power wave geometry.

The clamped fourth-order operator on [0, ell],

    u  ->  ( (sigma u'')'' - (q u')' ) / rho,

is parametrized by a mass density rho > 0, a bending stiffness sigma > 0
and a nonnegative first-order coefficient q, each a plain callable:
NumPy's ``polyval`` bound to its coefficients, or SciPy's PCHIP through
samples.  Everything downstream consumes them through
:class:`CoefficientProfile`, which :func:`build_profile` returns only
once every input is a number by :func:`_real` and positivity holds on a
dense validation grid, and through :class:`WaveGeometry`, which
tabulates the quantities controlling the high-frequency behaviour of
the spectrum:

    optical_length = integral_0^ell (rho/sigma)^(1/4) dx
    phase(x)       = the same integral truncated at x
    amplitude(x)   = ( rho(x)^(3/4) sigma(x)^(1/4) )^(-1/2)

This lowest module holds the package's input rules, which every scalar
entry point checks with: :func:`_real` (a number), :func:`_integer` (a
count) and :func:`_items` (a list of either).

Both integrals use one fixed rule, composite Gauss-Legendre of order
DEFAULT_ORDER on DEFAULT_CELLS equal cells, so identical inputs give
bit-identical geometry.  Orders 4 to 8 all give the optical length to
rounding (order 2 loses up to 1.2e-11), so the rule carries no error
estimate and takes no cell count.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np


class ProfileError(ValueError):
    """Raised when a coefficient profile violates its admissibility bounds."""


# Validation grid density for positivity checks (design choice: positivity of
# black-box coefficients is only decidable by sampling).
VALIDATION_POINTS = 4096
DEFAULT_CELLS = 256
DEFAULT_ORDER = 4
_NUMBER = (int, float, np.integer, np.floating)


def _real(v):
    """A finite int, float, or NumPy integer or float scalar: never a bool, a
    string, None or a complex; an int past the float range is not finite."""
    try:
        return isinstance(v, _NUMBER) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


def _integer(n, what, at_least=-math.inf):
    """``n`` as an int: anything but an int or a NumPy integer is a
    TypeError naming ``what``, an integer below ``at_least`` a ValueError."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, got {type(n).__name__}")
    if n < at_least:
        raise ValueError(f"{what} must be >= {at_least}, got {n}")
    return int(n)


def _items(v, check, at_least=1):
    """A list, tuple or ndarray of ndim >= 1: ``at_least`` or more items, all passing ``check``."""
    return ((isinstance(v, (list, tuple)) or isinstance(v, np.ndarray) and v.ndim >= 1)
            and len(v) >= at_least and all(map(check, v)))


def _number(name, refusal, v):
    """True if ``v`` passes :func:`_real`, else a ProfileError: "``name``
    must be finite" for a number, ``refusal`` and the type name otherwise."""
    if _real(v):
        return True
    if isinstance(v, _NUMBER) and not isinstance(v, bool):
        raise ProfileError(f"{name} must be finite")
    raise ProfileError(refusal + type(v).__name__)


def _coefficient(spec, name, length):
    """A number or ``{"poly": [...]}`` (increasing degree) as ``polyval``;
    ``{"samples": [(x, v), ...]}`` covering [0, length] as a monotone
    piecewise cubic (PCHIP), which is C1 and never overshoots the data
    range, so strictly positive samples give a positive interpolant.  Each
    number is checked by :func:`_real` before NumPy converts anything."""
    if not isinstance(spec, dict):
        _number(name, f"{name}: expected number or dict, got ", spec)
        spec = {"poly": [float(spec)]}
    unknown = set(spec) - {"poly", "samples"}
    if unknown:
        raise ProfileError(f"{name}: unknown coefficient keys {sorted(unknown)}")
    poly, samples = spec.get("poly"), spec.get("samples")
    if (poly is None) == (samples is None):
        raise ProfileError("coefficient needs exactly one of poly= or samples=")
    key = "poly" if samples is None else "samples"
    entry = functools.partial(_number, name, f"{name}: {key} entries must be numbers, got a ")
    if poly is not None:
        if not _items(poly, lambda c: not isinstance(c, (list, tuple, np.ndarray)) and entry(c)):
            raise ProfileError("poly must be a nonempty 1-d coefficient list")
        return functools.partial(np.polynomial.polynomial.polyval, c=np.asarray(poly, dtype=float))
    if not _items(samples, lambda p: _items(p, entry, 2) and len(p) == 2, 2):
        raise ProfileError("samples must be a list of at least two (x, value) pairs")
    pts = np.asarray(samples, dtype=float)
    xs, vs = pts[:, 0], pts[:, 1]
    if np.any(np.diff(xs) <= 0):
        raise ProfileError("sample abscissae must be strictly increasing")
    if xs[0] > 1e-12 * length or xs[-1] < length * (1 - 1e-12):
        raise ProfileError(
            f"samples cover [{xs[0]:g}, {xs[-1]:g}] but must cover [0, {length:g}]"
        )
    from scipy.interpolate import PchipInterpolator
    return PchipInterpolator(xs, vs, extrapolate=True)


@dataclass(frozen=True)
class CoefficientProfile:
    """Admissible coefficient triple (rho, sigma, q) on [0, length]."""

    length: float
    rho: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    q: Callable[[np.ndarray], np.ndarray]


def _validation_grid(length):
    _, nodes, _ = _gauss_nodes(length)
    return np.union1d(np.linspace(0.0, length, VALIDATION_POINTS), nodes.ravel())


def build_profile(spec):
    """Build a validated profile from a description dict.

    ``spec`` maps ``length`` to a positive number and each of ``rho``,
    ``sigma``, ``q`` to a number, a ``{"poly": [...]}`` dict or a
    ``{"samples": [(x, v), ...]}`` dict, each number one by :func:`_real`.
    Positivity (rho, sigma > 0, q >= 0) is enforced on a dense grid; the
    first offending abscissa is reported.
    """
    if not isinstance(spec, dict):
        raise ProfileError("profile spec must be a dict")
    unknown = set(spec) - {"length", "rho", "sigma", "q"}
    if unknown:
        raise ProfileError(f"unknown profile keys {sorted(unknown)}")
    missing = {"length", "rho", "sigma", "q"} - set(spec)
    if missing:
        raise ProfileError(f"profile spec missing keys {sorted(missing)}")

    _number("length", "length must be a number, got ", spec["length"])
    length = float(spec["length"])
    if not length > 0:
        raise ProfileError(f"interval length must be positive, got {length:g}")
    rho = _coefficient(spec["rho"], "rho", length)
    sigma = _coefficient(spec["sigma"], "sigma", length)
    q = _coefficient(spec["q"], "q", length)

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


@functools.cache
def _gauss_rule(order):
    """Gauss-Legendre nodes/weights mapped to the unit interval [0, 1]; one
    read-only pair per order, shared by every caller."""
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = (x + 1.0) / 2.0, w / 2.0
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gauss_nodes(length):
    """Cell edges, (cell, node) points and unit weights of the composite
    Gauss rule of order DEFAULT_ORDER on DEFAULT_CELLS equal cells."""
    edges = np.linspace(0.0, length, DEFAULT_CELLS + 1)
    gx, gw = _gauss_rule(DEFAULT_ORDER)
    return edges, edges[:-1, None] + gx[None, :] * (edges[1] - edges[0]), gw


@dataclass(frozen=True)
class WaveGeometry:
    """Quarter-power integral geometry of a profile.

    ``optical_length`` is the full integral of (rho/sigma)^(1/4);
    ``phase`` maps [0, ell] monotonically onto [0, optical_length];
    ``amplitude`` is the leading-order mode envelope.
    """

    profile: CoefficientProfile
    optical_length: float
    _edges: np.ndarray = field(repr=False)
    _cumulative: np.ndarray = field(repr=False)

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
        idx = np.clip((xv / h).astype(int), 0, DEFAULT_CELLS - 1)
        left = self._edges[idx]
        gx, gw = _gauss_rule(DEFAULT_ORDER)
        span = xv - left
        pts = left[:, None] + span[:, None] * gx[None, :]
        vals = _quarter_power(self.profile, pts)
        partial = span * (vals @ gw)
        out = self._cumulative[idx] + partial
        return float(out[0]) if scalar else out


def geometry(profile):
    """Tabulate the wave geometry of a profile: composite Gauss quadrature
    of the fixed order DEFAULT_ORDER on DEFAULT_CELLS equal cells."""
    edges, nodes, gw = _gauss_nodes(profile.length)
    cell_integrals = (edges[1] - edges[0]) * (_quarter_power(profile, nodes) @ gw)

    geo = WaveGeometry(
        profile=profile,
        optical_length=float(np.sum(cell_integrals)),
        _edges=edges,
        _cumulative=np.concatenate([[0.0], np.cumsum(cell_integrals)]),
    )
    amp = geo.amplitude(nodes)
    if np.any(amp <= 0) or not np.all(np.isfinite(amp)):
        raise ProfileError("amplitude is not strictly positive on the quadrature grid")
    return geo
