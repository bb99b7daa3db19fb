"""C1-conforming Hermite cubic discretization of the clamped operator.

Each of the E uniform elements carries four degrees of freedom, the value
and slope at its two end nodes, so the global vector interleaves
(u_0, u'_0, u_1, u'_1, ...).  The clamped constraints u = u' = 0 at both
ends are imposed by eliminating the four boundary dofs.

Stiffness and mass are assembled with a fixed 4-point Gauss rule per
element, which integrates every constant-coefficient entry exactly
(element integrands are at most degree six) and is adequate for smooth
variable coefficients.  Both matrices are stored in symmetric lower-band
form with half-bandwidth 3, so the memory cost is linear in E.  The
bands are F-ordered, the layout LAPACK and BLAS read without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas as _blas

from .coefficients import CoefficientProfile, _gauss_rule

MIN_ELEMENTS = 10  # the coarsest mesh on which trusted_count certifies a mode
HALF_BANDWIDTH = 3


def hermite_shapes(xi, h):
    """Value, slope and curvature of the four cubic shape functions.

    ``xi`` is the local coordinate in [0, 1] on an element of width h.
    Rows follow the dof order (value left, slope left, value right,
    slope right); derivative rows carry the 1/h, 1/h^2 mapping factors.
    """
    xi = np.asarray(xi, dtype=float)
    N = np.stack([
        1 - 3 * xi**2 + 2 * xi**3,
        h * (xi - 2 * xi**2 + xi**3),
        3 * xi**2 - 2 * xi**3,
        h * (xi**3 - xi**2),
    ], axis=-1)
    dN = np.stack([
        (-6 * xi + 6 * xi**2) / h,
        1 - 4 * xi + 3 * xi**2,
        (6 * xi - 6 * xi**2) / h,
        3 * xi**2 - 2 * xi,
    ], axis=-1)
    d2N = np.stack([
        (-6 + 12 * xi) / h**2,
        (-4 + 6 * xi) / h,
        (6 - 12 * xi) / h**2,
        (6 * xi - 2) / h,
    ], axis=-1)
    return N, dN, d2N


def _integer(n, what):
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, got {type(n).__name__}")
    return int(n)


def constrained_dimension(elements):
    """Dofs left on an E-element mesh once the four clamped boundary dofs go."""
    return 2 * elements - 2


def trusted_count(elements, modes):
    """Modes certified on an E-element mesh: one per ten elements, at most ``modes``."""
    return min(modes, elements // 10)


def band_matvec(band, x):
    """Symmetric lower band times a vector, or times each column of a 2-d block into a
    C-ordered block (the mode Gram's layout); complex parts split.  The one dsbmv caller."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return band_matvec(band, x.real) + 1j * band_matvec(band, x.imag)
    k = band.shape[0] - 1
    if x.ndim == 2:
        out = np.empty(x.shape)
        for j in range(x.shape[1]):
            out[:, j] = _blas.dsbmv(k, 1.0, band, x[:, j], lower=1)
        return out
    return _blas.dsbmv(k, 1.0, band, x, lower=1)


@dataclass(frozen=True)
class DiscreteOperator:
    """Assembled stiffness/mass pencil plus the right-end curvature trace."""

    profile: CoefficientProfile
    n_elements: int
    h: float
    kband: np.ndarray = field(repr=False)   # full dofs, symmetric lower band, F-ordered
    mband: np.ndarray = field(repr=False)

    @property
    def n_dof_full(self):
        return 2 * (self.n_elements + 1)

    @property
    def n_dof(self):
        """Dimension after eliminating the four clamped boundary dofs."""
        return constrained_dimension(self.n_elements)

    @property
    def nodes(self):
        return np.linspace(0.0, self.profile.length, self.n_elements + 1)

    def constrained_bands(self):
        """Stiffness/mass band views on the constrained dofs [2, n_dof_full - 2); no caller
        writes into them, and none reads their tails band[i, n_dof - i:] (outside the matrix)."""
        return self.kband[:, 2:-2], self.mband[:, 2:-2]

    def expand(self, u):
        """Zero-pad a constrained dof vector to the full dof layout."""
        u = np.asarray(u)
        if u.shape[-1] == self.n_dof_full:
            return u
        if u.shape[-1] != self.n_dof:
            raise ValueError(
                f"dof vector of length {u.shape[-1]}; expected "
                f"{self.n_dof} (constrained) or {self.n_dof_full} (full)"
            )
        full = np.zeros(u.shape[:-1] + (self.n_dof_full,), dtype=u.dtype)
        full[..., 2:-2] = u
        return full

    def constrain(self, u_full):
        return np.asarray(u_full)[..., 2:-2]

    def interpolate(self, f, fprime=None):
        """Full dof vector of the Hermite interpolant of a function.

        Slopes come from ``fprime`` when given, otherwise from a cubic
        spline through a 4-per-element sampling of ``f``.
        """
        xs = self.nodes
        vals = np.asarray(f(xs))
        if fprime is not None:
            slopes = np.asarray(fprime(xs))
        else:
            from scipy.interpolate import CubicSpline
            dense = np.linspace(0.0, self.profile.length, 4 * self.n_elements + 1)
            slopes = CubicSpline(dense, np.asarray(f(dense)))(xs, 1)
        dtype = complex if np.iscomplexobj(vals) or np.iscomplexobj(slopes) else float
        u = np.empty(self.n_dof_full, dtype=dtype)
        u[0::2] = vals
        u[1::2] = slopes
        return u

    def _locate(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        e = np.clip((x / self.h).astype(int), 0, self.n_elements - 1)
        xi = x / self.h - e
        return e, xi

    def evaluate(self, u_full, x, derivative=0):
        """Evaluate the piecewise-cubic reconstruction, or its first or second
        derivative, at abscissae x in [0, length]; a non-integer derivative (bool
        included) is a TypeError, one outside {0, 1, 2} and non-finite or
        out-of-range abscissae a ValueError."""
        derivative = _integer(derivative, "derivative")
        if derivative not in (0, 1, 2):
            raise ValueError(f"derivative must be 0, 1 or 2, got {derivative!r}")
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        if not np.isfinite(x).all():
            raise ValueError("abscissae must be finite")
        if np.any((x < -1e-12) | (x > self.profile.length * (1 + 1e-12))):
            raise ValueError("abscissae outside [0, length]")
        u_full = self.expand(np.asarray(u_full))
        e, xi = self._locate(x)
        N, dN, d2N = hermite_shapes(xi, self.h)
        basis = (N, dN, d2N)[derivative]
        dofs = np.stack([u_full[2 * e + k] for k in range(4)], axis=-1)
        out = np.sum(basis * dofs, axis=-1)
        return out[0] if scalar else out


def assemble(profile, elements):
    """Assemble the banded stiffness/mass pencil on a uniform mesh.

    The stiffness entry pairs dofs through sigma u'' v'' + q u' v', the
    mass entry through rho u v, both integrated per element with the
    Gauss rule.  Element matrices are computed once as exact-symmetric
    blocks, so K == K.T and M == M.T hold exactly.
    """
    if not isinstance(profile, CoefficientProfile):
        raise TypeError("assemble expects a CoefficientProfile")
    E = _integer(elements, "element count")
    if E < MIN_ELEMENTS:
        raise ValueError(f"need at least {MIN_ELEMENTS} elements, got {E}")
    h = profile.length / E
    xi, wref = _gauss_rule(4)
    N, dN, d2N = hermite_shapes(xi, h)
    left = np.linspace(0.0, profile.length, E + 1)[:-1]
    xq = left[:, None] + xi[None, :] * h
    wq = wref[None, :] * h
    sig = profile.sigma(xq) * wq
    qq = profile.q(xq) * wq
    rho = profile.rho(xq) * wq
    Ke = np.einsum("eg,gi,gj->eij", sig, d2N, d2N) + np.einsum("eg,gi,gj->eij", qq, dN, dN)
    Me = np.einsum("eg,gi,gj->eij", rho, N, N)

    ndof = 2 * (E + 1)
    kband = np.zeros((HALF_BANDWIDTH + 1, ndof), order="F")
    mband = np.zeros((HALF_BANDWIDTH + 1, ndof), order="F")
    base = 2 * np.arange(E)
    for col in range(4):
        for row in range(col, 4):
            d = row - col
            kband[d, base + col] += Ke[:, row, col]  # base + col holds no repeats
            mband[d, base + col] += Me[:, row, col]
    return DiscreteOperator(profile=profile, n_elements=E, h=h, kband=kband, mband=mband)


def boundary_trace(op, u):
    """Second derivative at the right end of the piecewise-cubic reconstruction.

    Accepts a constrained or full dof vector, or a block of them with the
    dofs on the last axis (one trace per row); converges to the true
    u''(length) at O(h^2) for smooth data (O(h^3) when u'''' vanishes at
    the end, as it does for clamped eigenfunctions of the constant
    operator).
    """
    full = op.expand(np.asarray(u))
    h = op.h
    # elementwise, so a block's traces match its rows' bit for bit under any BLAS
    return (full[..., -4] * (6.0 / h**2) + full[..., -3] * (2.0 / h)
            + full[..., -2] * (-6.0 / h**2) + full[..., -1] * (4.0 / h))
