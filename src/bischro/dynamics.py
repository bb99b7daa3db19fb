"""Modal solution representation: projection, free and controlled evolution.

Solutions are carried as truncated coefficient sequences against the
computed M-orthonormal modes, so free evolution is the exact diagonal
phase map c_n -> exp(i lambda_n t) c_n and no time stepping exists
anywhere.  The boundary-controlled solve reduces per mode to

    a_n(T) = exp(i lambda_n T) ( a_n(0)
             + i sigma(ell) t_n  integral_0^T exp(-i lambda_n s) f(s) ds ),

with t_n the right-end curvature trace of mode n.  The oscillatory
moment integral is closed-form when f is a finite exponential sum and
Filon-Simpson quadrature (exact phase factor, piecewise-quadratic
amplitude) when f arrives as a dense tabulation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._blas import serial_blas
from .operator import band_matvec
from .spectrum import SpectralData


class ResamplingError(ValueError):
    """Initial data sampled too coarsely for the element grid."""


class CoarseSamplingError(ValueError):
    """Tabulated control too coarse for the fastest retained mode."""


# Minimum tabulation samples per period of the fastest mode phase.
SAMPLES_PER_PERIOD = 20


@dataclass(frozen=True)
class ModalState:
    """Complex modal coefficients of a solution at one time instant."""

    coefficients: np.ndarray
    time: float
    basis: SpectralData = field(repr=False)
    projection_residual: float | None = None

    def __post_init__(self):
        if len(self.coefficients) > self.basis.trusted_count:
            raise ValueError(
                f"{len(self.coefficients)} coefficients exceed the "
                f"{self.basis.trusted_count} trusted modes of the basis"
            )

    @property
    def frequencies(self):
        return self.basis.eigenvalues[: len(self.coefficients)]


def modal_state(sd, coefficients, projection_residual=None):
    """State at time 0 with the given coefficients against the modes of ``sd``."""
    coeff = np.asarray(coefficients, dtype=complex).copy()
    return ModalState(coefficients=coeff, time=0.0, basis=sd,
                      projection_residual=projection_residual)


def _check_basis(state, sd):
    if state.basis is not sd:
        raise ValueError("state and spectral data refer to different bases")


@serial_blas
def project_initial(sd, y0, derivative=None):
    """Project initial data on the trusted modes by M-weighted inner products.

    ``y0`` may be a callable on [0, ell] (optionally with its derivative),
    a ``(xs, values)`` sample pair, or a dof vector of the underlying
    mesh.  The returned state carries the relative M-norm residual of the
    truncated reconstruction.
    """
    op = sd.op
    if callable(y0):
        dofs = op.interpolate(y0, derivative)
    elif isinstance(y0, tuple) and len(y0) == 2:
        xs = np.asarray(y0[0], dtype=float)
        vals = np.asarray(y0[1])
        if xs.ndim != 1 or xs.shape != vals.shape:
            raise ResamplingError("samples must be two equal-length 1-d arrays")
        if xs[0] > 1e-9 * op.profile.length or xs[-1] < op.profile.length * (1 - 1e-9):
            raise ResamplingError("samples must cover the whole interval [0, ell]")
        dx = np.diff(xs)
        if np.any(dx <= 0):
            raise ResamplingError("sample abscissae must be strictly increasing")
        if dx.max() > op.h * (1 + 1e-9):
            need = int(np.ceil(op.profile.length / op.h)) + 1
            raise ResamplingError(
                f"sample spacing {dx.max():.3g} is coarser than the mesh "
                f"width {op.h:.3g}; provide at least {need} samples"
            )
        from scipy.interpolate import CubicSpline
        spl = CubicSpline(xs, vals)
        dofs = op.interpolate(spl, lambda x: spl(x, 1))
    else:
        dofs = op.expand(np.asarray(y0))

    m = sd.trusted_count
    my = band_matvec(op.mband, dofs)
    coeff = sd.modes[:, :m].T @ op.constrain(my)
    coeff = np.asarray(coeff, dtype=complex)

    _, mbc = op.constrained_bands()
    yc = op.constrain(dofs)
    recon = sd.modes[:, :m] @ coeff
    diff = yc - recon
    num = np.sqrt(abs(np.vdot(diff, band_matvec(mbc, diff)).real))
    den = np.sqrt(abs(np.vdot(yc, band_matvec(mbc, yc)).real))
    residual = float(num / den) if den > 0 else 0.0
    return modal_state(sd, coeff, projection_residual=residual)


def evolve_free(state, t):
    """Advance by t under the uncontrolled flow: exact diagonal phases."""
    lam = state.frequencies
    coeff = state.coefficients * np.exp(1j * lam * t)
    return ModalState(coefficients=coeff, time=state.time + t, basis=state.basis)


def sobolev_norm(state, theta):
    """Spectral-scale norm sqrt(sum lambda_n^(2 theta) |c_n|^2).

    theta = 1/2 is the clamped H^2 norm, theta = -1/2 the dual H^-2 norm,
    theta = 0 the plain rho-weighted L^2 norm.
    """
    lam = state.frequencies
    return float(np.sqrt(np.sum(lam ** (2.0 * theta) * np.abs(state.coefficients) ** 2)))


@dataclass(frozen=True)
class ExponentialSum:
    """Finite sum f(t) = sum_k w_k exp(i omega_k t)."""

    frequencies: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frequencies", np.asarray(self.frequencies, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=complex))
        if self.frequencies.shape != self.weights.shape:
            raise ValueError("frequencies and weights must have matching shapes")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(1j * np.multiply.outer(t, self.frequencies)) @ self.weights

    def __len__(self):
        return len(self.frequencies)

    def norm(self, horizon):
        """L^2(0, horizon) norm sqrt(w^H G w) with the cached exponential Gram G."""
        T = _positive_horizon(horizon)
        if len(self) == 0:
            return 0.0
        G = _phase_gram(self.frequencies.tobytes(), T)
        # G.conj().T holds G's values in Fortran order, the order the
        # norm has always multiplied in, so its bits do not depend on
        # whether the Gram was formed here or by observability.gram
        return float(np.sqrt(abs(np.real(np.vdot(self.weights, G.conj().T @ self.weights)))))


def _positive_horizon(horizon):
    """The horizon as a float, refused unless positive and finite."""
    T = float(horizon)
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"horizon must be positive and finite, got {T!r}")
    return T


@functools.lru_cache(maxsize=1)
def _phase_gram(key, T):
    """Read-only Hermitian Gram of exp(i lam t) on (0, T), lam = frombuffer(key).

    G[m, n] = integral_0^T exp(i (lam_n - lam_m) t) dt; the diagonal is
    exactly T.  One entry serves the real traffic, consecutive calls at
    one (lambda, T): a moment/HUM pair, their norms and agreement norm,
    an observability cell.  Frequencies are not checked for duplicates;
    observability.gram refuses those before asking for a solve.
    """
    lam = np.frombuffer(key)
    delta = np.subtract.outer(lam, lam)      # delta[m, n] = lam_m - lam_n
    G = np.asarray(phase_integral(-delta, T))
    np.fill_diagonal(G, T)
    G = 0.5 * (G + G.conj().T)               # Hermitian to the last bit
    G.flags.writeable = False
    return G


def phase_integral(omega, horizon):
    """integral_0^T exp(i omega t) dt, elementwise, stable near omega = 0."""
    omega = np.asarray(omega, dtype=float)
    T = float(horizon)
    z = omega * T
    small = np.abs(z) < 1e-2
    out = np.asarray((np.exp(1j * z) - 1.0) / (1j * np.where(small, 1.0, omega)))
    # series T * sum_k (i z)^k / (k+1)!, truncation below 1e-15 for |z| < 1e-2
    iz = 1j * z[small]
    out[small] = T * (1.0 + iz / 2.0 * (1.0 + iz / 3.0 * (1.0 + iz / 4.0
                      * (1.0 + iz / 5.0 * (1.0 + iz / 6.0)))))
    return out if out.shape else complex(out)


def _filon_weights(dt, omega):
    """Panel weights (c0, c1, c2) with integral_panel f e^{-i omega s} ds
    = e^{-i omega a} (c0 f0 + c1 f1 + c2 f2) for samples at a, a+dt, a+2dt."""
    L = 2.0 * dt
    z = 1j * omega
    if abs(omega) * L < 0.5:
        # series for the moments integral u^j e^{-z u} du over [0, L]
        m = np.zeros(3, dtype=complex)
        for j in range(3):
            term = L ** (j + 1) / (j + 1)
            total = term
            fac = 1.0
            for k in range(1, 24):
                fac *= k
                term_k = (-z * L) ** k / fac * L ** (j + 1) / (j + k + 1)
                total += term_k
            m[j] = total
    else:
        e = np.exp(-z * L)
        m0 = (1.0 - e) / z
        m1 = (1.0 - e * (1.0 + z * L)) / z**2
        m2 = (2.0 - e * (2.0 + 2.0 * z * L + (z * L) ** 2)) / z**3
        m = np.array([m0, m1, m2])
    c0 = (m[2] - 3.0 * dt * m[1] + 2.0 * dt**2 * m[0]) / (2.0 * dt**2)
    c1 = (2.0 * dt * m[1] - m[2]) / dt**2
    c2 = (m[2] - dt * m[1]) / (2.0 * dt**2)
    return c0, c1, c2


def _uniform_grid(ts, fs):
    """Checked (ts, complex fs, dt) of a uniform odd-length tabulation."""
    ts = np.asarray(ts, dtype=float)
    fs = np.asarray(fs, dtype=complex)
    if ts.ndim != 1 or ts.shape != fs.shape:
        raise ValueError("ts and fs must be equal-length 1-d arrays")
    if len(ts) < 3 or len(ts) % 2 == 0:
        raise ValueError("Filon-Simpson needs an odd number of samples >= 3")
    dt = ts[1] - ts[0]
    if not np.allclose(np.diff(ts), dt, rtol=1e-9, atol=1e-12 * abs(dt)):
        raise ValueError("Filon-Simpson needs a uniform time grid")
    return ts, fs, dt


def _filon_sum(ts, fs, dt, omega):
    """Filon-Simpson moment of a tabulation already checked by _uniform_grid.

    The P panel anchors t0 + 2 dt j, j = q B + r with B = ceil(sqrt(P)),
    take their phases from the outer product of exp(-i omega 2 dt B q)
    and exp(-i omega 2 dt r): 2 sqrt(P) complex exponentials per mode
    instead of P, and no (modes x P) temporary.
    """
    c0, c1, c2 = _filon_weights(dt, omega)
    panels = (len(ts) - 1) // 2
    block = math.isqrt(panels - 1) + 1
    step = omega * (2.0 * (ts[-1] - ts[0]) / (len(ts) - 1))
    fine = np.exp(-1j * (step * np.arange(block)))
    coarse = np.exp(-1j * (step * (block * np.arange((panels - 1) // block + 1))))
    phase = np.outer(coarse, fine).ravel()[:panels]
    total = c0 * (phase @ fs[0:-2:2]) + c1 * (phase @ fs[1:-1:2]) + c2 * (phase @ fs[2::2])
    return complex(np.exp(-1j * omega * ts[0]) * total)


@serial_blas
def filon_moment(ts, fs, omega):
    """integral f(s) exp(-i omega s) ds over a uniform odd-length tabulation."""
    return _filon_sum(*_uniform_grid(ts, fs), omega)


@serial_blas
def evolve_controlled(state0, sd, sigma_l, f, horizon):
    """Forward solve of the boundary-controlled system over [0, horizon].

    ``f`` is an :class:`ExponentialSum` (moments integrate in closed form)
    or a ``(ts, fs)`` tabulation on a uniform grid covering [0, horizon]
    (Filon-Simpson moments).  A tabulation with fewer than
    SAMPLES_PER_PERIOD points per period of the fastest retained mode is
    refused outright rather than silently dephased.
    """
    _check_basis(state0, sd)
    horizon = _positive_horizon(horizon)
    lam = state0.frequencies
    traces = sd.traces[: len(lam)]

    if isinstance(f, ExponentialSum):
        if len(f) == 0:
            return evolve_free(state0, horizon)
        # row n: integral_0^T exp(i (omega_k - lambda_n) s) ds, weighted by w_k
        phases = phase_integral(-np.subtract.outer(lam, f.frequencies), horizon)
        moments = np.sum(phases * f.weights, axis=1)
    else:
        ts, fs = f
        ts = np.asarray(ts, dtype=float)
        if abs(ts[0]) > 1e-12 * horizon or abs(ts[-1] - horizon) > 1e-9 * horizon:
            raise ValueError("tabulation must cover exactly [0, horizon]")
        lam_max = float(lam.max()) if len(lam) else 0.0
        required = int(np.ceil(SAMPLES_PER_PERIOD * lam_max * horizon / (2 * np.pi))) + 1
        if required % 2 == 0:
            required += 1
        if len(ts) < required:
            raise CoarseSamplingError(
                f"{len(ts)} samples resolve the fastest mode below "
                f"{SAMPLES_PER_PERIOD} per period; provide at least {required}"
            )
        ts, fs, dt = _uniform_grid(ts, fs)
        moments = np.array([_filon_sum(ts, fs, dt, lam_n) for lam_n in lam])

    coeff = np.exp(1j * lam * horizon) * (
        state0.coefficients + 1j * sigma_l * traces * moments
    )
    return ModalState(coefficients=coeff, time=state0.time + horizon, basis=sd)
