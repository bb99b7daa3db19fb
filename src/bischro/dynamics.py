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
amplitude) when f arrives as a dense tabulation.  A tabulation must
hold SAMPLES_PER_PERIOD samples per period of the fastest retained
mode; that gate keeps every panel phase below 4 pi / SAMPLES_PER_PERIOD,
so one Taylor series gives the panel weights of all modes and one
vectorized kernel computes all their moments.

The one cached exponential Gram (:func:`gram`) lives here too; the
observability and control solves, ExponentialSum.norm and the
closed-form forward solve of a waveform on the state's own frequencies
all read it, for that solve's phase table is the Gram by definition.
Any other waveform gets its full table, uncached.  The Gram is an
inner-product Gram, Hermitian to the last bit, so only its strict upper
triangle is evaluated and the rest mirrored.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from ._blas import serial_blas
from .operator import band_matvec
from .spectrum import SpectralData


class ResamplingError(ValueError):
    """Initial data sampled too coarsely for the element grid."""


class CoarseSamplingError(ValueError):
    """Tabulated control too coarse for the fastest retained mode."""


# Minimum tabulation samples per period of the fastest mode phase.
SAMPLES_PER_PERIOD = 20
# Taylor terms of the Filon panel moments, enough below that sampling gate.
SERIES_TERMS = 24


@dataclass(frozen=True)
class ModalState:
    """Complex modal coefficients (a 1-d array) of a solution at one time instant."""

    coefficients: np.ndarray
    basis: SpectralData = field(repr=False)
    projection_residual: float | None = None

    def __post_init__(self):
        if np.ndim(self.coefficients) != 1:
            raise ValueError("coefficients must be a 1-d sequence")
        if len(self.coefficients) > self.basis.trusted_count:
            raise ValueError(
                f"{len(self.coefficients)} coefficients exceed the "
                f"{self.basis.trusted_count} trusted modes of the basis"
            )

    @property
    def frequencies(self):
        return self.basis.eigenvalues[: len(self.coefficients)]


def modal_state(sd, coefficients):
    """State with the given coefficients against the modes of ``sd``;
    non-finite coefficients are refused."""
    coefficients = np.asarray(coefficients, dtype=complex).copy()
    if not np.isfinite(coefficients).all():
        raise ValueError("coefficients must be finite")
    return ModalState(coefficients=coefficients, basis=sd)


def _check_problem(state, sd, sigma_l):
    """Refuse a state of another basis or a sigma_l other than the basis's sigma(ell)."""
    if state.basis is not sd:
        raise ValueError("state and spectral data refer to different bases")
    own = sd.sigma_at_right_end()
    if sigma_l != own:
        raise ValueError(f"sigma_l = {sigma_l} differs from sigma(ell) = {own} of the "
                         "basis; pass sd.sigma_at_right_end()")


@serial_blas
def project_initial(sd, y0, derivative=None):
    """Project initial data on the trusted modes by M-weighted inner products.

    ``y0`` may be a callable on [0, ell] (optionally with its derivative),
    a ``(xs, values)`` sample pair, or a dof vector of the underlying
    mesh.  The returned state carries the relative M-norm residual of the
    truncated reconstruction; non-finite data, and a ``derivative`` with
    data that is not callable, are refused.
    """
    if derivative is not None and not callable(y0):
        raise ValueError("derivative is accepted only with a callable y0")
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
    if not np.isfinite(dofs).all():
        raise ValueError("initial data must be finite")

    m = sd.trusted_count
    my = band_matvec(op.mband, dofs)
    coeff = (sd.modes[:, :m].T @ op.constrain(my)).astype(complex)

    _, mbc = op.constrained_bands()
    yc = op.constrain(dofs)
    recon = sd.modes[:, :m] @ coeff
    diff = yc - recon
    num = np.sqrt(abs(np.vdot(diff, band_matvec(mbc, diff)).real))
    den = np.sqrt(abs(np.vdot(yc, band_matvec(mbc, yc)).real))
    residual = float(num / den) if den > 0 else 0.0
    return ModalState(coefficients=coeff, basis=sd, projection_residual=residual)


def evolve_free(state, t):
    """Advance by a finite t under the uncontrolled flow: exact diagonal phases."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    lam = state.frequencies
    coeff = state.coefficients * np.exp(1j * lam * t)
    return ModalState(coefficients=coeff, basis=state.basis)


def sobolev_norm(state, theta):
    """Spectral-scale norm sqrt(sum lambda_n^(2 theta) |c_n|^2).

    theta = 1/2 is the clamped H^2 norm, theta = -1/2 the dual H^-2 norm,
    theta = 0 the plain rho-weighted L^2 norm.  A non-finite theta is refused.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    lam = state.frequencies
    return float(np.sqrt(np.sum(lam ** (2.0 * theta) * np.abs(state.coefficients) ** 2)))


@dataclass(frozen=True)
class ExponentialSum:
    """Finite sum f(t) = sum_k w_k exp(i omega_k t); non-finite frequencies
    or weights are refused."""

    frequencies: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frequencies", np.asarray(self.frequencies, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=complex))
        if self.frequencies.ndim != 1 or self.frequencies.shape != self.weights.shape:
            raise ValueError("frequencies and weights must be 1-d arrays of one length")
        if not (np.isfinite(self.frequencies).all() and np.isfinite(self.weights).all()):
            raise ValueError("frequencies and weights must be finite")

    @serial_blas
    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(1j * np.multiply.outer(t, self.frequencies)) @ self.weights

    def __len__(self):
        return len(self.frequencies)

    @serial_blas
    def norm(self, horizon):
        """L^2(0, horizon) norm sqrt(w^H G w) with the cached Gram G; repeats allowed."""
        T = _positive_horizon(horizon)
        if len(self) == 0:
            return 0.0
        G = _gram(self.frequencies.tobytes(), T).matrix
        # G.conj().T holds G's values in Fortran order, the order the
        # norm has always multiplied in, so its bits do not depend on
        # whether the Gram was formed here or by a solve
        return float(np.sqrt(abs(np.real(np.vdot(self.weights, G.conj().T @ self.weights)))))


def _positive_horizon(horizon):
    """The horizon as a float, refused unless positive and finite."""
    T = float(horizon)
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"horizon must be positive and finite, got {T!r}")
    return T


@dataclass(frozen=True)
class GramSystem:
    """Read-only Hermitian G[m, n] = integral_0^T exp(i (lambda_n - lambda_m) t) dt
    and its 2-norm condition; callers form any trace weighting themselves."""

    matrix: np.ndarray = field(repr=False)

    @functools.cached_property
    @serial_blas
    def condition_estimate(self):
        # run on the first read only: a norm never pays for it
        w = sla.eigvalsh(self.matrix)
        return float(w[-1] / w[0]) if w[0] > 0 else np.inf


def gram(lambdas, horizon):
    """Exponential Gram system of ``lambdas`` on (0, horizon), closed-form entries.

    Off-diagonals are (exp(i dT) - 1)/(i d); the diagonal is exactly the
    horizon.  Non-finite frequencies, duplicates (which make the family
    degenerate) and horizons that are not positive and finite are
    refused.  The most recent (lambdas, horizon), keyed by the exact
    bytes, is remembered with its condition, and ExponentialSum.norm
    reads the same entry.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or len(lam) == 0:
        raise ValueError("lambdas must be a nonempty 1-d sequence")
    if not np.isfinite(lam).all():
        raise ValueError("lambdas must be finite")
    T = _positive_horizon(horizon)
    if len(lam) > 1:
        order = np.argsort(lam, kind="stable")
        gaps = np.diff(lam[order])
        k = int(np.argmin(gaps))
        if gaps[k] <= 1e-12 * max(lam[order[-1]] - lam[order[0]], 1.0):
            i, j = sorted((int(order[k]), int(order[k + 1])))
            raise ValueError(f"duplicate frequencies at indices {i} and {j}")
    return _gram(lam.tobytes(), T)


@functools.lru_cache(maxsize=1)
def _gram(key, T):
    """Unchecked GramSystem of lam = frombuffer(key) on (0, T).  One entry
    serves consecutive calls at one (lambda, T): a moment/HUM pair, their
    norms and forward checks, an observability cell.

    Only the strict upper triangle is evaluated.  G is an inner-product
    Gram, so the lower triangle is the conjugate mirror (evaluating it
    gives the same bits) and the diagonal is exactly T.
    """
    lam = np.frombuffer(key)
    n = len(lam)
    rows, cols, upper, lower = _mirror_indices(n)
    values = phase_integral(lam[cols] - lam[rows], T)
    G = np.empty((n, n), dtype=complex)
    flat = G.reshape(-1)
    flat[upper] = values
    flat[lower] = values.conj()
    flat[:: n + 1] = T
    G.flags.writeable = False
    return GramSystem(matrix=G)


@functools.lru_cache(maxsize=8)
def _mirror_indices(n):
    """Row, column, flat index and mirrored flat index of every strict
    upper-triangle entry of an n x n array, row by row, read-only."""
    rows, cols = np.triu_indices(n, 1)
    out = (rows, cols, rows * n + cols, cols * n + rows)
    for a in out:
        a.flags.writeable = False
    return out


def phase_integral(omega, horizon):
    """integral_0^T exp(i omega t) dt, elementwise, stable near omega = 0.

    A non-finite horizon is refused; a negative one is allowed.
    """
    omega = np.asarray(omega, dtype=float)
    T = float(horizon)
    if not math.isfinite(T):
        raise ValueError(f"horizon must be finite, got {T!r}")
    z = omega * T
    small = np.abs(z) < 1e-2
    out = np.asarray((np.exp(1j * z) - 1.0) / (1j * np.where(small, 1.0, omega)))
    # series T * sum_k (i z)^k / (k+1)!, truncation below 1e-15 for |z| < 1e-2
    iz = 1j * z[small]
    out[small] = T * (1.0 + iz / 2.0 * (1.0 + iz / 3.0 * (1.0 + iz / 4.0
                      * (1.0 + iz / 5.0 * (1.0 + iz / 6.0)))))
    return out if out.shape else complex(out)


def _filon_weights(dt, omegas):
    """Panel weights (c0, c1, c2), one entry per omega, with
    integral_panel f e^{-i omega s} ds = e^{-i omega a} (c0 f0 + c1 f1 + c2 f2)
    for samples at a, a+dt, a+2dt.

    The moments integral_0^L u^j e^{-i omega u} du over a panel L = 2 dt
    are the series L^(j+1) sum_k x^k / (k! (j+k+1)) in x = -i omega L.
    evolve_controlled's sampling gate bounds |x| by 4 pi / SAMPLES_PER_PERIOD
    (0.63), where SERIES_TERMS = 24 terms truncate below 2.3e-29.
    """
    L = 2.0 * dt
    x = -1j * L * omegas
    k = np.arange(SERIES_TERMS)
    powers = np.cumprod(np.column_stack([np.ones_like(x), x[:, None] / k[1:]]), axis=1)
    j = np.arange(3)
    m0, m1, m2 = (powers @ (1.0 / (k[:, None] + j + 1)) * L ** (j + 1)).T
    c0 = (m2 - 3.0 * dt * m1 + 2.0 * dt**2 * m0) / (2.0 * dt**2)
    c1 = (2.0 * dt * m1 - m2) / dt**2
    c2 = (m2 - dt * m1) / (2.0 * dt**2)
    return c0, c1, c2


def _uniform_grid(ts, fs):
    """Checked (ts, complex fs, dt) of a uniform odd-length tabulation."""
    ts = np.asarray(ts, dtype=float)
    fs = np.asarray(fs, dtype=complex)
    if ts.ndim != 1 or ts.shape != fs.shape:
        raise ValueError("ts and fs must be equal-length 1-d arrays")
    if not np.isfinite(fs).all():
        raise ValueError("tabulation must be finite")
    if len(ts) < 3 or len(ts) % 2 == 0:
        raise ValueError("Filon-Simpson needs an odd number of samples >= 3")
    dt = ts[1] - ts[0]
    # np.allclose(diff, dt, rtol=1e-9, atol=1e-12 |dt|) in one reduction;
    # a NaN or infinite step makes the deviation NaN or inf, which refuses
    with np.errstate(invalid="ignore"):
        deviation = np.abs(np.diff(ts) - dt).max()
    if not deviation <= 1e-12 * abs(dt) + 1e-9 * abs(dt):
        raise ValueError("Filon-Simpson needs a uniform time grid")
    return ts, fs, dt


def _filon_moments(ts, fs, dt, omegas):
    """Filon-Simpson moments integral f(s) exp(-i omega s) ds of a tabulation
    already checked by _uniform_grid, for every omega of the gated range.

    The P panel anchors t0 + 2 dt p, p = q B + r with B = ceil(sqrt(P)),
    take their phases from a (modes x B) table of exp(-i omega 2 dt r) and
    a (modes x Q) table of exp(-i omega 2 dt B q).  Each strided sample
    view, zero-padded to Q B and laid out B x Q, enters one product with
    the first table, so no (modes x P) temporary is formed.
    """
    c0, c1, c2 = _filon_weights(dt, omegas)
    panels = (len(ts) - 1) // 2
    block = math.isqrt(panels - 1) + 1
    rows = (panels - 1) // block + 1
    step = omegas * (2.0 * (ts[-1] - ts[0]) / (len(ts) - 1))
    fine = np.exp(-1j * np.multiply.outer(step, np.arange(block)))
    coarse = np.exp(-1j * np.multiply.outer(step, block * np.arange(rows)))
    padded = np.zeros(rows * block, dtype=complex)

    def panel_sum(view):
        padded[:panels] = view
        return np.sum(coarse * (fine @ padded.reshape(rows, block).T), axis=1)

    total = c0 * panel_sum(fs[0:-2:2]) + c1 * panel_sum(fs[1:-1:2]) + c2 * panel_sum(fs[2::2])
    return np.exp(-1j * omegas * ts[0]) * total


@serial_blas
def evolve_controlled(state0, sd, sigma_l, f, horizon):
    """Forward solve of the boundary-controlled system over [0, horizon].

    A sigma_l other than ``sd.sigma_at_right_end()`` or a state of another
    basis is refused.  ``f`` is an :class:`ExponentialSum` (moments
    integrate in closed form; on the state's own frequencies the phase
    table is the cached Gram) or a ``(ts, fs)`` tabulation on a uniform
    grid covering [0, horizon] (Filon-Simpson moments).  A non-finite
    tabulation, or one with fewer than SAMPLES_PER_PERIOD points per period
    of the fastest retained mode, is refused rather than silently dephased.
    """
    _check_problem(state0, sd, sigma_l)
    horizon = _positive_horizon(horizon)
    lam = state0.frequencies
    traces = sd.traces[: len(lam)]

    if isinstance(f, ExponentialSum):
        if len(f) == 0:
            return evolve_free(state0, horizon)
        key = lam.tobytes()
        if f.frequencies.tobytes() == key:
            # P[n, k] = integral_0^T exp(i (lambda_k - lambda_n) s) ds is the Gram
            phases = _gram(key, horizon).matrix
        else:
            phases = phase_integral(-np.subtract.outer(lam, f.frequencies), horizon)
        moments = np.sum(phases * f.weights, axis=1)
    else:
        ts, fs, dt = _uniform_grid(*f)
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
        moments = _filon_moments(ts, fs, dt, lam)

    coeff = np.exp(1j * lam * horizon) * (
        state0.coefficients + 1j * sigma_l * traces * moments
    )
    return ModalState(coefficients=coeff, basis=sd)
