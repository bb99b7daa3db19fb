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
Any other waveform gets its full table, uncached.  The Gram is the
same full table, formed once and kept read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from ._blas import serial_blas
from .coefficients import _real
from .operator import band_matvec
from .spectrum import SpectralData

_heevr, _heevr_lwork = sla.get_lapack_funcs(("heevr", "heevr_lwork"), dtype=complex)


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
    """Complex modal coefficients of a solution at one time instant.

    The state keeps its own complex 1-d copy of ``coefficients``; a count
    outside [1, ``basis.trusted_count``] and non-finite coefficients are
    refused.
    """

    coefficients: np.ndarray
    basis: SpectralData = field(repr=False)
    projection_residual: float | None = None

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=complex)
        if c.ndim != 1:
            raise ValueError("coefficients must be a 1-d sequence")
        self.basis.mode_count(len(c))
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", c)

    @property
    def frequencies(self):
        return self.basis.eigenvalues[: len(self.coefficients)]


def modal_state(sd, coefficients):
    """State with the given coefficients against the modes of ``sd``,
    checked by ModalState."""
    return ModalState(coefficients=coefficients, basis=sd)


def _check_problem(state, sd, sigma_l):
    """Refuse a state of another basis or a sigma_l other than the number
    sigma(ell) of the basis."""
    if state.basis is not sd:
        raise ValueError("state and spectral data refer to different bases")
    own = sd.sigma_at_right_end()
    if not (_real(sigma_l) and sigma_l == own):
        raise ValueError(f"sigma_l = {sigma_l!r} differs from sigma(ell) = {own} of the "
                         "basis; pass sd.sigma_at_right_end()")


@serial_blas
def project_initial(sd, y0, derivative=None):
    """Project initial data on the trusted modes by M-weighted inner products.

    ``y0`` may be a callable on [0, ell] (optionally with its derivative),
    a ``(xs, values)`` sample pair, or a dof vector of the underlying
    mesh, else a ValueError.  The returned state carries the relative
    M-norm residual of the truncated reconstruction; non-finite data, and
    a ``derivative`` with data that is not callable, are refused.
    """
    if derivative is not None and not callable(y0):
        raise ValueError("derivative is accepted only with a callable y0")
    op = sd.op
    if callable(y0):
        dofs = op.interpolate(y0, derivative)
    elif isinstance(y0, tuple) and len(y0) == 2:
        xs, vals = np.asarray(y0[0], dtype=float), np.asarray(y0[1])
        if xs.ndim != 1 or xs.shape != vals.shape or len(xs) < 2 or vals.dtype.kind not in "iufc":
            raise ResamplingError("samples must be two equal-length 1-d numeric arrays "
                                  "of at least two points")
        if not (np.isfinite(xs).all() and np.isfinite(vals).all()):
            raise ValueError("initial data must be finite")
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
        y = np.asarray(y0)
        if y.ndim != 1 or y.dtype.kind not in "iufc":
            raise ValueError("y0 must be a callable on [0, ell], an (xs, values) tuple of samples "
                             f"or a 1-d numeric dof vector, got {y.dtype} of shape {y.shape}")
        dofs = op.expand(y)
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
    """Advance by t, a finite number, under the uncontrolled flow: exact diagonal phases."""
    if not _real(t):
        raise ValueError(f"time must be a finite number, got {t!r}")
    lam = state.frequencies
    coeff = state.coefficients * np.exp(1j * lam * t)
    return ModalState(coefficients=coeff, basis=state.basis)


def sobolev_norm(state, theta):
    """Spectral-scale norm sqrt(sum lambda_n^(2 theta) |c_n|^2).

    theta = 1/2 is the clamped H^2 norm, theta = -1/2 the dual H^-2 norm,
    theta = 0 the plain rho-weighted L^2 norm; theta must be a finite number.
    """
    if not _real(theta):
        raise ValueError(f"theta must be a finite number, got {theta!r}")
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
        # norm has always multiplied in; the solves read the same table
        return float(np.sqrt(abs(np.real(np.vdot(self.weights, G.conj().T @ self.weights)))))


def _positive_horizon(horizon):
    """The horizon as a float, refused unless a positive finite number."""
    if not (_real(horizon) and horizon > 0):
        raise ValueError(f"horizon must be a positive finite number, got {horizon!r}")
    return float(horizon)


@dataclass(frozen=True)
class GramSystem:
    """Read-only Hermitian G[m, n] = integral_0^T exp(i (lambda_n - lambda_m) t) dt
    and its 2-norm condition; callers form any trace weighting themselves."""

    matrix: np.ndarray = field(repr=False)

    @functools.cached_property
    @serial_blas
    def condition_estimate(self):
        # run on the first read only: a norm never pays for it
        w = _eigvalsh(self.matrix)
        return float(w[-1] / w[0]) if w[0] > 0 else np.inf


def _lapack_info(kernel, info):
    """Refuse a nonzero LAPACK ``info`` with a LinAlgError naming the kernel."""
    if info != 0:
        raise np.linalg.LinAlgError(f"{kernel} failed (info {info})")


def _eigvalsh(a):
    """Ascending eigenvalues of the Hermitian ``a``, read from its lower
    triangle: ``sla.eigvalsh(a)``'s own zheevr call, bit for bit."""
    lwork, lrwork, liwork, _ = _heevr_lwork(len(a), lower=1)
    w, _, _, _, info = _heevr(a, compute_v=0, lower=1, lwork=int(lwork.real),
                              lrwork=int(lrwork), liwork=int(liwork))
    _lapack_info("zheevr", info)
    return w


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

    G is the full phase table, the expression a foreign waveform's
    forward solve uses.  phase_integral is conjugate-symmetric in omega
    and exactly T at omega = 0, so G is Hermitian with diagonal T.
    """
    lam = np.frombuffer(key)
    G = phase_integral(-np.subtract.outer(lam, lam), T)
    G.flags.writeable = False
    return GramSystem(matrix=G)


def phase_integral(omega, horizon):
    """integral_0^T exp(i omega t) dt, elementwise, stable near omega = 0.

    A horizon that is not a finite number is refused; a negative one is allowed.
    """
    if not _real(horizon):
        raise ValueError(f"horizon must be a finite number, got {horizon!r}")
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
    # np.allclose(diff, dt, rtol=1e-9, atol=1e-12 |dt|) as max |fl(d - dt)|,
    # taken at the extreme steps since fl(d - dt) is monotone in d; a NaN or
    # infinite step makes the deviation NaN or inf, which refuses, and
    # np.maximum, unlike max, keeps a NaN
    with np.errstate(invalid="ignore"):
        d = np.diff(ts)
        deviation = np.maximum(d.max() - dt, dt - d.min())
    if not deviation <= 1e-12 * abs(dt) + 1e-9 * abs(dt):
        raise ValueError("Filon-Simpson needs a uniform time grid")
    return ts, fs, dt


def _filon_moments(ts, fs, dt, omegas):
    """Filon-Simpson moments integral f(s) exp(-i omega s) ds of a tabulation
    already checked by _uniform_grid, for every omega of the gated range.

    The P panel anchors t0 + 2 dt p, p = q B + r with B = ceil(sqrt(P)),
    take their phases phi_p = exp(-i omega 2 dt p) from a (modes x B) table
    of exp(-i omega 2 dt r) and a (modes x Q) table of exp(-i omega 2 dt B q).
    The first and the middle sample of each panel, f_2p and f_2p+1, each
    give one panel sum: a strided view, zero-padded to Q B and laid out
    B x Q, enters one product with the first table, so no (modes x P)
    temporary is formed.  The third sample needs no sum of its own: with
    S the sum of the first samples,
    sum_p phi_p f_2p+2 = exp(i omega 2 dt) (S - f_0 + phi_P f_2P).
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

    first = panel_sum(fs[0:-2:2])
    third = np.exp(1j * step) * (first - fs[0] + np.exp(-1j * step * panels) * fs[-1])
    total = c0 * first + c1 * panel_sum(fs[1:-1:2]) + c2 * third
    return np.exp(-1j * omegas * ts[0]) * total


@serial_blas
def evolve_controlled(state0, sd, sigma_l, f, horizon):
    """Forward solve of the boundary-controlled system over [0, horizon].

    A sigma_l other than ``sd.sigma_at_right_end()`` or a state of another
    basis is refused.  ``f`` is an :class:`ExponentialSum` (moments
    integrate in closed form; on the state's own frequencies the phase
    table is the cached Gram) or a ``(ts, fs)`` tabulation on a uniform
    grid covering [0, horizon] (Filon-Simpson moments), else a TypeError.
    A non-finite tabulation, or one with fewer than SAMPLES_PER_PERIOD points
    per period of the fastest retained mode, is refused, not dephased.
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
    elif isinstance(f, tuple) and len(f) == 2:
        ts, fs, dt = _uniform_grid(*f)
        if abs(ts[0]) > 1e-12 * horizon or abs(ts[-1] - horizon) > 1e-9 * horizon:
            raise ValueError("tabulation must cover exactly [0, horizon]")
        required = int(np.ceil(SAMPLES_PER_PERIOD * lam.max() * horizon / (2 * np.pi))) + 1
        if required % 2 == 0:
            required += 1
        if len(ts) < required:
            raise CoarseSamplingError(
                f"{len(ts)} samples resolve the fastest mode below "
                f"{SAMPLES_PER_PERIOD} per period; provide at least {required}"
            )
        moments = _filon_moments(ts, fs, dt, lam)
    else:
        raise TypeError("f must be an ExponentialSum or a (ts, fs) tabulation, "
                        f"got {type(f).__name__}")

    coeff = np.exp(1j * lam * horizon) * (
        state0.coefficients + 1j * sigma_l * traces * moments
    )
    return ModalState(coefficients=coeff, basis=sd)
