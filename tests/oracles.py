"""Independent oracles used to pin expected values.

Everything here avoids the package's own code paths: root finding is
plain interval bisection on stdlib math functions, oscillatory-energy
integrals use composite Gauss-Legendre panels sized to the fastest
frequency, the controlled modal system is integrated by an adaptive
high-order Runge-Kutta method, variable-coefficient spectra come
from a Legendre-Galerkin discretization, and controls are judged on
the exact clamped beam by its closed-form modal evolution.  The two
exceptions, :func:`wrapper_post_eigh` and :func:`wrapper_gram_solves`,
repeat the eigensolve's and the Gram solves' own arithmetic through
scipy's wrappers, to pin their bits.
"""

import math

import numpy as np
import scipy.linalg as sla
from numpy.polynomial import legendre
from scipy.integrate import solve_ivp
from scipy.linalg import blas

# First eight positive roots of cos(x) cosh(x) = 1, frozen from a
# 40-digit bisection; the k-th root sits within 0.5 of (k + 1/2) pi.
CLAMPED_ROOTS = (
    4.730040744862704,
    7.853204624095838,
    10.995607838001671,
    14.137165491257464,
    17.27875965739948,
    20.42035224562606,
    23.561944902040455,
    26.703537555508188,
)


def beam_roots(count, gamma=1.0):
    """Bisection roots of cos(mu gamma) cosh(mu gamma) = 1, stdlib math only."""
    roots = []
    for k in range(1, count + 1):
        z = (k + 0.5) * math.pi
        a, b = z - 0.5, z + 0.5

        def f(x):
            return math.cos(x) - 1.0 / math.cosh(x)

        fa = f(a)
        assert fa * f(b) < 0, "oracle bracket failed"
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = f(m)
            if fm == 0.0:
                a = b = m
                break
            if fa * fm < 0:
                b = m
            else:
                a, fa = m, fm
        roots.append(0.5 * (a + b) / gamma)
    return np.array(roots)


def modal_residual(lambdas, tau, b0, control, horizon):
    """Relative H^-2 norm, sqrt(sum |b_n|^2 / lambda_n) at the horizon over
    the same at 0, of modes with eigenvalues ``lambdas`` and actuation
    coefficients ``tau`` (sigma(ell) times the curvature trace) started
    at ``b0`` and driven by the exponential-sum ``control``:

        b_n(T) = e^{i lambda_n T} (b_n(0) + i tau_n sum_k beta_k
                 integral_0^T e^{i (omega_k - lambda_n) s} ds).

    The (modes x control terms) phase table is T e^{iz/2} sinc(z/2),
    z = (omega_k - lambda_n) T, which needs no small-z branch.
    """
    z = np.subtract.outer(lambdas, control.frequencies) * -horizon
    table = horizon * np.exp(0.5j * z) * np.sinc(z / (2 * np.pi))
    b = np.exp(1j * lambdas * horizon) * (b0 + 1j * tau * (table @ control.beta))
    return float(np.sqrt(np.sum(np.abs(b) ** 2 / lambdas) / np.sum(np.abs(b0) ** 2 / lambdas)))


def exact_beam_residual(state, control, horizon, modes=400, bisected=60):
    """H^-2 residual a control leaves on the exact clamped unit beam.

    ``state`` holds the coefficients of the first modes of the beam
    rho = sigma = 1, q = 0 on [0, 1] and ``control`` its exponential sum
    (``frequencies``, ``beta``).  The beam's modes have eigenvalues mu^4
    and right-end curvature traces 2 mu^2, mu from :func:`beam_roots` for
    the first ``bisected`` and (n + 1/2) pi above, where cos mu = sech mu
    holds to e^{-mu} < 1e-80.  The residual is taken over ``modes`` modes.
    """
    n = np.arange(bisected + 1, modes + 1)
    mu = np.concatenate([beam_roots(bisected), (n + 0.5) * math.pi])
    b0 = np.zeros(modes, dtype=complex)
    b0[: len(state.coefficients)] = state.coefficients
    return modal_residual(mu**4, 2 * mu**2, b0, control, horizon)


def exponential_energy(lambdas, coeffs, horizon, points_per_period=24):
    """integral_0^T |sum c_n exp(i lambda_n t)|^2 dt by panelled Gauss quadrature.

    Panels are sized so the fastest phase advances less than one period
    per panel; a 12-point rule per panel then integrates the oscillation
    essentially to machine precision.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    coeffs = np.asarray(coeffs, dtype=complex)
    fastest = max(np.abs(lambdas).max(), 1.0)
    periods = fastest * horizon / (2 * math.pi)
    panels = max(8, int(math.ceil(periods * points_per_period / 12.0)))
    gx, gw = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(0.0, horizon, panels + 1)
    h = edges[1] - edges[0]
    ts = (edges[:-1, None] + (gx[None, :] + 1) * h / 2).ravel()
    ws = np.tile(gw * h / 2, panels)
    vals = np.exp(1j * np.outer(ts, lambdas)) @ coeffs
    return float(np.sum(ws * np.abs(vals) ** 2))


def rk_controlled(a0, lambdas, traces, sigma_l, f, horizon, rtol=1e-12):
    """Adaptive RK integration of a_n' = i lambda_n a_n + i sigma t_n f(t)."""
    a0 = np.asarray(a0, dtype=complex)
    lambdas = np.asarray(lambdas, dtype=float)
    traces = np.asarray(traces, dtype=float)
    n = len(a0)

    def rhs(t, y):
        a = y[:n] + 1j * y[n:]
        da = 1j * lambdas * a + 1j * sigma_l * traces * f(t)
        return np.concatenate([da.real, da.imag])

    y0 = np.concatenate([a0.real, a0.imag])
    sol = solve_ivp(rhs, (0.0, horizon), y0, method="DOP853",
                    rtol=rtol, atol=1e-14, dense_output=False)
    assert sol.success
    y = sol.y[:, -1]
    return y[:n] + 1j * y[n:]


def gauss_integral(f, a, b, panels=64, order=12):
    """Composite Gauss-Legendre quadrature of a scalar callable."""
    gx, gw = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    h = edges[1] - edges[0]
    ts = (edges[:-1, None] + (gx[None, :] + 1) * h / 2).ravel()
    ws = np.tile(gw * h / 2, panels)
    return np.sum(ws * f(ts))


def _shen_clamped(size, d, xi):
    """d-th derivative on [-1, 1] of Shen's clamped basis at the points xi.

    phi_k = L_k - 2(2k+5)/(2k+7) L_{k+2} + (2k+3)/(2k+7) L_{k+4}
    vanishes with its first derivative at both ends (Shen 1994); column k
    of the result holds phi_k^(d)(xi).
    """
    out = np.empty((len(xi), size))
    for k in range(size):
        c = np.zeros(k + 5)
        c[k], c[k + 2], c[k + 4] = 1.0, -2 * (2 * k + 5) / (2 * k + 7), (2 * k + 3) / (2 * k + 7)
        out[:, k] = legendre.legval(xi, legendre.legder(c, d))
    return out


def galerkin_clamped_spectrum(rho, sigma, q, length, count, size=48, points=200, sweeps=3):
    """Lowest ``count`` eigenvalues and right-end traces of the clamped pencil.

    Discretizes integral sigma u'' v'' + q u' v' = lambda integral rho u v
    on [0, length] in Shen's clamped Legendre basis of ``size`` functions,
    with a ``points``-point Gauss rule (exact for polynomial rho, sigma
    and q of modest degree), solves the dense pencil with ``eigh`` and
    polishes each pair by ``sweeps`` shifted inverse iterations with a
    Rayleigh-quotient update.  The traces are u''(length) of the
    rho-weighted unit modes, signed positive.  ``rho``, ``sigma`` and
    ``q`` are vectorized callables on [0, length].
    """
    xi, w = legendre.leggauss(points)
    x = (xi + 1.0) * length / 2.0
    scale = 2.0 / length                    # d/dx = scale d/dxi
    jac = w * length / 2.0
    b0, b1, b2 = (_shen_clamped(size, d, xi) * scale**d for d in range(3))
    K = b2.T @ ((jac * sigma(x))[:, None] * b2) + b1.T @ ((jac * q(x))[:, None] * b1)
    M = b0.T @ ((jac * rho(x))[:, None] * b0)
    end = _shen_clamped(size, 2, np.array([1.0]))[0] * scale**2
    lam, vecs = sla.eigh(K, M)
    lambdas, traces = [], []
    for n in range(count):
        lam_n, v = lam[n], vecs[:, n]
        for _ in range(sweeps):
            z = sla.lu_solve(sla.lu_factor(K - lam_n * M), M @ v)
            v = z / math.sqrt(z @ M @ z)
            lam_n = v @ K @ v
        lambdas.append(lam_n)
        traces.append(abs(end @ v))
    return np.array(lambdas), np.array(traces)


def _sym_band_matvec(band, x):
    """Symmetric lower band times vector through scipy's dsbmv wrapper."""
    return blas.dsbmv(band.shape[0] - 1, 1.0, band, np.ascontiguousarray(x, dtype=float),
                      lower=1)


def symmetrize(lower):
    """The full symmetric matrix whose lower triangle ``lower`` holds; nothing
    above the diagonal of ``lower`` is read."""
    return np.tril(lower) + np.tril(lower, -1).T


def _lu_band(band):
    """Symmetric lower band to the (2k+1, n) form scipy's solve_banded takes."""
    k = band.shape[0] - 1
    n = band.shape[1]
    ab = np.zeros((2 * k + 1, n))
    ab[k] = band[0]
    for i in range(1, k + 1):
        ab[k + i, : n - i] = band[i, : n - i]
        ab[k - i, i:] = band[i, : n - i]
    return ab


def wrapper_post_eigh(op, w, v, lb, sweeps=2, power_iterations=50):
    """The clamped eigensolve after its dense ``eigh``, through scipy's wrappers.

    Given the dense pairs ``(w, v)`` of the constrained pencil of ``op``
    and the lower band ``lb`` of its mass matrix's Cholesky factor,
    polishes each pair by ``sweeps`` shifted inverse iterations
    (``solve_banded``) with a Rayleigh-quotient update, sorts,
    M-orthonormalizes against the measured mode Gram, signs each mode by
    its right-end curvature and measures its residual in the M^{-1} norm
    (``cho_solve_banded`` on ``lb``).  Returns ``(eigenvalues, modes,
    traces, residuals, lambda_max)``, the last a power-iteration estimate
    of the largest eigenvalue.  This is the wrapper-based loop the
    package's direct kernel calls must reproduce bit for bit.
    """
    kb, mb = op.constrained_bands()
    k = kb.shape[0] - 1
    count = len(w)
    lams = np.empty(count)
    vecs = np.empty_like(v)
    for i in range(count):
        lam, vec = w[i], v[:, i]
        for _ in range(sweeps):
            z = sla.solve_banded((k, k), _lu_band(kb - lam * mb), _sym_band_matvec(mb, vec))
            vec = z / np.sqrt(z @ _sym_band_matvec(mb, z))
            lam = vec @ _sym_band_matvec(kb, vec)
        lams[i] = lam
        vecs[:, i] = vec
    order = np.argsort(lams, kind="stable")
    lams = lams[order]
    vecs = vecs[:, order]
    mv = np.column_stack([_sym_band_matvec(mb, vecs[:, j]) for j in range(count)])
    chol = sla.cholesky(vecs.T @ mv, lower=False)
    vecs = sla.solve_triangular(chol.T, vecs.T, lower=True).T

    x = np.ones(kb.shape[1])
    x[::2] = -1.0
    x /= np.linalg.norm(x)
    for _ in range(power_iterations):
        x = sla.cho_solve_banded((lb, True), _sym_band_matvec(kb, x))
        x /= np.linalg.norm(x)
    lam_max = x @ _sym_band_matvec(kb, x) / (x @ _sym_band_matvec(mb, x))

    h = op.h
    curvature = np.array([6.0 / h**2, 2.0 / h, -6.0 / h**2, 4.0 / h])
    traces = np.empty(count)
    residuals = np.empty(count)
    for i in range(count):
        t = op.expand(vecs[:, i])[-4:] @ curvature
        if t < 0:
            vecs[:, i] = -vecs[:, i]
            t = -t
        traces[i] = t
        r = _sym_band_matvec(kb, vecs[:, i]) - lams[i] * _sym_band_matvec(mb, vecs[:, i])
        residuals[i] = np.sqrt(abs(r @ sla.cho_solve_banded((lb, True), r)))
    return lams, vecs, traces, residuals, lam_max


def wrapper_gram_solves(G, lambdas, traces, sigma_l, moments, coefficients):
    """The control and observability solves on the Gram ``G``, through scipy's wrappers.

    Returns the moment route's weights (``sla.solve(assume_a="her")`` of
    G beta = m for the ``moments``), the HUM route's weights c t
    (``cho_factor``/``cho_solve`` of sigma t_m t_n G c = i a for the modal
    ``coefficients`` a), the Gram's condition and the observability
    constants, the extreme eigenvalues of the trace-weighted Gram scaled
    by lambda^(-1/2) (each by ``sla.eigvalsh``).  These are the wrapper
    calls the package's direct kernel calls must reproduce bit for bit.
    """
    beta = sla.solve(G, moments, assume_a="her")
    lam_op = sigma_l * (np.outer(traces, traces) * G)
    hum = sla.cho_solve(sla.cho_factor(lam_op), 1j * coefficients) * traces
    w = sla.eigvalsh(G)
    condition = float(w[-1] / w[0]) if w[0] > 0 else np.inf
    scale = 1.0 / np.sqrt(lambdas)
    c = sla.eigvalsh(np.outer(traces, traces) * G * np.outer(scale, scale))
    return beta, hum, condition, (float(c[0]), float(c[-1]))
