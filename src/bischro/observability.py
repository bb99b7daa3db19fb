"""Boundary observability via Gram matrices of the exponential family.

The boundary output of a free solution is the exponential sum
sum_n c_n exp(i lambda_n t) t_n with t_n the mode traces, so its energy
over (0, T) is a Hermitian quadratic form in the coefficients.  Because
finitely many exponentials with distinct frequencies form a Riesz
sequence in L^2(0, T), the trace-weighted Gram matrix is positive
definite, and its extreme eigenvalues against the clamped-H^2 weights
give computable two-sided observability constants at truncation level.
The Gram itself is built and cached in one place, dynamics._phase_gram,
which ExponentialSum.norm reads too; gram adds the duplicate-frequency
check and the condition estimate, and the trace weighting is formed
where it is used.

Also hosts the Beurling upper-density window estimator; for this
operator the eigenvalue gaps grow cubically, so the estimate decays
toward zero with the window length.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from ._blas import serial_blas
from .dynamics import ExponentialSum, _phase_gram, _positive_horizon
from .reports import ReportTable


@dataclass(frozen=True)
class GramSystem:
    """Hermitian matrix G[m, n] = integral_0^T exp(i (lambda_n - lambda_m) t) dt
    and its 2-norm condition; callers form any trace weighting themselves."""

    matrix: np.ndarray = field(repr=False)
    condition_estimate: float


@serial_blas
def gram(lambdas, horizon):
    """Exponential Gram matrix on (0, horizon), closed-form entries.

    Off-diagonals are (exp(i dT) - 1)/(i d); the diagonal is exactly the
    horizon.  Duplicate frequencies are rejected, they would make the
    family degenerate, and so are horizons that are not positive and
    finite.

    The matrix is the one dynamics caches for ExponentialSum.norm, and
    the most recent (lambdas, horizon), compared by the exact bytes of
    the frequencies and the float horizon, is remembered with its
    condition: a repeated call returns the same read-only matrix and
    condition estimate without forming or eigen-decomposing it again.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or len(lam) == 0:
        raise ValueError("lambdas must be a nonempty 1-d sequence")
    return _gram(lam.tobytes(), _positive_horizon(horizon))


@functools.lru_cache(maxsize=1)
def _gram(key, T):
    """GramSystem of the frequencies frombuffer(key) on (0, T)."""
    lam = np.frombuffer(key)
    if len(lam) > 1:
        span = max(lam.max() - lam.min(), 1.0)
        diff = np.abs(np.subtract.outer(lam, lam))
        np.fill_diagonal(diff, np.inf)
        if diff.min() <= 1e-12 * span:
            i, j = np.unravel_index(np.argmin(diff), diff.shape)
            raise ValueError(f"duplicate frequencies at indices {i} and {j}")

    G = _phase_gram(key, T)
    w = sla.eigvalsh(G)
    cond = float(w[-1] / w[0]) if w[0] > 0 else np.inf
    return GramSystem(matrix=G, condition_estimate=cond)


def boundary_output(state, t):
    """Right-end curvature of the free solution: sum c_n exp(i lambda_n t) t_n,
    with t_n the traces of the state's own basis."""
    lam = state.frequencies
    out = ExponentialSum(lam, state.coefficients * state.basis.traces[: len(lam)])(t)
    return out if out.shape else complex(out)


@dataclass(frozen=True)
class ObservabilityReport:
    """Two-sided constants of the truncated boundary observability bound."""

    horizon: float
    n_modes: int
    c_lower: float
    c_upper: float
    gram_condition: float
    density: float
    resolution_failure: bool


@serial_blas
def observability_constants(sd, horizon, n_modes):
    """Extreme eigenvalues of the weight-normalized trace Gram.

    With D = diag(lambda_n) carrying the clamped-H^2 weights, the
    constants are the extreme eigenvalues of D^(-1/2) Gt D^(-1/2), where
    Gt is the trace-weighted Gram; every truncated datum's output energy
    over (0, horizon) then sits between c_lower and c_upper times its
    squared H^2 norm.  A nonpositive lower eigenvalue is reported as a
    resolution failure of the Gram eigensolve, not as a violation of the
    inequality.
    """
    N = int(n_modes)
    if N < 1 or N > sd.trusted_count:
        raise ValueError(f"n_modes must lie in [1, trusted_count={sd.trusted_count}]")
    lam = sd.eigenvalues[:N]
    tr = sd.traces[:N]
    gs = gram(lam, horizon)
    scale = 1.0 / np.sqrt(lam)
    B = np.outer(tr, tr) * gs.matrix * np.outer(scale, scale)
    w = sla.eigvalsh(B)
    c_lo, c_hi = float(w[0]), float(w[-1])
    density = beurling_density(lam).estimate if N >= 2 else 0.0
    return ObservabilityReport(
        horizon=float(horizon), n_modes=N, c_lower=c_lo, c_upper=c_hi,
        gram_condition=gs.condition_estimate, density=density,
        resolution_failure=not c_lo > 0,
    )


@dataclass(frozen=True)
class DensityEstimate:
    table: ReportTable
    estimate: float


def beurling_density(sequence, r_grid=None):
    """Window-count upper-density estimate of an increasing sequence.

    For each window length r the estimate is the maximum number of
    sequence points in any interval of length r, divided by r; the
    sliding maximum is attained with the window's left edge on a point.
    The attached scalar is the estimate at the largest window.
    """
    seq = np.asarray(sequence, dtype=float)
    if seq.ndim != 1 or len(seq) < 2:
        raise ValueError("sequence must contain at least two points")
    if np.any(np.diff(seq) <= 0):
        raise ValueError("sequence must be strictly increasing")
    if r_grid is None:
        span = seq[-1] - seq[0]
        r_grid = span * np.array([0.05, 0.1, 0.25, 0.5, 1.0])
    rows = []
    for r in np.asarray(r_grid, dtype=float):
        if r <= 0:
            raise ValueError("window lengths must be positive")
        counts = np.searchsorted(seq, seq + r, side="right") - np.arange(len(seq))
        rows.append((float(r), float(counts.max() / r)))
    table = ReportTable("density", ("window", "estimate"), rows)
    return DensityEstimate(table=table, estimate=rows[-1][1])
