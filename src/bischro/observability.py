"""Boundary observability via Gram matrices of the exponential family.

The boundary output of a free solution is the exponential sum
sum_n c_n exp(i lambda_n t) t_n with t_n the mode traces, so its energy
over (0, T) is a Hermitian quadratic form in the coefficients.  Because
finitely many exponentials with distinct frequencies form a Riesz
sequence in L^2(0, T), the trace-weighted Gram matrix is positive
definite, and its extreme eigenvalues against the clamped-H^2 weights
give computable two-sided observability constants at truncation level.
The Gram itself, with its condition, is built and cached in one place,
dynamics.gram, which the control solves and ExponentialSum.norm read
too; the trace weighting is formed where it is used.

Also hosts the Beurling upper-density window estimator, which returns
its window lengths and estimates as a ``{column name: array}`` dict like
the asymptotics reports; for this operator the eigenvalue gaps grow
cubically, so the estimate decays toward zero with the window length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ._blas import serial_blas
from .dynamics import ExponentialSum, gram


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
    N = sd.mode_count(n_modes)
    lam = sd.eigenvalues[:N]
    tr = sd.traces[:N]
    gs = gram(lam, horizon)
    scale = 1.0 / np.sqrt(lam)
    B = np.outer(tr, tr) * gs.matrix * np.outer(scale, scale)
    w = sla.eigvalsh(B)
    c_lo, c_hi = float(w[0]), float(w[-1])
    return ObservabilityReport(
        horizon=float(horizon), n_modes=N, c_lower=c_lo, c_upper=c_hi,
        gram_condition=gs.condition_estimate, resolution_failure=not c_lo > 0,
    )


def beurling_density(sequence, r_grid=None):
    """Window-count upper-density estimate of an increasing sequence.

    Returns the columns ``window`` (the lengths r, by default 0.05 to 1
    times the span x_N - x_1) and ``estimate``: the maximum number of
    points in any interval of length r, divided by r.  The sliding
    maximum is attained with the window's left edge on a point x_i, and
    x_j counts when the float64 offset x_j - x_i is at most r, the
    subtraction that defines the span, so the full-span window holds all
    N points.  Non-finite points or windows are a ValueError.
    """
    seq = np.asarray(sequence, dtype=float)
    if seq.ndim != 1 or len(seq) < 2:
        raise ValueError("sequence must contain at least two points")
    if not np.isfinite(seq).all():
        raise ValueError("sequence must be finite")
    if np.any(np.diff(seq) <= 0):
        raise ValueError("sequence must be strictly increasing")
    if r_grid is None:
        r_grid = (seq[-1] - seq[0]) * np.array([0.05, 0.1, 0.25, 0.5, 1.0])
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or not np.isfinite(r).all():
        raise ValueError("window lengths must be a 1-d array of finite numbers")
    if np.any(r <= 0):
        raise ValueError("window lengths must be positive")
    # row i of the offsets x_j - x_i ascends and holds i negative entries
    offsets = seq - seq[:, None]
    counts = np.count_nonzero(offsets <= r[:, None, None], axis=2) - np.arange(len(seq))
    return {"window": r, "estimate": counts.max(axis=1) / r}
