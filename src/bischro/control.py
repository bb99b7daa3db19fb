"""Null-control synthesis by the truncated moment method and its dual form.

Steering the first N modes to rest at time T fixes N oscillatory moments
of the control; the minimum-L^2-norm control satisfying them is an
exponential sum over the very frequencies being steered, with weights
solving the Gram system.  The dual route solves instead with the
trace-weighted coercive operator, factored once by Cholesky, and
produces the same function, which gives a sharp cross-check.  Both
routes take the Gram from observability.gram, and each control's norm
comes from ExponentialSum.norm; both read the one cached Gram of the
most recent (frequencies, horizon), so a moment/HUM pair at one horizon
forms and conditions one Gram.  Every synthesized control is verified
by an independent forward solve; the reported residual is never
inferred from the linear algebra.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from ._blas import serial_blas
from .dynamics import ExponentialSum, _check_basis, evolve_controlled, modal_state, sobolev_norm
from .observability import gram

CONDITION_CAP = 1e12
TRACE_FLOOR = 1e-9


class ConditioningError(RuntimeError):
    """Gram system too ill-conditioned to produce a trustworthy control."""


@dataclass(frozen=True)
class ControlSolution:
    """Synthesized boundary control with its forward-verified residual."""

    horizon: float
    frequencies: np.ndarray
    moments: np.ndarray
    beta: np.ndarray = field(repr=False)
    control_norm: float
    residual_final: float
    gram_condition: float
    method: str

    @property
    def n_modes(self):
        return len(self.frequencies)

    def waveform(self):
        return ExponentialSum(self.frequencies, self.beta)


def moments_for_null(state0, sd, sigma_l):
    """Moments m_n = i a_n(0) / (sigma(ell) t_n) that a null control must meet.

    A mode whose trace magnitude is below TRACE_FLOOR cannot be steered
    through the boundary; it is excluded (zero moment) with a warning.
    A state expanded in another basis than ``sd`` is refused.
    """
    _check_basis(state0, sd)
    if sigma_l <= 0:
        raise ValueError("sigma at the controlled end must be positive")
    traces = sd.traces[: len(state0.coefficients)]
    mask = np.abs(traces) >= TRACE_FLOOR
    moments = np.zeros(len(traces), dtype=complex)
    moments[mask] = 1j * state0.coefficients[mask] / (sigma_l * traces[mask])
    excluded = (np.flatnonzero(~mask) + 1).tolist()
    if excluded:
        warnings.warn(
            f"modes {excluded} have boundary traces below {TRACE_FLOOR:g} "
            "and were excluded from the moment problem",
            stacklevel=2,
        )
    return moments


def _verified(sd, horizon, moments, beta, gs, method, state0, sigma_l):
    """Package a control whose weights ``beta`` solve a system with the Gram ``gs``.

    The norm is the waveform's ExponentialSum.norm, which reads the Gram
    cached for these frequencies and this horizon instead of forming
    another N x N phase integral.  The residual comes from
    evolve_controlled, which forms its own phase integrals, so the
    verification stays independent of the Gram the control was solved
    with.
    """
    f = ExponentialSum(sd.eigenvalues[: len(beta)], beta)
    norm = f.norm(horizon)
    final = evolve_controlled(state0, sd, sigma_l, f, horizon)
    n0 = sobolev_norm(state0, -0.5)
    nT = sobolev_norm(final, -0.5)
    residual = float(nT / n0) if n0 > 0 else 0.0
    return ControlSolution(
        horizon=float(horizon), frequencies=f.frequencies, moments=np.asarray(moments),
        beta=beta, control_norm=norm, residual_final=residual,
        gram_condition=gs.condition_estimate, method=method,
    )


def _refuse_ill_conditioned(gs, condition_cap):
    if not np.isfinite(gs.condition_estimate) or gs.condition_estimate > condition_cap:
        raise ConditioningError(
            f"Gram condition {gs.condition_estimate:.3e} exceeds cap "
            f"{condition_cap:.3e}; increase the horizon or reduce the mode count"
        )


@serial_blas
def synthesize_moment_control(moments, sd, horizon, condition_cap=CONDITION_CAP):
    """Minimum-norm exponential-sum control meeting the given moments.

    Solves G beta = m with the exponential Gram on (0, horizon); refuses
    when the Gram condition exceeds the cap instead of returning a
    garbage control.  The returned residual comes from a forward solve of
    the initial state the moments encode.
    """
    moments = np.asarray(moments, dtype=complex)
    N = len(moments)
    if N < 1 or N > sd.trusted_count:
        raise ValueError(f"moment count must lie in [1, trusted_count={sd.trusted_count}]")
    lam = sd.eigenvalues[:N]
    gs = gram(lam, horizon)
    _refuse_ill_conditioned(gs, condition_cap)
    beta = sla.solve(gs.matrix, moments, assume_a="her")
    sigma_l = sd.sigma_at_right_end()
    a0 = -1j * sigma_l * sd.traces[:N] * moments
    state0 = modal_state(sd, a0)
    return _verified(sd, horizon, moments, beta, gs, "moment", state0, sigma_l)


@serial_blas
def synthesize_hum_control(state0, sd, horizon, n_modes, sigma_l,
                           condition_cap=CONDITION_CAP):
    """Null control through the coercive-operator route.

    Solves Lambda c = i a(0) by one Cholesky factorization of the
    Hermitian positive definite operator and emits f(t) = sum_k c_k t_k
    exp(i lambda_k t), the boundary output of the free solution with
    datum sum c_k phi_k; Lambda = sigma(ell) t_m t_n G[m, n] is the
    boundary-output energy form.  A state from another basis than ``sd``
    is refused; the control is verified by forward solve of the original
    state, including any modes beyond the steered range.
    """
    _check_basis(state0, sd)
    N = int(n_modes)
    if N < 1 or N > sd.trusted_count:
        raise ValueError(f"n_modes must lie in [1, trusted_count={sd.trusted_count}]")
    if sigma_l <= 0:
        raise ValueError("sigma at the controlled end must be positive")
    traces = sd.traces[:N]
    gs = gram(sd.eigenvalues[:N], horizon)
    _refuse_ill_conditioned(gs, condition_cap)
    m = len(state0.coefficients)
    if m > N and np.any(state0.coefficients[N:] != 0):
        warnings.warn(
            f"initial state has nonzero coefficients beyond mode {N}; "
            "those modes are not steered",
            stacklevel=2,
        )
    rhs = np.zeros(N, dtype=complex)
    k = min(N, m)
    rhs[:k] = 1j * state0.coefficients[:k]
    c = sla.cho_solve(sla.cho_factor(sigma_l * (np.outer(traces, traces) * gs.matrix)), rhs)
    beta = c * traces
    # rhs = i a(0), so the implied moments are rhs / (sigma t_n)
    moments = rhs / (sigma_l * traces)
    return _verified(sd, horizon, moments, beta, gs, "hum", state0, sigma_l)
