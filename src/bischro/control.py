"""Null-control synthesis by the truncated moment method and its dual form.

Steering the first N modes to rest at time T fixes N oscillatory moments
of the control; the minimum-L^2-norm control satisfying them is an
exponential sum over the very frequencies being steered, with weights
solving the Gram system.  The dual route factors instead the coercive
operator Lambda = sigma(ell) D G D, D = diag(t), by Cholesky; in exact
arithmetic it returns the moment route's weights, so the gap between the
routes measures rounding only.  Both routes read the one cached Gram of
the most recent (frequencies, horizon) from dynamics.gram, as does
ExponentialSum.norm, so a moment/HUM pair at one horizon forms and
conditions one Gram.  The HUM route steers exactly the modes of the
state it is given.  moments_for_null and the HUM route refuse a
steered mode whose trace lies below spectrum.TRACE_FLOOR.  Every
control is verified by a forward solve that evolves the caller's state
with the basis's own sigma(ell) and traces; the reported residual is
never inferred from the linear algebra.  The solve's phase table is the
same cached Gram, so the check tests the Gram solve and the map from
state to moments, not the Gram's entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from ._blas import serial_blas
from .dynamics import (ExponentialSum, _check_problem, evolve_controlled, gram, modal_state,
                       sobolev_norm)
from .spectrum import TRACE_FLOOR

# a float64 policy, not a property of the problem: the Gram is invertible at every horizon
CONDITION_CAP = 1e12


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

    A sigma_l other than ``sd.sigma_at_right_end()``, a state of another
    basis, and a state holding a mode whose trace lies below
    spectrum.TRACE_FLOOR (which the boundary cannot steer) are refused.
    """
    _check_problem(state0, sd, sigma_l)
    traces = _steerable_traces(sd, len(state0.coefficients))
    return 1j * state0.coefficients / (sigma_l * traces)


def _steerable_traces(sd, n):
    """The first ``n`` traces, refused if any lies below spectrum.TRACE_FLOOR."""
    traces = sd.traces[:n]
    weak = np.flatnonzero(np.abs(traces) < TRACE_FLOOR) + 1
    if len(weak):
        raise ValueError(f"modes {weak.tolist()} have boundary traces below "
                         f"{TRACE_FLOOR:g} and cannot be steered from the boundary")
    return traces


def _verified(state0, horizon, moments, beta, gs, method):
    """Package a control whose weights ``beta`` solve a system with the Gram ``gs``.

    The basis and sigma(ell) are those of ``state0``.  The norm is the
    waveform's ExponentialSum.norm, which reads the Gram cached for these
    frequencies and this horizon instead of forming another N x N phase
    integral.  The residual is the H^-2 norm of the state the forward
    solve reaches at the horizon, relative to the initial one; that solve
    reads the same Gram as its phase table.
    """
    sd = state0.basis
    f = ExponentialSum(sd.eigenvalues[: len(beta)], beta)
    norm = f.norm(horizon)
    final = evolve_controlled(state0, sd, sd.sigma_at_right_end(), f, horizon)
    n0 = sobolev_norm(state0, -0.5)
    nT = sobolev_norm(final, -0.5)
    residual = float(nT / n0) if n0 > 0 else 0.0
    return ControlSolution(
        horizon=float(horizon), frequencies=f.frequencies, moments=np.asarray(moments),
        beta=beta, control_norm=norm, residual_final=residual,
        gram_condition=gs.condition_estimate, method=method,
    )


def _refuse_ill_conditioned(gs):
    if not np.isfinite(gs.condition_estimate) or gs.condition_estimate > CONDITION_CAP:
        raise ConditioningError(
            f"Gram condition {gs.condition_estimate:.3e} exceeds cap "
            f"{CONDITION_CAP:.3e}; increase the horizon or reduce the mode count"
        )


@serial_blas
def synthesize_moment_control(moments, sd, horizon):
    """Minimum-norm exponential-sum control meeting the given moments.

    Solves G beta = m with the exponential Gram on (0, horizon); refuses
    when the Gram condition exceeds CONDITION_CAP instead of returning a
    garbage control.  The returned residual comes from a forward solve of
    the initial state the moments encode.
    """
    moments = np.asarray(moments, dtype=complex)
    N = sd.mode_count(len(moments))
    lam = sd.eigenvalues[:N]
    gs = gram(lam, horizon)
    _refuse_ill_conditioned(gs)
    beta = sla.solve(gs.matrix, moments, assume_a="her")
    state0 = modal_state(sd, -1j * sd.sigma_at_right_end() * sd.traces[:N] * moments)
    return _verified(state0, horizon, moments, beta, gs, "moment")


@serial_blas
def synthesize_hum_control(state0, sd, horizon, n_modes, sigma_l):
    """Null control through the coercive-operator route.

    Solves Lambda c = i a(0) by one Cholesky factorization of the
    Hermitian positive definite operator and emits f(t) = sum_k c_k t_k
    exp(i lambda_k t), the boundary output of the free solution with
    datum sum c_k phi_k; Lambda = sigma(ell) t_m t_n G[m, n] is the
    boundary-output energy form.  A sigma_l other than
    ``sd.sigma_at_right_end()``, an ``n_modes`` other than the state's
    coefficient count, a state of another basis, and a steered mode
    whose trace lies below spectrum.TRACE_FLOOR are refused before any
    Gram is formed, and a Gram above CONDITION_CAP before it is factored;
    the control is verified by forward solve of the original state.
    """
    _check_problem(state0, sd, sigma_l)
    N = sd.mode_count(n_modes)
    if N != len(state0.coefficients):
        raise ValueError(f"mode count {N} differs from the state's "
                         f"{len(state0.coefficients)} coefficients")
    traces = _steerable_traces(sd, N)
    gs = gram(sd.eigenvalues[:N], horizon)
    _refuse_ill_conditioned(gs)
    rhs = 1j * state0.coefficients
    c = sla.cho_solve(sla.cho_factor(sigma_l * (np.outer(traces, traces) * gs.matrix)), rhs)
    beta = c * traces
    # rhs = i a(0), so the implied moments are rhs / (sigma t_n)
    moments = rhs / (sigma_l * traces)
    return _verified(state0, horizon, moments, beta, gs, "hum")
