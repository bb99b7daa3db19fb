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
conditions one Gram.  The routes call LAPACK directly, zhetrf/zhetrs
and zpotrf/zpotrs with the arguments and workspace of
sla.solve(assume_a="her") and cho_factor/cho_solve, so they keep those
wrappers' bits without their cost per call; moments that are not a
finite 1-d sequence are refused before any Gram is formed, and a
nonzero LAPACK info raises numpy.linalg.LinAlgError naming the kernel.
A state is checked once, by ModalState itself.  The HUM route steers
exactly the modes of the state it is given.
moments_for_null and the HUM route refuse a steered mode whose trace
lies below spectrum.TRACE_FLOOR.  Every control is verified by a
forward solve that evolves the caller's state with the basis's own
sigma(ell) and traces; the reported residual is never inferred from the
linear algebra.  The solve's phase table is the same cached Gram, so
the check tests the Gram solve and the map from state to moments, not
the Gram's entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from ._blas import serial_blas
from .dynamics import (ExponentialSum, _check_problem, _lapack_info, evolve_controlled, gram,
                       modal_state, sobolev_norm)
from .spectrum import TRACE_FLOOR

_hetrf, _hetrf_lwork, _hetrs, _potrf, _potrs = sla.get_lapack_funcs(
    ("hetrf", "hetrf_lwork", "hetrs", "potrf", "potrs"), dtype=complex)

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
    traces = sd.traces[: len(state0.coefficients)]
    weak = np.flatnonzero(np.abs(traces) < TRACE_FLOOR) + 1
    if len(weak):
        raise ValueError(f"modes {weak.tolist()} have boundary traces below "
                         f"{TRACE_FLOOR:g} and cannot be steered from the boundary")
    return 1j * state0.coefficients / (sigma_l * traces)


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
    moments that are not a finite 1-d sequence before any Gram is formed,
    and a Gram condition above CONDITION_CAP instead of returning a
    garbage control.  The returned residual comes from a forward solve
    of the initial state the moments encode.
    """
    moments = np.asarray(moments, dtype=complex)
    if moments.ndim != 1:
        raise ValueError("moments must be a 1-d sequence")
    if not np.isfinite(moments).all():
        raise ValueError("moments must be finite")
    N = sd.mode_count(len(moments))
    lam = sd.eigenvalues[:N]
    gs = gram(lam, horizon)
    _refuse_ill_conditioned(gs)
    # the queried lwork, not f2py's default N, runs the blocked path sla.solve runs
    ldu, ipiv, info = _hetrf(gs.matrix, lower=0, lwork=int(_hetrf_lwork(N)[0].real))
    _lapack_info("zhetrf", info)
    beta, info = _hetrs(ldu, ipiv, moments, lower=0)
    _lapack_info("zhetrs", info)
    state0 = modal_state(sd, -1j * sd.sigma_at_right_end() * sd.traces[:N] * moments)
    return _verified(state0, horizon, moments, beta, gs, "moment")


@serial_blas
def synthesize_hum_control(state0, sd, horizon, n_modes, sigma_l):
    """Null control through the coercive-operator route.

    Solves Lambda c = i a(0) by one Cholesky factorization of the
    Hermitian positive definite operator and emits f(t) = sum_k c_k t_k
    exp(i lambda_k t), the boundary output of the free solution with
    datum sum c_k phi_k; Lambda = sigma(ell) t_m t_n G[m, n] is the
    boundary-output energy form.  What moments_for_null refuses, and an
    ``n_modes`` other than the state's coefficient count, are refused
    before any Gram is formed, and a Gram above CONDITION_CAP before it
    is factored; the control is verified by forward solve of the
    original state.
    """
    moments = moments_for_null(state0, sd, sigma_l)
    N = sd.mode_count(n_modes)
    if N != len(state0.coefficients):
        raise ValueError(f"mode count {N} differs from the state's "
                         f"{len(state0.coefficients)} coefficients")
    traces = sd.traces[:N]
    gs = gram(sd.eigenvalues[:N], horizon)
    _refuse_ill_conditioned(gs)
    u, info = _potrf(sigma_l * (np.outer(traces, traces) * gs.matrix), lower=0, clean=0)
    _lapack_info("zpotrf", info)
    c, info = _potrs(u, 1j * state0.coefficients, lower=0)
    _lapack_info("zpotrs", info)
    return _verified(state0, horizon, moments, c * traces, gs, "hum")
