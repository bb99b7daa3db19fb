"""Generalized symmetric-definite eigensolve and spectral validation.

The pencil K phi = lambda M phi from :mod:`bischro.operator` is solved
densely (Cholesky reduction inside LAPACK), then every returned pair is
polished with two shifted inverse-iteration steps on the banded pencil
and its eigenvalue replaced by the Rayleigh quotient.  The polish matters:
the raw dense solve carries an eps * lambda_max backward error that
pollutes the low eigenvalues well above the element discretization error.
A polish sweep or lambda_max power iteration that breaks down raises
NumericalError rather than pass on an unpolished pair.

Eigenvectors are M-orthonormal with signs fixed so the right-end
curvature trace of every mode is positive (the traces never vanish for
this operator, which is what makes every mode visible from the boundary).
validate_spectrum checks those facts per mode and returns them as
columns plus a list of failures.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .operator import (DiscreteOperator, _integer, band_matvec, band_to_dense,
                       boundary_trace, trusted_count)

RESIDUAL_TOL = 1e-8
# validate_spectrum flags: relative neighbor gap, right-end trace magnitude
# and deviation of the mode Gram from the identity; control.moments_for_null
# refuses to steer a mode whose trace lies below TRACE_FLOOR
GAP_TOL = 1e-8
TRACE_FLOOR = 1e-6
ORTHO_TOL = 1e-10
# Multiplier on eps * lambda_max for the float64-attainable part of the
# residual gate; see solve_spectrum.
RESIDUAL_FLOOR_FACTOR = 256.0
# Shifted inverse-iteration sweeps per polished pair, and power
# iterations of the lambda_max estimate behind the residual floor.
POLISH_SWEEPS = 2
POWER_ITERATIONS = 50


class NumericalError(RuntimeError):
    """Eigensolver breakdown that indicates an assembly or conditioning bug."""


@dataclass(frozen=True)
class SpectralData:
    """Validated low spectrum of the clamped pencil.

    ``eigenvalues`` ascend strictly, ``wavenumbers`` are their quartic
    roots, ``modes`` (constrained dofs, one column per mode) are
    M-orthonormal, ``traces`` hold the right-end curvature of each mode,
    ``trusted_count`` caps the indices certified against
    discretization error (:func:`bischro.operator.trusted_count`), and
    ``op`` is the pencil they were computed from.
    """

    eigenvalues: np.ndarray
    wavenumbers: np.ndarray
    modes: np.ndarray = field(repr=False)
    traces: np.ndarray
    residuals: np.ndarray
    trusted_count: int
    op: DiscreteOperator

    @property
    def count(self):
        return len(self.eigenvalues)

    def mode_count(self, n):
        """``n`` as an int; a non-integer (bool included) is a TypeError, and
        a count outside 1 <= n <= trusted_count a ValueError."""
        n = _integer(n, "mode count")
        if not 1 <= n <= self.trusted_count:
            raise ValueError(f"mode count {n} must lie in [1, trusted_count={self.trusted_count}]")
        return n

    def sigma_at_right_end(self):
        return self._sigma_at_right_end

    @functools.cached_property
    def _sigma_at_right_end(self):
        # read by every control call; a sampled sigma costs ~11 us to evaluate
        p = self.op.profile
        return float(p.sigma(p.length))


def _band_to_lu_form(band):
    """Symmetric lower band to the (2k+1, n) diagonal-ordered LU band form."""
    k = band.shape[0] - 1
    n = band.shape[1]
    ab = np.zeros((2 * k + 1, n))
    ab[k] = band[0]
    for i in range(1, k + 1):
        ab[k + i, : n - i] = band[i, : n - i]
        ab[k - i, i:] = band[i, : n - i]
    return ab


def _polish_pair(kb, mb, lam, vec, mode):
    """Shifted inverse iteration plus Rayleigh quotient on the banded pencil."""
    k = kb.shape[0] - 1
    for _ in range(POLISH_SWEEPS):
        ab = _band_to_lu_form(kb - lam * mb)
        rhs = band_matvec(mb, vec)
        try:
            z = sla.solve_banded((k, k), ab, rhs)
        except (sla.LinAlgError, ValueError) as exc:
            raise NumericalError(f"mode {mode} polish: shifted solve failed ({exc})") from exc
        mz = band_matvec(mb, z)
        nrm = np.sqrt(z @ mz)   # NaN or inf for a non-finite iterate
        if not np.isfinite(nrm) or nrm == 0.0:
            raise NumericalError(f"mode {mode} polish: shifted-solve iterate has M-norm {nrm}")
        vec = z / nrm
        lam = vec @ band_matvec(kb, vec)
    return lam, vec


def _estimate_lambda_max(kb, mb, cb):
    """Deterministic power iteration on M^{-1} K for a residual floor.

    ``cb`` is the lower banded Cholesky factor of ``mb``.
    """
    n = kb.shape[1]
    x = np.ones(n)
    x[::2] = -1.0
    x /= np.linalg.norm(x)
    for _ in range(POWER_ITERATIONS):
        y = band_matvec(kb, x)
        x = sla.cho_solve_banded((cb, True), y)
        nrm = np.linalg.norm(x)
        if not np.isfinite(nrm) or nrm == 0.0:
            raise NumericalError(f"lambda_max power iteration: iterate has norm {nrm}")
        x /= nrm
    return x @ band_matvec(kb, x) / (x @ band_matvec(mb, x))


def solve_spectrum(op, count):
    """Lowest ``count`` eigenpairs of the clamped pencil, polished and signed.

    Residuals are measured in the M^{-1} norm relative to
    lambda_n * ||phi_n||_M.  The gate is RESIDUAL_TOL plus an explicit
    floating-point floor proportional to eps * lambda_max of the pencil:
    representing any vector in float64 already incurs a residual of that
    size, so demanding 1e-8 * lambda_n alone is unattainable for the low
    modes on fine meshes.  A non-integer ``count`` is a TypeError.
    """
    count = _integer(count, "count")
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > op.n_dof:
        raise ValueError(f"count={count} exceeds constrained dimension {op.n_dof}")
    kb, mb = op.constrained_bands()
    try:
        cb = sla.cholesky_banded(mb, lower=True)
    except sla.LinAlgError as exc:
        raise NumericalError("mass matrix is not positive definite") from exc

    # band_to_dense mirrors both triangles, so the transposes hold the same
    # values as F-contiguous views and LAPACK factors them in place
    w, v = sla.eigh(band_to_dense(kb).T, band_to_dense(mb).T,
                    subset_by_index=(0, count - 1),
                    overwrite_a=True, overwrite_b=True)
    if w[0] <= 0:
        raise NumericalError(f"nonpositive eigenvalue {w[0]:.6e} returned")

    lams = np.empty(count)
    vecs = np.empty_like(v)
    for i in range(count):
        lam, vec = _polish_pair(kb, mb, w[i], v[:, i], i + 1)
        lams[i] = lam
        vecs[:, i] = vec
    order = np.argsort(lams, kind="stable")
    lams = lams[order]
    vecs = vecs[:, order]
    if lams[0] <= 0:
        raise NumericalError(f"nonpositive eigenvalue {lams[0]:.6e} after polish")

    # polishing rotates each vector independently, leaving pairwise Gram
    # deviations around the inverse-iteration floor; one Cholesky pass
    # against the measured Gram restores M-orthonormality to roundoff and
    # mixes only O(deviation) of near neighbors into each mode
    mv = np.column_stack([band_matvec(mb, vecs[:, j]) for j in range(count)])
    gram = vecs.T @ mv
    try:
        chol = sla.cholesky(gram, lower=False)
    except sla.LinAlgError as exc:
        raise NumericalError("mode Gram matrix lost positive definiteness") from exc
    vecs = sla.solve_triangular(chol.T, vecs.T, lower=True).T

    floor = RESIDUAL_FLOOR_FACTOR * np.finfo(float).eps * _estimate_lambda_max(kb, mb, cb)
    traces = np.empty(count)
    residuals = np.empty(count)
    for i in range(count):
        t = boundary_trace(op, vecs[:, i])
        if t < 0:
            vecs[:, i] = -vecs[:, i]
            t = -t
        traces[i] = t
        r = band_matvec(kb, vecs[:, i]) - lams[i] * band_matvec(mb, vecs[:, i])
        rw = sla.cho_solve_banded((cb, True), r)
        residuals[i] = np.sqrt(abs(r @ rw))
        gate = RESIDUAL_TOL * lams[i] + floor
        if residuals[i] > gate:
            raise NumericalError(
                f"mode {i + 1} residual {residuals[i]:.3e} exceeds gate {gate:.3e}"
            )

    return SpectralData(
        eigenvalues=lams,
        wavenumbers=lams**0.25,
        modes=vecs,
        traces=traces,
        residuals=residuals,
        trusted_count=trusted_count(op.n_elements, count),
        op=op,
    )


@dataclass(frozen=True)
class SpectrumValidation:
    """``table`` holds the columns index, eigenvalue, rel_gap, trace_abs
    and ortho_residual of the checked modes; ``failures`` one
    ``"mode n: check"`` entry per failed check."""

    table: dict
    failures: list

    @property
    def passed(self):
        return not self.failures


def validate_spectrum(sd):
    """Per-mode report of simplicity, trace nonvanishing and orthonormality.

    Checks run up to ``trusted_count``.  A mode fails on ``positivity``
    if its eigenvalue is nonpositive, on ``simplicity`` if the relative
    gap to either neighbor drops below GAP_TOL, on ``trace`` if the
    right-end curvature magnitude is below TRACE_FLOOR, and on
    ``orthonormality`` if its Gram row deviates from the identity by
    more than ORTHO_TOL.
    """
    if sd.count == 0:
        raise ValueError("empty spectrum")
    n = sd.trusted_count
    lam = sd.eigenvalues
    _, mb = sd.op.constrained_bands()
    mv = np.column_stack([band_matvec(mb, sd.modes[:, j]) for j in range(sd.count)])
    gram_dev = np.abs(sd.modes.T @ mv - np.eye(sd.count))

    # each neighbor pair's gap over its upper eigenvalue, padded with inf at both ends
    gaps = np.concatenate(([np.inf], np.diff(lam) / lam[1:], [np.inf]))
    table = {
        "index": np.arange(1, n + 1),
        "eigenvalue": lam[:n],
        "rel_gap": np.minimum(gaps[:-1], gaps[1:])[:n],
        "trace_abs": np.abs(sd.traces[:n]),
        "ortho_residual": gram_dev[:n].max(axis=1),
    }
    flags = {
        "positivity": ~(table["eigenvalue"] > 0),
        "simplicity": table["rel_gap"] < GAP_TOL,
        "trace": table["trace_abs"] < TRACE_FLOOR,
        "orthonormality": table["ortho_residual"] > ORTHO_TOL,
    }
    failures = [f"mode {i + 1}: {name}" for i in range(n)
                for name, bad in flags.items() if bad[i]]
    return SpectrumValidation(table=table, failures=failures)
