"""Generalized symmetric-definite eigensolve and spectral validation.

The pencil K phi = lambda M phi from :mod:`bischro.operator` is solved
densely by the four kernels of LAPACK's dsygvx, called one by one on the
lower triangles that band_to_dense writes, the package's one dense form:
dpotrf factors M in place (the one refusal of an M that is not positive
definite), its factor is cut to its band (below which it is an exact
zero) and densified again before K is densified, dsygst reduces K in
place, dsyevx solves for the lowest pairs and dtrsm maps the vectors
back.  So one full lower triangle is resident at a time, and no kernel
scans the dense arrays for NaN or inf; a band with a non-finite entry is
refused before it is densified, and a kernel that reports failure raises
NumericalError naming it.  Then every pair is polished in place with two
shifted inverse-iteration steps on the banded pencil and its eigenvalue
replaced by the Rayleigh quotient.  The polish matters: the raw dense
solve carries an eps * lambda_max backward error that pollutes the low
eigenvalues well above the element discretization error.  Polished pairs
are never reordered: an eigenvalue not strictly above its predecessor, a
polish sweep or lambda_max power iteration that breaks down, a
nonpositive polished eigenvalue, or a mode Gram that dpotrf finds not
positive definite raises NumericalError.

The dense solve runs at the caller's BLAS thread counts, and everything
after it pinned to one thread (:mod:`bischro._blas`).

M is factored once per solve: the band of dpotrf's factor also serves
dpbtrs in the lambda_max power iteration and, over all modes at once, in
the residuals; dgbsv does each shifted solve, and every banded product
comes from operator.band_matvec.  With the F-ordered pencil from
assemble, an F-ordered (3k+1, n) band for dgbsv and an F-ordered residual
block, the results match scipy's solve_banded/cho_solve_banded path on
the same factor band bit for bit.

Eigenvectors are M-orthonormal with signs fixed so the right-end
curvature trace of every mode is positive (the traces never vanish for
this operator, which is what makes every mode visible from the boundary).
validate_spectrum checks those facts per mode and returns them as
columns plus a list of failures.
"""

from __future__ import annotations

import functools
import mmap
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from ._blas import serial_blas
from .operator import DiscreteOperator, _integer, band_matvec, boundary_trace, trusted_count

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


# dsygvx's four kernels, which the dense eigh calls one by one, and the
# kernels the solve calls after it (module docstring)
_potrf, _sygst, _syevx, _sygvx_lwork, _gbsv, _pbtrs = sla.get_lapack_funcs(
    ("potrf", "sygst", "syevx", "sygvx_lwork", "gbsv", "pbtrs"), dtype=np.float64)
_trsm = sla.get_blas_funcs("trsm", dtype=np.float64)


def band_to_dense(band):
    """Symmetric lower-band storage band[i, j] = A[j+i, j] to an F-ordered n x n array
    whose lower triangle holds A; the upper triangle is never written.

    The array lives in its own anonymous mapping, zero-filled by the kernel and
    advised against huge pages where the platform allows, so the pages of the
    upper triangle take no memory until something touches them; with LAPACK's
    ``uplo = 'L'`` nothing does.  A mapping that cannot be made is a
    MemoryError naming the n-square pencil.
    """
    n = band.shape[1]
    try:
        buf = mmap.mmap(-1, 8 * n * n, flags=mmap.MAP_PRIVATE)
    except OSError as exc:
        raise MemoryError(f"cannot allocate a {n}-square dense pencil: {exc}") from exc
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        try:
            buf.madvise(mmap.MADV_NOHUGEPAGE)
        except OSError:   # e.g. EINVAL from a kernel built without huge pages
            pass
    out = np.frombuffer(buf, dtype=float).reshape((n, n), order="F")
    for i in range(band.shape[0]):
        idx = np.arange(n - i)
        out[idx + i, idx] = band[i, : n - i]
    return out


def _dense_eigh(kb, mb, count):
    """``(w, v, lb)``: the lowest ``count`` eigenpairs of the banded pencil,
    bit for bit those of ``sla.eigh(K, M, subset_by_index=(0, count - 1),
    lower=True)`` (the potrf, sygst, syevx and trsm its dsygvx runs, with
    the same arguments), and the F-ordered lower band ``lb`` of M's
    Cholesky factor, below which the factor is an exact zero.  ``lb`` is
    re-densified before K is, so one full lower triangle (K's) plus the
    factor's band pages is resident at a time.  A kernel's failure is a
    NumericalError naming it.
    """
    n = kb.shape[1]
    c, info = _potrf(band_to_dense(mb), lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise NumericalError(
            f"dense eigensolve: mass matrix is not positive definite (potrf info {info})")
    lb = np.zeros(mb.shape, order="F")
    for i in range(len(lb)):
        lb[i, : n - i] = np.diagonal(c, -i)
    del c   # the last reference to M's dense mapping, which unmaps it
    factor = band_to_dense(lb)
    a, info = _sygst(band_to_dense(kb), factor, lower=1, overwrite_a=1)
    if info != 0:
        raise NumericalError(f"dense eigensolve: reduction failed (sygst info {info})")
    w, z, m, _, info = _syevx(a, compute_v=1, range="I", il=1, iu=count, lower=1,
                              abstol=0.0, lwork=int(_sygvx_lwork(n, uplo="L")[0]),
                              overwrite_a=1)
    if info != 0 or m < count:
        raise NumericalError(f"dense eigensolve: standard eigensolve failed "
                             f"(syevx info {info}, {m} of {count} eigenpairs)")
    return w[:count], _trsm(1.0, factor, z, lower=1, trans_a=1, overwrite_b=1), lb


def _gbsv_form(band):
    """Symmetric lower band to the (3k+1, n) F-ordered layout gbsv factors in
    place: the first k rows are LU fill-in, row 2k the diagonal."""
    k = band.shape[0] - 1
    n = band.shape[1]
    ab = np.zeros((3 * k + 1, n), order="F")
    ab[2 * k] = band[0]
    for i in range(1, k + 1):
        ab[2 * k + i, : n - i] = band[i, : n - i]
        ab[2 * k - i, i:] = band[i, : n - i]
    return ab


def _estimate_lambda_max(kb, mb, lb):
    """Deterministic power iteration on M^{-1} K for a residual floor.

    ``lb`` is the lower banded Cholesky factor of ``mb``.
    """
    x = np.ones(kb.shape[1])
    x[::2] = -1.0
    x /= np.linalg.norm(x)
    for _ in range(POWER_ITERATIONS):
        x, info = _pbtrs(lb, band_matvec(kb, x), lower=1, overwrite_b=1)
        if info != 0:
            raise NumericalError(f"lambda_max power iteration: pbtrs info {info}")
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
    modes on fine meshes.  A non-integer ``count`` is a TypeError.  The
    dense eigh runs at the caller's BLAS thread counts, the rest on one
    thread.
    """
    count = _integer(count, "count")
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > op.n_dof:
        raise ValueError(f"count={count} exceeds constrained dimension {op.n_dof}")
    kb, mb = op.constrained_bands()
    # the entries band_to_dense copies, which no dense kernel scans
    for name, band in (("stiffness", kb), ("mass", mb)):
        if not all(np.isfinite(band[i, : band.shape[1] - i]).all() for i in range(len(band))):
            raise ValueError(f"{name} matrix has non-finite entries")

    # unpinned: the dense eigh's kernels are the calls that gain from BLAS threads
    return _polished(op, *_dense_eigh(kb, mb, count))


@serial_blas
def _polished(op, lams, v, lb):
    """The dense pairs ``(lams, v)`` polished in place, M-orthonormalized,
    signed and gated: the SpectralData of :func:`solve_spectrum`."""
    kb, mb = op.constrained_bands()
    count = len(lams)
    # shifted inverse iteration plus Rayleigh quotient on the banded pencil
    k = kb.shape[0] - 1
    k3, m3 = _gbsv_form(kb), _gbsv_form(mb)
    for i in range(count):
        lam, vec = lams[i], v[:, i]
        for _ in range(POLISH_SWEEPS):
            _, _, z, info = _gbsv(k, k, k3 - lam * m3, band_matvec(mb, vec),
                                  overwrite_ab=1, overwrite_b=1)
            if info != 0:
                raise NumericalError(
                    f"mode {i + 1} polish: shifted solve failed (gbsv info {info})")
            nrm = np.sqrt(z @ band_matvec(mb, z))   # NaN or inf for a non-finite z
            if not np.isfinite(nrm) or nrm == 0.0:
                raise NumericalError(
                    f"mode {i + 1} polish: shifted-solve iterate has M-norm {nrm}")
            vec = z / nrm
            lam = vec @ band_matvec(kb, vec)
        if i and lam <= lams[i - 1]:
            raise NumericalError(f"modes {i} and {i + 1} out of order after polish "
                                 f"({lams[i - 1]:.6e} then {lam:.6e})")
        lams[i], v[:, i] = lam, vec
    if lams[0] <= 0:
        raise NumericalError(f"nonpositive eigenvalue {lams[0]:.6e} after polish")

    # polishing rotates each vector independently, leaving pairwise Gram
    # deviations around the inverse-iteration floor; one Cholesky pass
    # against the measured Gram restores M-orthonormality to roundoff and
    # mixes only O(deviation) of near neighbors into each mode
    chol, info = _potrf(v.T @ band_matvec(mb, v), lower=0, clean=1)
    if info != 0:
        raise NumericalError(f"mode Gram matrix lost positive definiteness (potrf info {info})")
    vecs = _trsm(1.0, chol, v.T, lower=0, trans_a=1).T

    floor = RESIDUAL_FLOOR_FACTOR * np.finfo(float).eps * _estimate_lambda_max(kb, mb, lb)
    traces = boundary_trace(op, vecs.T)
    signs = np.where(traces < 0, -1.0, 1.0)
    vecs *= signs
    traces *= signs
    # F-ordered, so each column's dot with its M^{-1}-weighted copy is contiguous
    r = np.empty((kb.shape[1], count), order="F")
    for i, vec in enumerate(vecs.T):
        r[:, i] = band_matvec(kb, vec) - lams[i] * band_matvec(mb, vec)
    rw, info = _pbtrs(lb, r, lower=1)
    if info != 0:
        raise NumericalError(f"residual solve: pbtrs info {info}")
    residuals = np.array([np.sqrt(abs(r[:, i] @ rw[:, i])) for i in range(count)])
    gates = RESIDUAL_TOL * lams + floor
    bad = np.flatnonzero(residuals > gates)
    if bad.size:
        i = bad[0]
        raise NumericalError(
            f"mode {i + 1} residual {residuals[i]:.3e} exceeds gate {gates[i]:.3e}"
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


@serial_blas
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
    gram_dev = np.abs(sd.modes.T @ band_matvec(mb, sd.modes) - np.eye(sd.count))

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
