"""Every entry point runs on one OpenBLAS thread and restores the count;
only the dense eigh's four kernels inside solve_spectrum run at the caller's
count, which is one thread when the caller pins BLAS itself.  Where no
OpenBLAS is found, the pin does nothing."""

import sys
import threading

import numpy as np
import pytest

import bischro
from bischro import (
    ConditioningError,
    ExponentialSum,
    NumericalError,
    assemble,
    constant_profile,
    evolve_controlled,
    gram,
    modal_state,
    moments_for_null,
    project_initial,
    solve_spectrum,
    synthesize_hum_control,
    synthesize_moment_control,
    validate_spectrum,
)
from bischro._blas import _SERIAL, serial_blas


def _counts(libs):
    return [get() for get, _ in libs]


def _spy(seen, key, fn, libs):
    def call(*args, **kwargs):
        seen.setdefault(key, []).append(_counts(libs))
        return fn(*args, **kwargs)
    return call


def test_dense_eigh_alone_runs_at_entry_counts(blas, monkeypatch):
    entry = _counts(blas)
    seen = {}
    for name in ("_potrf", "_sygst", "_syevx", "_trsm", "boundary_trace"):
        monkeypatch.setattr(bischro.spectrum, name,
                            _spy(seen, name, getattr(bischro.spectrum, name), blas))
    solve_spectrum(assemble(constant_profile(), 32), 4)
    # the second potrf and trsm re-orthonormalize the polished modes, and one
    # block boundary_trace signs them all, serially
    serial = [1] * len(blas)
    assert seen == {"_potrf": [entry, serial], "_sygst": [entry], "_syevx": [entry],
                    "_trsm": [entry, serial], "boundary_trace": [serial]}
    assert _counts(blas) == entry


def test_a_caller_that_pins_blas_gets_a_serial_eigh(blas, var_profile, monkeypatch):
    # 1022 dofs: large enough that a threaded eigh changes the spectrum's last bits
    op = assemble(var_profile, 512)
    seen = {}
    monkeypatch.setattr(bischro.spectrum, "_sygst",
                        _spy(seen, "_sygst", bischro.spectrum._sygst, blas))
    pinned = serial_blas(solve_spectrum)(op, 51)
    for _, set_ in blas:
        set_(1)
    serial = solve_spectrum(op, 51)
    assert seen == {"_sygst": [[1] * len(blas), [1] * len(blas)]}
    for name in ("eigenvalues", "modes", "traces", "residuals"):
        assert np.array_equal(getattr(pinned, name), getattr(serial, name))


def test_pin_does_nothing_without_openblas(monkeypatch, rng):
    # the real libraries, where loaded, at two threads: with none found the
    # pin must leave them there, in the dense eigh and after it alike
    libs = bischro._blas._openblas()
    saved = _counts(libs)
    for _, set_ in libs:
        set_(2)
    seen = {}
    for name in ("_sygst", "_pbtrs"):
        monkeypatch.setattr(bischro.spectrum, name,
                            _spy(seen, name, getattr(bischro.spectrum, name), libs))
    monkeypatch.setattr(bischro._blas, "_openblas", lambda: ())
    try:
        sd = solve_spectrum(assemble(constant_profile(), 64), 8)
        assert validate_spectrum(sd).passed
        state = modal_state(sd, rng.standard_normal(6) + 1j * rng.standard_normal(6))
        moments = moments_for_null(state, sd, sd.sigma_at_right_end())
        assert synthesize_moment_control(moments, sd, 0.5).residual_final < 1e-8
        after = _counts(libs)
    finally:
        for (_, set_), n in zip(libs, saved):
            set_(n)
    assert _SERIAL._depth == 0
    assert all(counts == [2] * len(libs) for calls in seen.values() for counts in calls)
    assert set(seen) == {"_sygst", "_pbtrs"}
    assert after == [2] * len(libs)


def _polish_breakdown(monkeypatch):
    monkeypatch.setattr(bischro.spectrum, "_gbsv",
                        lambda kl, ku, ab, b, **kwargs: (ab, None, np.full_like(b, np.nan), 0))
    return NumericalError, "mode 1 polish"


def _dense_pencil_unallocatable(monkeypatch):
    def unallocatable(band):
        raise MemoryError(f"cannot allocate a {band.shape[1]}-square dense pencil")
    monkeypatch.setattr(bischro.spectrum, "band_to_dense", unallocatable)
    return MemoryError, "dense pencil"


def _misreport(kernel, position, value, message):
    """Item ``position`` of what the spectrum's kernel handle ``kernel``
    returns reads ``value``; the solve must raise ``message``."""
    def inject(monkeypatch):
        real = getattr(bischro.spectrum, kernel)

        def call(*args, **kwargs):
            out = list(real(*args, **kwargs))
            out[position] = value
            return tuple(out)

        monkeypatch.setattr(bischro.spectrum, kernel, call)
        return NumericalError, message
    return inject


@pytest.mark.parametrize("inject", [
    _polish_breakdown,
    _dense_pencil_unallocatable,
    # the info of each dense kernel, and the count m of pairs syevx found (4 asked)
    pytest.param(_misreport("_potrf", -1, 5, r"^dense eigensolve: mass matrix is not positive "
                                             r"definite \(potrf info 5\)$"), id="potrf_info"),
    pytest.param(_misreport("_sygst", -1, -2, r"^dense eigensolve: reduction failed "
                                              r"\(sygst info -2\)$"), id="sygst_info"),
    pytest.param(_misreport("_syevx", -1, 2, r"^dense eigensolve: standard eigensolve failed "
                                             r"\(syevx info 2, 4 of 4 eigenpairs\)$"),
                 id="syevx_info"),
    pytest.param(_misreport("_syevx", 2, 3, r"^dense eigensolve: standard eigensolve failed "
                                            r"\(syevx info 0, 3 of 4 eigenpairs\)$"),
                 id="syevx_count"),
])
def test_threads_restored_after_solve_failure(blas, monkeypatch, inject):
    entry = _counts(blas)
    error, message = inject(monkeypatch)
    with pytest.raises(error, match=message):
        solve_spectrum(assemble(constant_profile(), 32), 4)
    assert _SERIAL._depth == 0
    assert _counts(blas) == entry


def test_pinned_layers_ignore_the_callers_thread_count(blas, var_profile, rng):
    # 64 modes of 1022 dofs: large enough that a threaded dgemm of the mode
    # Gram in validate_spectrum changes its last bits
    sd = solve_spectrum(assemble(var_profile, 512), 64)
    m = sd.trusted_count
    freqs = sd.eigenvalues[:m]
    weights = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    ts = np.linspace(0.0, 1.0, 4001)
    # a Filon forward solve of 8 modes on the fewest samples its gate allows
    # at T = 0.05: the (8 x 185) @ (185 x 185) panel products split across
    # two threads and change the moments' last bits
    state8 = modal_state(sd, weights[:8])
    ts8 = np.linspace(0.0, 0.05, 68181)
    fs8 = ExponentialSum(freqs[:8], weights[:8])(ts8)

    def outputs():
        table = validate_spectrum(sd).table
        coeff = project_initial(sd, lambda x: x**2 * (1 - x) ** 2,
                                lambda x: 2 * x * (1 - x) * (1 - 2 * x)).coefficients
        f = ExponentialSum(freqs, weights)
        final = evolve_controlled(state8, sd, sd.sigma_at_right_end(), (ts8, fs8), 0.05)
        return [*(np.asarray(col).tobytes() for col in table.values()),
                coeff.tobytes(), f(ts).tobytes(), np.float64(f.norm(0.5)).tobytes(),
                final.coefficients.tobytes()]

    for _, set_ in blas:
        set_(1)
    serial = outputs()
    for _, set_ in blas:
        set_(2)
    assert outputs() == serial


def test_threads_restored_after_call(blas, sd_const_128, rng):
    before = _counts(blas)
    sd = sd_const_128
    sigma_l = sd.sigma_at_right_end()
    state = modal_state(sd, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    sol = synthesize_moment_control(moments_for_null(state, sd, sigma_l), sd, 0.5)
    assert sol.residual_final < 1e-8
    assert _counts(blas) == before
    bischro.observability_constants(sd, 0.5, 8)
    assert _counts(blas) == before


def test_threads_pinned_inside_and_restored_across_nesting(blas, sd_const_128, rng,
                                                           monkeypatch):
    before = _counts(blas)
    sd = sd_const_128
    sigma_l = sd.sigma_at_right_end()
    state = modal_state(sd, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    inner = bischro.control.evolve_controlled
    seen = []

    def recording(*args, **kwargs):
        seen.append(("enter", _counts(blas)))
        out = inner(*args, **kwargs)
        # evolve_controlled's own pin nests in the synthesize_* scope, still open here
        seen.append(("exit", _counts(blas)))
        return out

    monkeypatch.setattr(bischro.control, "evolve_controlled", recording)
    synthesize_hum_control(state, sd, 0.5, 8, sigma_l)
    synthesize_moment_control(moments_for_null(state, sd, sigma_l), sd, 0.5)
    assert len(seen) == 4
    assert all(counts == [1] * len(blas) for _, counts in seen)
    assert _counts(blas) == before


def test_threads_restored_after_refusal(blas, sd_const_128):
    before = _counts(blas)
    sd = sd_const_128
    state = modal_state(sd, np.ones(8))
    with pytest.raises(ConditioningError):
        synthesize_hum_control(state, sd, 1e-9, 8, sd.sigma_at_right_end())
    with pytest.raises(ConditioningError):
        synthesize_moment_control(np.ones(8), sd, 1e-9)
    assert _counts(blas) == before


def test_threads_restored_under_concurrent_callers(blas, sd_const_128):
    before = _counts(blas)
    lam = sd_const_128.eigenvalues[:8]
    op = assemble(constant_profile(), 16)
    errors = []
    noop = serial_blas(lambda: None)  # enters and leaves the scope at the highest rate

    def work():
        try:
            for k in range(2000):
                noop() if k % 50 else gram(lam, 0.3)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    def solve():  # runs its eigh unpinned and pins its polish while the others pin
        try:
            for _ in range(100):
                solve_spectrum(op, 4)
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=work) for _ in range(4)]
        workers.append(threading.Thread(target=solve))
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    assert _SERIAL._depth == 0
    assert _counts(blas) == before
