"""The small dense layers run on one OpenBLAS thread and restore the count."""

import sys
import threading

import numpy as np
import pytest

import bischro
from bischro import (
    ConditioningError,
    gram,
    modal_state,
    moments_for_null,
    synthesize_hum_control,
    synthesize_moment_control,
)
from bischro._blas import _SERIAL, _openblas, serial_blas


@pytest.fixture
def blas():
    """The (get, set) pairs, each library set to two threads for the test."""
    libs = _openblas()
    if not libs:
        pytest.skip("no OpenBLAS loaded in this process")
    saved = [get() for get, _ in libs]
    for _, set_ in libs:
        set_(2)
    yield libs
    for (_, set_), n in zip(libs, saved):
        set_(n)


def _counts(libs):
    return [get() for get, _ in libs]


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
    bischro.project_initial(sd, lambda x: x**2 * (1 - x) ** 2)
    assert _counts(blas) == before
    ts = np.linspace(0, 0.05, 4001)  # 20 samples per period of mode 3
    bischro.evolve_controlled(modal_state(sd, np.ones(3)), sd, sigma_l,
                              (ts, np.cos(40 * ts)), 0.05)
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
        # the inner scope has closed; the outer synthesize_* scope has not
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
    errors = []
    noop = serial_blas(lambda: None)  # enters and leaves the scope at the highest rate

    def work():
        try:
            for k in range(2000):
                noop() if k % 50 else gram(lam, 0.3)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=work) for _ in range(4)]
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
