import dataclasses
import sys
import threading

import numpy as np
import pytest

import bischro.dynamics
from bischro import (
    ExponentialSum,
    beurling_density,
    boundary_output,
    characteristic_roots,
    gram,
    modal_state,
    observability_constants,
    phase_integral,
)

from .oracles import beam_roots, exponential_energy


def test_gram_single_exponential():
    gs = gram([5.0], 0.7)
    assert gs.matrix.shape == (1, 1)
    assert gs.matrix[0, 0] == 0.7
    assert gs.condition_estimate == pytest.approx(1.0)


def test_gram_full_period_orthogonality():
    T = 0.5
    gs = gram([1.0, 1.0 + 2 * np.pi / T], T)
    assert abs(gs.matrix[0, 1]) <= 1e-15 * T
    assert gs.matrix[0, 0] == T and gs.matrix[1, 1] == T


def test_gram_diagonal_exact_and_hermitian(rng):
    lam = np.sort(rng.uniform(0, 300, 9))
    gs = gram(lam, 1.3)
    assert np.all(np.diag(gs.matrix) == 1.3)
    assert np.array_equal(gs.matrix, gs.matrix.conj().T)


def test_gram_positive_definite_across_configurations(sd_const_512):
    import scipy.linalg as sla
    from .oracles import beam_roots
    for N in (4, 12, 14):
        for T in (0.1, 0.5, 2.0):
            gs = gram(sd_const_512.eigenvalues[:N], T)
            assert sla.eigvalsh(gs.matrix).min() > 0
    # up to N = 20 with oracle frequencies beyond the solved range
    lam20 = beam_roots(20) ** 4
    for T in (0.1, 1.0):
        gs = gram(lam20, T)
        assert sla.eigvalsh(gs.matrix).min() > 0


def test_gram_energy_identity_against_quadrature(rng):
    lam = np.array([0.0, 3.3, 7.1, 12.0, 26.5, 40.2])
    T = 1.1
    gs = gram(lam, T)
    for _ in range(5):
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        quad = exponential_energy(lam, c, T)
        form = float(np.real(np.vdot(c, gs.matrix @ c)))
        assert form == pytest.approx(quad, rel=1e-10)


@pytest.mark.parametrize("N", [2, 8, 51, 102])
def test_gram_bits_match_full_phase_table(N, cold_gram_cache):
    # at T = 1e-10 and 1e-8 entries take the small-|omega T| series branch.
    # Hermitian symmetry and the exact diagonal rest on phase_integral being
    # conjugate-symmetric in omega and exactly T at omega = 0, for any
    # frequency set; values, not bytes, since a repeated frequency's zero
    # imaginary part may carry either sign
    lam = beam_roots(N) ** 4
    delta = np.subtract.outer(lam, lam)
    assert np.any((delta != 0) & (np.abs(delta) * 1e-10 < 1e-2))
    repeated = np.concatenate([lam, lam[::-1]])
    for T in (1e-10, 1e-8, 0.01, 0.5, 3.0):
        for freqs in (lam, lam[::-1], -lam, repeated):
            cold_gram_cache()
            full = np.asarray(phase_integral(-np.subtract.outer(freqs, freqs), T))
            # _gram is the norm's path, which accepts repeats; gram refuses them
            tables = [bischro.dynamics._gram(freqs.tobytes(), T).matrix]
            if freqs is not repeated:
                cold_gram_cache()
                tables.append(gram(freqs, T).matrix)
            for G in tables:
                assert G.tobytes() == full.tobytes()
                assert np.array_equal(G, G.conj().T)
                assert np.all(G.diagonal() == T)


def test_gram_rejects_duplicate_frequencies():
    with pytest.raises(ValueError, match="duplicate frequencies at indices 1 and 2"):
        gram([1.0, 2.0, 2.0], 1.0)
    # unsorted, with the Gram already cached by a norm, which accepts repeats
    assert ExponentialSum([2.0, 1.0, 2.0], [1.0, 1.0, 1.0]).norm(1.0) > 0
    with pytest.raises(ValueError, match="duplicate frequencies at indices 0 and 2"):
        gram([2.0, 1.0, 2.0], 1.0)


def test_gram_refuses_nonfinite_frequencies():
    # unchecked, a NaN gave a NaN matrix with only a RuntimeWarning, and an
    # infinite frequency was reported as a duplicate
    for lam in ([np.nan, 1.0], [1.0, np.inf]):
        with pytest.raises(ValueError, match="^lambdas must be finite$"):
            gram(lam, 1.0)


def test_gram_repeated_call_returns_stored_matrix(sd_const_512):
    lam = sd_const_512.eigenvalues[:12]
    first = gram(lam, 0.37)
    again = gram(lam.copy(), 0.37)  # equal bytes in another array
    assert again.matrix is first.matrix
    assert again.condition_estimate == first.condition_estimate


def test_gram_one_ulp_away_recomputes(sd_const_512, cold_gram_cache):
    lam = sd_const_512.eigenvalues[:12]
    T = 0.37
    base = gram(lam, T)
    lam_up = lam.copy()
    lam_up[-1] = np.nextafter(lam_up[-1], np.inf)
    for lam_k, T_k in ((lam, np.nextafter(T, 1.0)), (lam_up, T)):
        gs = gram(lam_k, T_k)
        assert gs.matrix is not base.matrix
        cold_gram_cache()
        fresh = gram(lam_k, T_k)
        assert fresh.matrix is not gs.matrix
        assert np.array_equal(gs.matrix, fresh.matrix)
        assert gs.condition_estimate == fresh.condition_estimate
        gram(lam, T)  # the next case starts from the base entry


def test_gram_matrix_is_read_only():
    gs = gram([1.0, 3.0], 0.5)
    assert not gs.matrix.flags.writeable
    with pytest.raises(ValueError):
        gs.matrix[0, 1] = 0.0


def test_gram_memo_consistent_under_concurrent_callers(sd_const_128, cold_gram_cache):
    # threads alternating between two horizons keep replacing the entry;
    # every call must still get the Gram and condition of its own key
    lam = sd_const_128.eigenvalues[:8]
    expected = {}
    for T in (0.3, 0.7):
        cold_gram_cache()
        gs = gram(lam, T)
        expected[T] = (gs.matrix, gs.condition_estimate)
    errors = []

    def work(first):
        try:
            for k in range(300):
                T = (0.3, 0.7)[(first + k) % 2]
                gs = gram(lam, T)
                if not (np.array_equal(gs.matrix, expected[T][0])
                        and gs.condition_estimate == expected[T][1]):
                    errors.append(T)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []


def test_boundary_output_single_mode(sd_const_128):
    sd = sd_const_128
    state = modal_state(sd, [1.0])
    assert boundary_output(state, 0.0) == pytest.approx(sd.traces[0])


def test_boundary_output_sum_at_zero(sd_const_128, rng):
    sd = sd_const_128
    c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    state = modal_state(sd, c)
    expected = np.sum(c * sd.traces[:7])
    assert boundary_output(state, 0.0) == pytest.approx(expected, rel=1e-13)


def test_boundary_output_matches_reconstruction_fd(sd_const_512):
    # one-sided finite differences of the reconstructed solution near the
    # right end reproduce the modal boundary output
    sd = sd_const_512
    op = sd.op
    c = np.array([0.8, -0.5, 0.3j], dtype=complex)
    state = modal_state(sd, c)
    t = 0.123
    out = boundary_output(state, t)
    coeff_t = np.exp(1j * sd.eigenvalues[:3] * t) * c
    dofs = op.expand(sd.modes[:, :3] @ coeff_t)
    d = op.h / 4
    ys = op.evaluate(dofs, 1.0 - d * np.arange(4))
    fd = (2 * ys[0] - 5 * ys[1] + 4 * ys[2] - ys[3]) / d**2
    assert fd == pytest.approx(out, rel=1e-8)


def test_observability_constants_single_mode_closed_form(sd_const_128):
    sd = sd_const_128
    T = 0.8
    rep = observability_constants(sd, T, 1)
    expected = sd.traces[0] ** 2 * T / sd.eigenvalues[0]
    assert rep.c_lower == pytest.approx(expected, rel=1e-12)
    assert rep.c_upper == pytest.approx(expected, rel=1e-12)


def test_sampled_quotients_inside_bounds(sd_const_512, rng):
    sd = sd_const_512
    N, T = 12, 1.0
    rep = observability_constants(sd, T, N)
    assert rep.c_lower > 0 and not rep.resolution_failure
    lam = sd.eigenvalues[:N]
    tr = sd.traces[:N]
    weighted = np.outer(tr, tr) * gram(lam, T).matrix
    for _ in range(100):
        c = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        num = float(np.real(np.vdot(c, weighted @ c)))
        den = float(np.sum(lam * np.abs(c) ** 2))
        q = num / den
        assert rep.c_lower * (1 - 1e-8) <= q <= rep.c_upper * (1 + 1e-8)


def test_lower_constant_nondecreasing_in_horizon(sd_const_512):
    values = [observability_constants(sd_const_512, T, 10).c_lower
              for T in (0.1, 0.25, 0.5, 1.0)]
    assert all(b >= a * (1 - 1e-12) for a, b in zip(values, values[1:]))


def test_lower_constant_stays_positive_as_modes_grow(sd_const_512):
    # the truncated lower constant must not collapse toward zero when more
    # modes enter at a fixed horizon (the gaps keep the family Riesz)
    values = [observability_constants(sd_const_512, 0.5, N).c_lower
              for N in (4, 8, 12, 14)]
    assert all(v > 0 for v in values)
    assert min(values) > 0.1 * values[0]


def test_trace_rescaling_scales_both_constants(sd_const_512):
    sd = sd_const_512
    s = 3.0
    scaled = dataclasses.replace(sd, traces=s * sd.traces)
    a = observability_constants(sd, 0.5, 8)
    b = observability_constants(scaled, 0.5, 8)
    assert b.c_lower == pytest.approx(s**2 * a.c_lower, rel=1e-12)
    assert b.c_upper == pytest.approx(s**2 * a.c_upper, rel=1e-12)


def test_beurling_arithmetic_sequence():
    delta = 0.25
    seq = delta * np.arange(1, 401)
    est = beurling_density(seq, r_grid=[1.0, 10.0, 50.0])
    assert list(est["window"]) == [1.0, 10.0, 50.0]
    # (floor(r/delta) + 1)/r -> 1/delta from above
    assert est["estimate"][-1] == pytest.approx(1 / delta, rel=0.01)


def test_beurling_oracle_eigenvalues_decay(const_geometry):
    mus = characteristic_roots(const_geometry, 200)
    lams = mus**4
    r = lams[-1] / 10
    assert beurling_density(lams, r_grid=[r])["estimate"][-1] <= 0.05
    grid = lams[-1] * np.array([0.01, 0.03, 0.1, 0.3, 1.0])
    vals = beurling_density(lams, r_grid=grid)["estimate"]
    assert np.all(np.diff(vals) < 0)


def test_beurling_full_span_window_holds_every_point():
    # x_1 + fl(x_2 - x_1) rounds below x_2, so a window placed by adding
    # the span to its left edge missed the last point and read 1 / span
    seq = [787.1705787544212, 2041.836195008446]
    est = beurling_density(seq)
    assert est["window"][-1] == seq[1] - seq[0]
    assert est["estimate"][-1] == 2 / (seq[1] - seq[0])


@pytest.mark.parametrize("sequence, r_grid", [
    ([0.0, 1.0, np.inf], None), ([0.0, np.nan, 1.0], None),
    ([0.0, 1.0, 2.0], [np.nan]), ([0.0, 1.0, 2.0], [1.0, np.inf]),
])
def test_beurling_refuses_nonfinite_input(sequence, r_grid):
    # unchecked, these read 0.0, 2.0, nan and 0.0 without an error
    with pytest.raises(ValueError, match="finite"):
        beurling_density(sequence, r_grid)


def test_beurling_nonincreasing_beyond_span(rng):
    seq = np.sort(rng.uniform(0, 10, 64))
    span = seq[-1] - seq[0]
    grid = span * np.array([1.0, 1.5, 2.5, 4.0])
    vals = beurling_density(seq, r_grid=grid)["estimate"]
    assert np.all(np.diff(vals) <= 0)
