import numpy as np
import pytest

from bischro import assemble, boundary_trace, constant_profile, solve_spectrum
from bischro.operator import MIN_ELEMENTS, band_matvec, hermite_shapes, trusted_count
from bischro.spectrum import band_to_dense

from .oracles import _sym_band_matvec, gauss_integral, symmetrize


def element_matrices_closed_form(h):
    """Textbook constant-coefficient Hermite beam element matrices."""
    k = np.array([
        [12, 6 * h, -12, 6 * h],
        [6 * h, 4 * h**2, -6 * h, 2 * h**2],
        [-12, -6 * h, 12, -6 * h],
        [6 * h, 2 * h**2, -6 * h, 4 * h**2],
    ]) / h**3
    m = np.array([
        [156, 22 * h, 54, -13 * h],
        [22 * h, 4 * h**2, 13 * h, -3 * h**2],
        [54, 13 * h, 156, -22 * h],
        [-13 * h, -3 * h**2, -22 * h, 4 * h**2],
    ]) * h / 420.0
    return k, m


def test_single_element_blocks_match_closed_forms():
    op = assemble(constant_profile(length=1.0), 10)
    K = symmetrize(band_to_dense(op.kband))
    M = symmetrize(band_to_dense(op.mband))
    k_ref, m_ref = element_matrices_closed_form(op.h)
    # first element block is pristine (no overlap from the left)
    assert K[:2, :4] == pytest.approx(k_ref[:2], rel=1e-13)
    assert M[:2, :4] == pytest.approx(m_ref[:2], rel=1e-13)


def test_matrices_exactly_symmetric():
    # the dense pencil is stored as its lower triangle; mirrored, it is exactly
    # symmetric and its lower triangle is the band, entry for entry
    op = assemble(constant_profile(), 32)
    for band in op.constrained_bands():
        lower = band_to_dense(band)
        full = symmetrize(lower)
        assert np.array_equal(full, full.T)
        assert np.array_equal(np.tril(full), lower)
        for i in range(band.shape[0]):
            assert np.array_equal(np.diagonal(full, -i), band[i, : band.shape[1] - i])


def test_bands_and_dense_pencil_are_f_ordered_and_block_products_match_columns(rng):
    # LAPACK and BLAS read the F-ordered arrays without a copy, and the mode
    # Gram keeps its bits only through a C-ordered block of column products
    op = assemble(constant_profile(), 16)
    for band in (op.kband, op.mband, *op.constrained_bands()):
        assert band.flags.f_contiguous
        assert band_to_dense(band).flags.f_contiguous
    real = rng.standard_normal((op.n_dof, 5))
    for block in (real, real + 1j * rng.standard_normal(real.shape)):
        for band in op.constrained_bands():
            out = band_matvec(band, block)
            assert out.flags.c_contiguous
            cols = [_sym_band_matvec(band, col.real) + 1j * _sym_band_matvec(band, col.imag)
                    if np.iscomplexobj(col) else _sym_band_matvec(band, col) for col in block.T]
            assert np.array_equal(out, np.column_stack(cols))


def test_mass_positive_definite_stiffness_positive():
    op = assemble(constant_profile(), 16)
    K, M = map(band_to_dense, op.constrained_bands())
    assert np.linalg.eigvalsh(M).min() > 0
    assert np.linalg.eigvalsh(K).min() > 0


def test_mass_energy_matches_analytic_integral():
    # u(x) = x^2 (1-x)^2 with rho = 1: integral u^2 = 1/630
    u = lambda x: x**2 * (1 - x) ** 2
    du = lambda x: 2 * x * (1 - x) ** 2 - 2 * x**2 * (1 - x)
    exact = 1.0 / 630.0
    errs = []
    for E in (16, 32):
        op = assemble(constant_profile(), E)
        dofs = op.interpolate(u, du)
        mu = band_matvec(op.mband, dofs)
        val = dofs @ mu
        errs.append(abs(val - exact))
        assert val == pytest.approx(exact, abs=60.0 * op.h**4 * exact)
    # interpolation error drops at fourth order
    assert errs[1] < errs[0] / 8


def test_stiffness_energy_matches_direct_quadrature(var_profile):
    op = assemble(var_profile, 24)
    rng = np.random.default_rng(3)
    u = np.zeros(op.n_dof_full)
    v = np.zeros(op.n_dof_full)
    u[2:-2] = rng.standard_normal(op.n_dof)
    v[2:-2] = rng.standard_normal(op.n_dof)

    def integrand(x):
        return (var_profile.sigma(x) * op.evaluate(u, x, 2) * op.evaluate(v, x, 2)
                + var_profile.q(x) * op.evaluate(u, x, 1) * op.evaluate(v, x, 1))

    direct = sum(
        gauss_integral(integrand, op.h * e, op.h * (e + 1), panels=1, order=8)
        for e in range(op.n_elements)
    )
    assembled = u @ band_matvec(op.kband, v)
    assert assembled == pytest.approx(direct, rel=1e-12)


def test_clamped_constraints_are_exact():
    op = assemble(constant_profile(), 16)
    rng = np.random.default_rng(5)
    full = op.expand(rng.standard_normal(op.n_dof))
    for val, deriv in ((0.0, 0), (0.0, 1)):
        assert op.evaluate(full, 0.0, deriv) == val
        assert op.evaluate(full, 1.0, deriv) == val


def test_nested_refinement_preserves_coarse_energy():
    u = lambda x: np.sin(2 * np.pi * x) * x * (1 - x)
    coarse = assemble(constant_profile(), 16)
    fine = assemble(constant_profile(), 32)
    # the coarse-space function lives exactly in the fine space only if we
    # re-express it, so compare the energy of the same piecewise cubic
    du = None
    uc = coarse.interpolate(u, du)
    xs_mid = np.linspace(0, 1, 33)
    uf = np.empty(fine.n_dof_full)
    uf[0::2] = coarse.evaluate(uc, xs_mid, 0)
    uf[1::2] = coarse.evaluate(uc, xs_mid, 1)
    ec = uc @ band_matvec(coarse.kband, uc)
    ef = uf @ band_matvec(fine.kband, uf)
    assert ef == pytest.approx(ec, rel=1e-12)


def test_boundary_trace_exact_for_cubics():
    op = assemble(constant_profile(), 16)
    u2 = op.interpolate(lambda x: x**2, lambda x: 2 * x)
    u3 = op.interpolate(lambda x: x**3, lambda x: 3 * x**2)
    assert boundary_trace(op, u2) == pytest.approx(2.0, rel=1e-12)
    assert boundary_trace(op, u3) == pytest.approx(6.0, rel=1e-12)


def test_boundary_trace_sine_converges_cubically():
    # interpolant of sin(pi x): u''(1) = 0; the one-sided trace error is
    # -pi^5 h^3 / 30 to leading order (the h^2 term vanishes because
    # u'''' (1) = 0), frozen from the Taylor expansion of the end dofs
    traces = {}
    for E in (32, 64, 128):
        op = assemble(constant_profile(), E)
        u = op.interpolate(lambda x: np.sin(np.pi * x),
                           lambda x: np.pi * np.cos(np.pi * x))
        traces[E] = boundary_trace(op, u)
    for E, t in traces.items():
        predicted = -np.pi**5 / 30.0 / E**3
        assert t == pytest.approx(predicted, rel=0.02)
    assert abs(traces[128]) < abs(traces[64]) / 7.5


def test_rayleigh_quotient_bounded_below_by_smallest_eigenvalue(sd_const_128):
    op = sd_const_128.op
    bump = op.interpolate(lambda x: np.sin(np.pi * x) ** 2,
                          lambda x: np.pi * np.sin(2 * np.pi * x))
    uc = op.constrain(bump)
    kb, mb = op.constrained_bands()
    num = uc @ band_matvec(kb, uc)
    den = uc @ band_matvec(mb, uc)
    assert num / den >= sd_const_128.eigenvalues[0] * (1 - 1e-12)


def test_rejects_too_few_elements():
    with pytest.raises(ValueError, match="at least"):
        assemble(constant_profile(), 4)


@pytest.mark.parametrize("elements", [8, 9])
def test_assemble_refuses_meshes_that_certify_no_mode(elements):
    # one trusted mode per ten elements: a coarser mesh's spectrum would
    # certify none, so validate_spectrum would check nothing and
    # project_initial would return an empty state
    assert trusted_count(elements, elements) == 0 < trusted_count(MIN_ELEMENTS, 1)
    with pytest.raises(ValueError, match=f"^need at least 10 elements, got {elements}$"):
        assemble(constant_profile(), elements)


@pytest.mark.parametrize("elements", [20.7, np.float64(64.0), True])
def test_element_count_must_be_an_integer(elements):
    # int() would silently build 20 elements from 20.7
    with pytest.raises(TypeError, match="element count must be an integer"):
        assemble(constant_profile(), elements)


@pytest.mark.parametrize("x, derivative, message", [
    (0.5, -1, "^derivative must be 0, 1 or 2"),
    (0.5, 3, "^derivative must be 0, 1 or 2"),
    (-1.0, 0, r"^abscissae outside \[0, length\]$"),
    ([0.5, 2.0], 0, r"^abscissae outside \[0, length\]$"),
    ([0.5, np.nan], 0, "^abscissae must be finite$"),
    (np.inf, 1, "^abscissae must be finite$"),
])
def test_evaluate_refuses_bad_derivative_and_abscissae(sd_const_128, x, derivative, message):
    # unchecked, -1 gave the curvature, 3 an IndexError, x outside [0, 1]
    # extrapolated the end cubics, and NaN warned in an integer cast
    op = sd_const_128.op
    mode = sd_const_128.modes[:, 0]
    with pytest.raises(ValueError, match=message):
        op.evaluate(mode, x, derivative)
    # abscissae within rounding of the ends are accepted
    assert np.isfinite(op.evaluate(mode, [-1e-13, 1.0 + 1e-13])).all()


@pytest.mark.parametrize("derivative", [True, False, 1.0])
def test_evaluate_derivative_must_be_an_integer(sd_const_128, derivative):
    # True was read as 1 and gave the slope
    op = sd_const_128.op
    with pytest.raises(TypeError, match="^derivative must be an integer, got "):
        op.evaluate(sd_const_128.modes[:, 0], 0.5, derivative)
    assert op.evaluate(sd_const_128.modes[:, 0], 0.5, np.int64(1)) == \
        op.evaluate(sd_const_128.modes[:, 0], 0.5, 1)
