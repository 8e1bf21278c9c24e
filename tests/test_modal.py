import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from stringshape.modal import ModalBasis, curvature, identity_basis


def t_n(n, s, length):
    """Shifted T_n(s) on [0, length], read from the single column of a
    degree-n basis: the path every curvature evaluation takes."""
    return ModalBasis(y=(n,), length=length).matrix(s)[..., 1, 0]


def test_first_polynomials_at_key_points():
    L = 1.0
    assert t_n(2, 0.0, L) == pytest.approx(1.0)
    assert t_n(2, L / 2, L) == pytest.approx(-1.0)
    assert t_n(2, L, L) == pytest.approx(1.0)
    assert t_n(1, L / 2, L) == pytest.approx(0.0)
    assert t_n(4, 0.0, L) == pytest.approx(1.0)   # T_n(-1) = (-1)^n


def test_explicit_quadratic_form():
    L = 0.3
    s = np.linspace(0, L, 7)
    np.testing.assert_allclose(t_n(2, s, L), 8 * s**2 / L**2 - 8 * s / L + 1,
                               atol=1e-14)


def test_domain_errors():
    for s in (-0.01, 1.01, np.nan):
        with pytest.raises(ValueError):
            t_n(2, s, 1.0)
    basis = ModalBasis(y=(0, 1), length=1.0)
    for s_from, s_to in [(0.5, 0.2), (0.0, np.nan), (np.nan, 0.5), (0.0, [0.2, np.nan]),
                         (0.0, [0.2, 1.01]), (0.5, [0.6, 0.4]), (-0.1, [0.2, 0.3])]:
        with pytest.raises(ValueError):
            basis.integral(s_from, s_to)
    for s in (np.nan, [0.2, np.nan]):
        with pytest.raises(ValueError, match="outside"):
            basis.matrix(s)


@given(st.integers(0, 10), st.floats(0, 1))
def test_boundedness(n, frac):
    assert abs(t_n(n, frac * 2.0, 2.0)) <= 1 + 1e-12


def test_boundedness_grid():
    s = np.linspace(0, 1, 1000)
    for n in range(11):
        assert np.abs(t_n(n, s, 1.0)).max() <= 1 + 1e-12


def test_basis_matrix_layout():
    basis = ModalBasis(y=(0, 1, 2), length=1.0)
    phi = basis.matrix(0.3)
    assert phi.shape == (3, 3)
    np.testing.assert_array_equal(phi[0], 0)
    np.testing.assert_array_equal(phi[2], 0)
    np.testing.assert_allclose(phi[1], [t_n(n, 0.3, 1.0) for n in (0, 1, 2)])


def test_identity_basis_is_constant_curvature():
    basis = identity_basis(0.5)
    for s in (0.0, 0.21, 0.5):
        np.testing.assert_array_equal(basis.matrix(s), np.eye(3))
    assert basis.m == 3


def test_mixed_axes_column_count():
    basis = ModalBasis(x=(0, 1, 2), y=(0, 1, 2), z=(0, 1), length=0.293)
    assert basis.m == 8
    assert basis.matrix(0.1).shape == (3, 8)


def test_curvature_examples():
    basis = ModalBasis(y=(0, 1, 2), length=1.0)
    np.testing.assert_array_equal(curvature(basis, np.zeros(3), 0.4), np.zeros(3))
    np.testing.assert_allclose(curvature(basis, [1.0, 1.0, 1.0], 0.0), [0, 1.0, 0])
    single = ModalBasis(y=(0,), length=1.0)
    np.testing.assert_allclose(curvature(single, [2.5], 0.77), [0, 2.5, 0])


@given(st.floats(-3, 3), st.floats(-3, 3))
def test_curvature_linearity(a, b):
    basis = ModalBasis(y=(0, 1, 2), length=1.0)
    rng = np.random.default_rng(0)
    c1, c2 = rng.normal(size=3), rng.normal(size=3)
    lhs = curvature(basis, a * c1 + b * c2, 0.37)
    rhs = a * curvature(basis, c1, 0.37) + b * curvature(basis, c2, 0.37)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_integral_whole_segment_values():
    L = 1.0
    basis = ModalBasis(y=(0, 1, 2), length=L)
    integ = basis.integral(0.0, L)[1]
    np.testing.assert_allclose(integ, [L, 0.0, -L / 3.0], atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_integral_matches_quadrature(a, b):
    lo, hi = min(a, b), max(a, b)
    L = 1.3
    basis = ModalBasis(x=(0, 3), y=(1, 2, 5), z=(4, 6), length=L)
    exact = basis.integral(lo * L, hi * L)
    col = 0
    for row, degs in ((0, basis.x), (1, basis.y), (2, basis.z)):
        for n in degs:
            val, _ = quad(lambda s: t_n(n, s, L), lo * L, hi * L,
                          limit=200, epsabs=1e-13, epsrel=1e-13)
            assert abs(exact[row, col] - val) < 1e-12
            col += 1


def test_array_bound_integral_matches_scalar_calls():
    basis = ModalBasis(x=(0, 3), y=(1, 2, 5), z=(4, 6), length=1.3)
    bounds = np.array([[0.2, 0.65, 0.9], [1.1, 1.3, 0.2]])
    got = basis.integral(0.2, bounds)
    assert got.shape == (2, 3, 3, basis.m)
    np.testing.assert_array_equal(got, [[basis.integral(0.2, b) for b in row] for row in bounds])


def test_validation():
    with pytest.raises(ValueError):
        ModalBasis(y=(1, 0), length=1.0)     # not increasing
    with pytest.raises(ValueError):
        ModalBasis(y=(0, 0), length=1.0)     # duplicate
    with pytest.raises(ValueError):
        ModalBasis(length=1.0)               # no columns
    with pytest.raises(ValueError):
        ModalBasis(y=(0,), length=-1.0)
    basis = ModalBasis(y=(0, 1), length=1.0)
    with pytest.raises(ValueError):
        basis.check_coeffs([1.0])
    with pytest.raises(ValueError):
        basis.check_coeffs([np.nan, 0.0])
