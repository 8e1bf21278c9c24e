import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stringshape.modal import ModalBasis
from stringshape.routing import (ConstantPitch, Helical, Mount, StringSpec, Tabulated,
                                 path_velocity, tangential_margin)
from stringshape.sensing import NotRealizableError, Reference, SensorArray, lengths


def planar_basis():
    return ModalBasis(y=(0, 1, 2), length=1.0)


def velocity(path, basis, c, s):
    """w' of a path on arc lengths s at configuration c."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    return path_velocity(path.radial(s), path.radial_deriv(s), basis.matrix(s) @ np.asarray(c))


def margin(path, basis, c, s):
    """Tangential rate of a path on arc lengths s at configuration c."""
    return tangential_margin(path.radial(s), basis.matrix(s) @ np.asarray(c))


def test_degenerate_helix_equals_constant_pitch():
    h = Helical(r_s=0.03, omega=0.0, alpha=0.0)
    s = np.linspace(0, 1, 5)
    np.testing.assert_allclose(h.radial(s), [[0.03, 0, 0]] * 5, atol=1e-16)
    np.testing.assert_allclose(h.radial_deriv(s), np.zeros((5, 3)), atol=1e-16)


def test_helical_value_and_derivative_at_zero():
    h = Helical(r_s=0.03, omega=2.0, alpha=0.0)
    np.testing.assert_allclose(h.radial(0.0)[0], [0.03, 0, 0], atol=1e-16)
    np.testing.assert_allclose(h.radial_deriv(0.0)[0], [0, 0.06, 0], atol=1e-16)


def test_helical_derivative_matches_fd():
    h = Helical(r_s=0.04, omega=5.0, alpha=0.7)
    s = np.linspace(0.01, 0.99, 13)
    eps = 1e-7
    fd = (h.radial(s + eps) - h.radial(s - eps)) / (2 * eps)
    np.testing.assert_allclose(h.radial_deriv(s), fd, atol=1e-6)


def test_constant_pitch_is_constant():
    p = ConstantPitch(0.02, -0.01)
    s = np.linspace(0, 1, 9)
    np.testing.assert_array_equal(p.radial(s), np.tile([0.02, -0.01, 0.0], (9, 1)))
    np.testing.assert_array_equal(p.radial_deriv(s), np.zeros((9, 3)))


def test_tabulated_matches_sampled_helix():
    h = Helical(r_s=0.03, omega=3.0, alpha=0.2)
    s_nodes = np.linspace(0, 1, 400)
    r = h.radial(s_nodes)
    tab = Tabulated(tuple(s_nodes), tuple(r[:, 0]), tuple(r[:, 1]))
    s = np.linspace(0.05, 0.95, 7)
    np.testing.assert_allclose(tab.radial(s), h.radial(s), atol=1e-5)
    np.testing.assert_allclose(tab.radial_deriv(s), h.radial_deriv(s), atol=1e-3)


def test_path_velocity_straight():
    basis = planar_basis()
    w = velocity(ConstantPitch(0.1, 0.0), basis, np.zeros(3), 0.5)
    np.testing.assert_allclose(w, [[0, 0, 1.0]], atol=1e-16)


def test_path_velocity_planar_closed_form():
    basis = planar_basis()
    kappa = 3.0
    c = np.array([kappa, 0.0, 0.0])
    r_x = 0.08
    s = np.linspace(0, 1, 11)
    w = velocity(ConstantPitch(r_x, 0.0), basis, c, s)
    np.testing.assert_allclose(w[:, 2], 1 - r_x * kappa, atol=1e-14)
    np.testing.assert_allclose(w[:, :2], 0, atol=1e-14)


def test_path_velocity_zero_torsion_closed_form():
    basis = ModalBasis(x=(0, 1), y=(0, 1), length=1.0)
    rng = np.random.default_rng(5)
    c = rng.uniform(-2, 2, 4)
    r_x, r_y = 0.05, -0.03
    s = np.linspace(0, 1, 7)
    w = velocity(ConstantPitch(r_x, r_y), basis, c, s)
    phi = basis.matrix(s)
    u = phi @ c
    np.testing.assert_allclose(w[:, 2], r_y * u[:, 0] - r_x * u[:, 1] + 1.0, atol=1e-14)
    np.testing.assert_allclose(w[:, :2], 0, atol=1e-14)


@settings(max_examples=50)
@given(st.floats(-4, 4), st.floats(-4, 4), st.floats(-4, 4))
def test_constant_pitch_no_transverse_velocity_without_torsion(c0, c1, c2):
    basis = planar_basis()
    w = velocity(ConstantPitch(0.07, 0.02), basis, [c0, c1, c2],
                      np.linspace(0, 1, 23))
    assert np.abs(w[:, :2]).max() <= 1e-14


def test_realizable_examples():
    # lengths checks the tangential rate over the string's span and raises
    # with the minimum where it is not positive
    basis = planar_basis()
    s = np.linspace(0, 1, 200)
    assert margin(ConstantPitch(0.1, 0.0), basis, np.zeros(3), s).min() == pytest.approx(1.0)
    assert margin(ConstantPitch(0.05, 0.0), basis, [10.0, 0, 0], s).min() == pytest.approx(0.5)
    array = SensorArray((StringSpec(ConstantPitch(0.05, 0.0), 1.0),))
    assert lengths(array, basis, [10.0, 0, 0], Reference.ABSOLUTE)[0] == pytest.approx(0.5)
    array = SensorArray((StringSpec(ConstantPitch(0.1, 0.0), 1.0),))
    with pytest.raises(NotRealizableError) as err:
        lengths(array, basis, [10.0, 0, 0])
    assert err.value.margin == pytest.approx(0.0, abs=1e-12)
    assert err.value.string_index == 0


@settings(max_examples=30)
@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 1))
def test_margin_affine_in_coefficients(a, b, t):
    basis = planar_basis()
    path = ConstantPitch(0.11, -0.04)
    rng = np.random.default_rng(1)
    c1, c2 = rng.normal(size=3), rng.normal(size=3)
    s = np.linspace(0, 1, 10)
    m1 = margin(path, basis, c1, s)
    m2 = margin(path, basis, c2, s)
    blend = margin(path, basis, t * c1 + (1 - t) * c2, s)
    np.testing.assert_allclose(blend, t * m1 + (1 - t) * m2, atol=1e-12)


def test_violation_matches_curvature_bound():
    # a non-realizable configuration violates u_y <= (r_y u_x + 1)/r_x somewhere
    basis = ModalBasis(x=(0, 1), y=(0, 1), length=1.0)
    path = ConstantPitch(0.2, 0.1)
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = rng.uniform(-8, 8, 4)
        s = np.linspace(0, 1, 200)
        ok = margin(path, basis, c, s).min() > 0.0
        u = basis.matrix(s) @ c
        bound_violated = (u[:, 1] > (path.r_y * u[:, 0] + 1.0) / path.r_x + 1e-12)
        assert ok == (not bound_violated.any())


def test_string_spec_span():
    spec = StringSpec(ConstantPitch(0.1), s_anchor=0.2, mount=Mount.BASE)
    assert spec.span(1.0) == (0.0, 0.2)
    spec = StringSpec(ConstantPitch(0.1), s_anchor=0.2, mount=Mount.TIP)
    assert spec.span(1.0) == (0.2, 1.0)
    with pytest.raises(ValueError):
        StringSpec(ConstantPitch(0.1), s_anchor=1.5).span(1.0)


def test_invalid_paths():
    with pytest.raises(ValueError):
        Helical(r_s=0.0, omega=1.0)
    with pytest.raises(ValueError):
        Tabulated((0.0,), (0.1,), (0.0,))
