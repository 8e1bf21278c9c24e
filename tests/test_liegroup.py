import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stringshape import liegroup as lg


def finite_vec(n, scale=5.0):
    return st.lists(st.floats(-scale, scale), min_size=n, max_size=n).map(np.array)


def test_hat_basic():
    assert np.array_equal(lg.hat([0, 0, 1]), np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]]))
    assert np.array_equal(lg.hat([0, 0, 0]), np.zeros((3, 3)))


@given(finite_vec(3))
def test_hat_vee_roundtrip(v):
    m = lg.hat(v)
    assert np.array_equal(m, -m.T)
    assert np.array_equal([m[2, 1], m[0, 2], m[1, 0]], v)


@given(finite_vec(3), finite_vec(3))
def test_hat_is_cross_product(v, w):
    np.testing.assert_allclose(lg.hat(v) @ w, np.cross(v, w), atol=1e-12)


@given(finite_vec(6))
def test_hat6_layout(t):
    m = lg.hat6(t)
    assert np.array_equal(m[:3, :3], lg.hat(t[:3]))
    assert np.array_equal(m[:3, 3], t[3:])
    assert np.array_equal(m[3, :], np.zeros(4))


def test_ad_block_form():
    t = np.array([0.0, 0, 0, 0, 0, 1])
    a = lg.ad(t)
    assert np.array_equal(a[3:, :3], lg.hat([0, 0, 1]))
    assert np.array_equal(a[:3, :3], np.zeros((3, 3)))
    a = lg.ad([1, 0, 0, 0, 0, 0])
    assert np.array_equal(a[:3, :3], lg.hat([1, 0, 0]))


@given(finite_vec(6))
def test_ad_annihilates_itself(t):
    np.testing.assert_allclose(lg.ad(t) @ t, np.zeros(6), atol=1e-13)


def test_exp_identity():
    np.testing.assert_array_equal(lg.exp_se3(np.zeros(6)), np.eye(4))


def test_exp_pure_rotation():
    pose = lg.exp_se3([0, 0, np.pi / 2, 0, 0, 0])
    np.testing.assert_allclose(pose[:3, :3],
                               [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)
    np.testing.assert_allclose(pose[:3, 3], 0, atol=1e-15)


def test_exp_constant_curvature_arc():
    # bending about y by kappa over length L lands on the circular arc
    L = 0.3
    kappa = np.pi / (2 * 0.3)
    pose = lg.exp_se3([0, kappa * L, 0, 0, 0, L])
    expect = np.array([(1 - np.cos(kappa * L)) / kappa, 0.0, np.sin(kappa * L) / kappa])
    np.testing.assert_allclose(pose[:3, 3], expect, atol=1e-12)
    np.testing.assert_allclose(pose[:3, 3], [0.19099, 0, 0.19099], atol=5e-6)


@settings(max_examples=100)
@given(finite_vec(6, scale=0.5 / np.sqrt(6)))
def test_exp_inverse(psi):
    pose = lg.exp_se3(psi) @ lg.exp_se3(-psi)
    np.testing.assert_allclose(pose, np.eye(4), atol=1e-12)


def test_exp_small_angle_branch_continuity():
    w = np.array([1e-9, -2e-9, 1e-9, 0.1, 0.2, 0.3])
    a = lg.exp_se3(w)
    b = lg.exp_se3(w * (1 + 1e-9))
    np.testing.assert_allclose(a, b, atol=1e-12)
    np.testing.assert_allclose(a[:3, :3] @ a[:3, :3].T, np.eye(3), atol=1e-15)


def test_dexp_trivial_cases():
    d = np.array([0.1, -0.2, 0.3, 0.4, 0.5, -0.6])
    np.testing.assert_allclose(lg.dexp_se3(np.zeros(6), d), d, atol=1e-15)
    np.testing.assert_allclose(lg.dexp_se3(d, np.zeros(6)), np.zeros(6), atol=1e-15)


def test_dexp_matches_finite_difference():
    rng = np.random.default_rng(7)
    eps = 1e-6
    for _ in range(100):
        psi = rng.normal(size=6)
        psi *= min(1.0, 0.5 / np.linalg.norm(psi))
        d = rng.normal(size=6)
        fd = (lg.exp_se3(psi + eps * d) - lg.exp_se3(psi - eps * d)) / (2 * eps)
        analytic = lg.exp_se3(psi) @ lg.hat6(lg.dexp_se3(psi, d))
        err = np.linalg.norm(fd - analytic) / np.linalg.norm(fd)
        assert err < 1e-7


def test_dexp_columns():
    rng = np.random.default_rng(3)
    psi = rng.normal(size=6) * 0.2
    d = rng.normal(size=(6, 4))
    cols = lg.dexp_se3(psi, d)
    for k in range(4):
        np.testing.assert_allclose(cols[:, k], lg.dexp_se3(psi, d[:, k]), atol=1e-14)


def _dexp_series(psi, dpsi):
    """Reference dexp: sum_k (-1)^k/(k+1)! ad(psi)^k dpsi, summed until a term
    falls below 1e-17 of the largest entry of the sum, at most 60 terms."""
    a = lg.ad(psi)
    term = np.array(dpsi, dtype=float)
    out = term.copy()
    scale = max(np.abs(out).max(), 1.0)
    for k in range(1, 60):
        term = (a @ term) / -(k + 1)
        out = out + term
        scale = max(scale, np.abs(out).max())
        if np.abs(term).max() < 1e-17 * scale:
            break
    return out


@pytest.mark.parametrize("theta", [
    1e-8, 1e-5, lg.SMALL_ANGLE * (1 - 1e-9), lg.SMALL_ANGLE * (1 + 1e-9), 1e-3, 0.01, 0.1,
    lg.DEXP_SMALL_ANGLE * (1 - 1e-9), lg.DEXP_SMALL_ANGLE * (1 + 1e-9), 1.0, 2.0, np.pi,
    6.0, 3 * np.pi])
def test_closed_form_dexp_matches_series(theta):
    rng = np.random.default_rng(int(theta * 1e9) % 2**32)
    # The series sums terms up to |ad|^k/(k+1)!, so its own round-off grows
    # like expm1(|w|)/|w|; against a 40-digit sum the closed form stays
    # within 1.2e-15 up to 3 pi, the series within 1e-13.
    tol = 1e-15 * max(1.0, np.expm1(theta) / theta)
    for _ in range(5):
        w = rng.normal(size=3)
        psi = np.concatenate([theta * w / np.linalg.norm(w), rng.normal(size=3)])
        d = rng.normal(size=(6, 4))
        ref = _dexp_series(psi, d)
        assert np.linalg.norm(lg.dexp_se3(psi, d) - ref) <= tol * np.linalg.norm(ref)


def test_dexp_taylor_branch_continuity(monkeypatch):
    # At DEXP_SMALL_ANGLE the series and the trig branch give the same
    # operator to round-off (about 3e-16 relative); the switch is moved to
    # either side to evaluate both at one psi.
    rng = np.random.default_rng(4)
    for _ in range(5):
        w = rng.normal(size=3)
        psi = np.concatenate([lg.DEXP_SMALL_ANGLE * w / np.linalg.norm(w), rng.normal(size=3)])
        d = rng.normal(size=(6, 3))
        switch = lg.DEXP_SMALL_ANGLE
        monkeypatch.setattr(lg, "DEXP_SMALL_ANGLE", 2.0 * switch)
        series = lg.dexp_se3(psi, d)
        monkeypatch.setattr(lg, "DEXP_SMALL_ANGLE", 0.5 * switch)
        trig = lg.dexp_se3(psi, d)
        monkeypatch.setattr(lg, "DEXP_SMALL_ANGLE", switch)
        assert np.linalg.norm(series - trig) <= 1e-15 * np.linalg.norm(series)


def test_stacked_kernels_match_single_calls():
    # one stack holds angles on both sides of both Taylor switches
    rng = np.random.default_rng(5)
    psi = rng.normal(size=(4, 10, 6)) * np.geomspace(1e-9, 10.0, 40).reshape(4, 10, 1)
    d = rng.normal(size=(4, 10, 6, 3))
    exp, dexp, dexp_vec = lg.exp_se3(psi), lg.dexp_se3(psi, d), lg.dexp_se3(psi, d[..., 0])
    ad, hat = lg.ad(psi), lg.hat(psi[..., 3:])
    assert exp.shape == (4, 10, 4, 4) and dexp.shape == (4, 10, 6, 3)
    for idx in np.ndindex(4, 10):
        np.testing.assert_array_equal(exp[idx], lg.exp_se3(psi[idx]))
        np.testing.assert_array_equal(dexp[idx], lg.dexp_se3(psi[idx], d[idx]))
        np.testing.assert_array_equal(dexp_vec[idx], lg.dexp_se3(psi[idx], d[idx][:, 0]))
        np.testing.assert_array_equal(ad[idx], lg.ad(psi[idx]))
        np.testing.assert_array_equal(hat[idx], lg.hat(psi[idx][3:]))


def test_magnus_zero_curvature():
    psi = lg.magnus_step(lambda s: np.zeros(3), 0.0, 0.1)
    np.testing.assert_allclose(psi, [0, 0, 0, 0, 0, 0.1], atol=1e-16)


def test_magnus_constant_curvature_is_exact():
    u = np.array([0.0, 2.0, 0.0])
    h = 0.25
    psi = lg.magnus_step(lambda s: u, 0.3, h)
    np.testing.assert_allclose(psi, h * np.concatenate([u, [0, 0, 1]]), atol=1e-14)


def test_magnus_element_diff_matches_finite_difference():
    # Psi is quadratic in the twists, so the central difference is exact
    # up to round-off
    rng = np.random.default_rng(8)
    e1, e2 = rng.normal(size=(2, 6))
    d1, d2 = rng.normal(size=(2, 6, 3))
    h, eps = 0.07, 1e-4
    dpsi = lg.magnus_element_diff(e1, e2, d1, d2, h)
    for k in range(3):
        fd = (lg.magnus_element(e1 + eps * d1[:, k], e2 + eps * d2[:, k], h)
              - lg.magnus_element(e1 - eps * d1[:, k], e2 - eps * d2[:, k], h)) / (2 * eps)
        np.testing.assert_allclose(dpsi[:, k], fd, rtol=0, atol=1e-11)


def test_magnus_linear_field_against_fine_reference():
    # fine-grid oracle for u_y(s) = s; single-step truncation must be O(h^5),
    # i.e. <= 1e-8 at h = 0.05 and shrinking 32x per halving
    def u_fn(s):
        return np.array([0.0, s, 0.0])

    def fine(h, n=10_000):
        ref = np.eye(4)
        for i in range(n):
            ref = ref @ lg.exp_se3(lg.magnus_step(u_fn, i * h / n, h / n))
        return ref

    def single_err(h):
        return np.abs(lg.exp_se3(lg.magnus_step(u_fn, 0.0, h)) - fine(h)).max()

    assert single_err(0.05) <= 1e-8
    ratio = single_err(0.2) / single_err(0.1)
    assert 25 < ratio < 40


def test_integrate_backbone_straight():
    poses = lg.integrate_backbone(lambda s: np.zeros(3), 0.3, 10)
    np.testing.assert_allclose(poses[-1][:3, 3], [0, 0, 0.3], atol=1e-15)
    np.testing.assert_allclose(poses[0], np.eye(4), atol=0)


def test_integrate_backbone_constant_curvature_closed_form():
    kappa, L = 4.2, 0.3
    poses = lg.integrate_backbone(lambda s: np.array([0, kappa, 0]), L, 100)
    expect = np.array([(1 - np.cos(kappa * L)) / kappa, 0, np.sin(kappa * L) / kappa])
    np.testing.assert_allclose(poses[-1][:3, 3], expect, atol=1e-10)


def test_integrate_backbone_self_convergence():
    def u_fn(s):
        return np.array([0.0, 1.0 + 2.0 * (2 * s - 1.0), 0.0])

    tip_a = lg.integrate_backbone(u_fn, 1.0, 100)[-1][:3, 3]
    tip_b = lg.integrate_backbone(u_fn, 1.0, 1600)[-1][:3, 3]
    assert np.linalg.norm(tip_a - tip_b) <= 1e-9


def test_orthonormality_drift():
    rng = np.random.default_rng(11)
    c = rng.uniform(-5, 5, size=3)

    def u_fn(s):
        x = 2 * s - 1
        return np.array([c[0], c[1] * x, c[2] * (2 * x * x - 1)])

    poses = lg.integrate_backbone(u_fn, 1.0, 100)
    for pose in poses[:: 10]:
        r = pose[:3, :3]
        assert np.linalg.norm(r.T @ r - np.eye(3)) <= 1e-9
        assert abs(np.linalg.det(r) - 1) <= 1e-9


def test_integrator_order():
    # observed convergence slope >= 3.7 against an n=3200 reference
    def u_fn(s):
        x = 2 * s - 1
        return np.array([1.5, 2.0 * x, 0.8 * (2 * x * x - 1)])

    ref = lg.integrate_backbone(u_fn, 1.0, 3200)[-1][:3, 3]
    ns = np.array([25, 50, 100, 200])
    errs = np.array([
        np.linalg.norm(lg.integrate_backbone(u_fn, 1.0, int(n))[-1][:3, 3] - ref)
        for n in ns
    ])
    slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope >= 3.7
