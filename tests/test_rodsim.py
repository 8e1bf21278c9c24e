import numpy as np
import pytest

from stringshape.modal import ModalBasis
from stringshape import rodsim
from stringshape.optimizer import optimal_planar_anchors
from stringshape.rodsim import (PlanarRodSolution, RodSpec, ShootingError, TipWrench,
                                convergence_study, error_metrics,
                                planar_reconstruction_error, planar_rod_bvp,
                                synthetic_spatial_truth)
from stringshape.routing import ConstantPitch, StringSpec
from stringshape.sensing import SensorArray, solve_shape
from stringshape.sensitivity import ConstraintSet
from stringshape import liegroup as lg

ROD = RodSpec(length=0.3, diameter=0.004, elastic_modulus=60e9)


def test_bending_stiffness():
    assert ROD.bending_stiffness == pytest.approx(60e9 * np.pi * 0.004**4 / 64, rel=1e-12)


def test_zero_wrench_straight():
    sol = planar_rod_bvp(ROD, (0.0, 0.0))
    np.testing.assert_allclose(sol.curvature, 0.0, atol=1e-15)
    np.testing.assert_allclose(sol.tip, [0.0, 0.3], atol=1e-14)


def test_pure_moment_constant_curvature():
    m_y = 3.0
    sol = planar_rod_bvp(ROD, (0.0, m_y))
    kappa = m_y / ROD.bending_stiffness
    assert np.std(sol.curvature) <= 1e-10 * abs(kappa)
    np.testing.assert_allclose(sol.curvature, kappa, rtol=2e-10)
    # tip on the circular arc
    expect = [(1 - np.cos(kappa * 0.3)) / kappa, np.sin(kappa * 0.3) / kappa]
    np.testing.assert_allclose(sol.tip, expect, rtol=1e-6)


def test_force_case_moment_balance_residual():
    sol = planar_rod_bvp(ROD, (60.0, 0.0))
    ei = ROD.bending_stiffness
    moment = 0.0 + 60.0 * (sol.z[-1] - sol.z)
    resid = np.abs(ei * sol.curvature - moment)
    assert resid.max() <= 1e-9 * ei * np.abs(sol.curvature).max()


def test_tip_wrench_validation():
    with pytest.raises(ValueError):
        TipWrench(force=(0, 1.0, 0), moment=(0, 0, 0)).planar()
    fx, my = TipWrench(force=(60, 0, 0), moment=(0, -6, 0)).planar()
    assert (fx, my) == (60.0, -6.0)


def test_shooting_error_for_absurd_load():
    with pytest.raises(ShootingError):
        planar_rod_bvp(ROD, (1e9, 0.0), max_iter=50)


def _cumtrapz(values, s):
    return np.concatenate([[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(s))])


def _rod_one_wrench(rod, f_x, m_y, max_iter=600):
    """Reference: one wrench at a time, each load step a fixed-point loop of
    its own.  Returns (u, theta, x, z, sweeps, load steps of the schedule
    that converged), or None where no schedule converges."""
    ei = rod.bending_stiffness
    s = np.linspace(0.0, rod.length, rodsim.ROD_GRID)

    def integrate(u):
        th = _cumtrapz(u, s)
        return th, _cumtrapz(np.sin(th), s), _cumtrapz(np.cos(th), s)

    def fixed_point(u, f, m):
        u = u.copy()
        for it in range(1, max_iter + 1):
            _, _, z = integrate(u)
            target = (m + f * (z[-1] - z)) / ei
            resid = np.abs(u - target).max()
            if not np.isfinite(resid):
                return None
            if resid <= rodsim.ROD_RESID_TOL * max(np.abs(target).max(), 1.0):
                return u, it
            u = rodsim.ROD_RELAX * target + (1.0 - rodsim.ROD_RELAX) * u
        return None

    total = 0
    for n_ramp in (1, 4, 10):
        u = np.zeros(rodsim.ROD_GRID)
        for k in range(1, n_ramp + 1):
            got = fixed_point(u, k / n_ramp * f_x, k / n_ramp * m_y)
            if got is None:
                break
            u, it = got
            total += it
        else:
            return (u, *integrate(u), total, n_ramp)
    return None


def test_stacked_rod_solve_matches_one_wrench_at_a_time():
    # (152, -20) fails in one load step and converges under continuation
    wrenches = np.array([(0.0, 0.0), (60.0, -6.0), (-60.0, 6.0), (152.0, -20.0),
                         (13.3, 2.7), (-45.0, -1.0)])
    refs = [_rod_one_wrench(ROD, f_x, m_y) for f_x, m_y in wrenches]
    assert [ref[-1] for ref in refs] == [1, 1, 1, 4, 1, 1]
    stack = planar_rod_bvp(ROD, wrenches)
    assert stack.iterations == sum(ref[4] for ref in refs)
    for k, ((f_x, m_y), ref) in enumerate(zip(wrenches, refs)):
        one = planar_rod_bvp(ROD, (f_x, m_y))
        assert one.iterations == ref[4]
        for got in (one, PlanarRodSolution(stack.s, *(getattr(stack, f)[k] for f in
                                                      ("curvature", "theta", "x", "z")), 0)):
            for field, value in zip(("curvature", "theta", "x", "z"), ref):
                np.testing.assert_array_equal(getattr(got, field), value, err_msg=field)
    np.testing.assert_array_equal(stack.tip, np.stack([stack.x[:, -1], stack.z[:, -1]], axis=-1))
    # one stacked reconstruction equals the reconstructions of each solution
    for p in (1, 2, 4):
        e_pos, e_rot = planar_reconstruction_error(stack, ROD, *optimal_planar_anchors(p), p)
        for k, f_x in enumerate(wrenches[:, 0]):
            one = PlanarRodSolution(stack.s, stack.curvature[k], stack.theta[k], stack.x[k],
                                    stack.z[k], 0)
            assert (e_pos[k], e_rot[k]) == planar_reconstruction_error(
                one, ROD, *optimal_planar_anchors(p), p)


def test_stacked_rod_solve_names_the_failing_wrench():
    wrenches = np.array([(1.0, 0.1), (1e9, 0.0), (20.0, 2.0)])
    assert _rod_one_wrench(ROD, 1e9, 0.0, max_iter=50) is None
    with pytest.raises(ShootingError, match=r"f_x=1000000000\.0 N, m_y=0\.0 N m"):
        planar_rod_bvp(ROD, wrenches, max_iter=50)
    assert planar_rod_bvp(ROD, wrenches[[0, 2]], max_iter=50).iterations == sum(
        _rod_one_wrench(ROD, f_x, m_y, max_iter=50)[4] for f_x, m_y in wrenches[[0, 2]])


def test_reconstruction_exact_for_matched_field():
    # truth field inside the sensing basis reconstructs to quadrature accuracy
    sol = planar_rod_bvp(ROD, (0.0, 4.0))          # constant curvature
    e_pos, e_rot = planar_reconstruction_error(sol, ROD, [0.25 * 0.3], [1.0], p=1)
    assert e_pos < 1e-6
    assert e_rot < 1e-10


def test_convergence_study_small_grid():
    stats, rows = convergence_study(ROD, n_levels=3, p_list=(1, 2, 3))
    assert len(rows) == 9
    assert stats[1]["mean_e_p"] > stats[2]["mean_e_p"] > stats[3]["mean_e_p"]
    # one string anchored at the end disk pins the tip angle
    assert stats[1]["max_rot"] <= 1e-8
    assert stats[3]["max_rot"] <= 1e-8


def test_synthetic_truth_model_matched_round_trip():
    basis = ModalBasis(x=(0, 1), y=(0, 1), length=0.293)
    specs = tuple(StringSpec(ConstantPitch(0.04 * np.cos(t), 0.04 * np.sin(t)), a)
                  for t, a in zip(np.deg2rad([0, 90, 180, 270]),
                                  (0.293, 0.293, 0.2051, 0.1172)))
    array = SensorArray(strings=specs)
    cs = ConstraintSet(strain_max=(0.05, 0.05, 0.05), backbone_diameter=0.004)
    cases = synthetic_spatial_truth(basis, array, cs, n=4, seed=11)
    for c_true, ell in cases:
        sol = solve_shape(array, basis, ell)
        assert np.linalg.norm(sol.c - c_true) <= 1e-6


def test_synthetic_truth_respects_constraints():
    basis = ModalBasis(x=(0, 1, 2), y=(0, 1, 2), length=0.3)
    specs = tuple(StringSpec(ConstantPitch(0.05 * np.cos(t), 0.05 * np.sin(t)), a)
                  for t, a in zip(np.deg2rad([30, 120, 210, 300, 75, 255]),
                                  (0.3, 0.3, 0.25, 0.2, 0.15, 0.1)))
    array = SensorArray(strings=specs)
    cs = ConstraintSet(strain_max=(0.04, 0.04, 0.04), backbone_diameter=0.004)
    cases = synthetic_spatial_truth(basis, array, cs, n=5, seed=2)
    bound = 0.04 / 0.002
    s = np.linspace(0, 0.3, 200)
    for c, _ in cases:
        u = basis.matrix(s) @ c
        assert np.abs(u[:, :2]).max() <= bound + 1e-9


def test_error_metrics():
    eye = np.eye(4)
    err = error_metrics(eye, eye, length=0.3, c_l=0.1)
    assert (err.e_p, err.theta_e, err.e_n) == (0.0, 0.0, 0.0)

    rot = lg.exp_se3([0, 0, np.pi / 2, 0, 0, 0])
    err = error_metrics(eye, rot, length=0.3, c_l=0.1)
    assert err.theta_e == pytest.approx(np.pi / 2)

    off = np.eye(4)
    off[0, 3] = 0.003
    err = error_metrics(eye, off, length=0.3, c_l=0.1)
    assert err.e_p == pytest.approx(1.0)
    assert err.e_n == pytest.approx(np.sqrt(0.003))
