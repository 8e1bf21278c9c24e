import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stringshape import sensitivity, studies
from stringshape.modal import ModalBasis
from stringshape.routing import ConstantPitch, Helical, StringSpec
from stringshape.sensing import (NotRealizableError, SensorArray, config_jacobian, lengths,
                                 linear_model)
from stringshape.sensitivity import (ConstraintSet, DiskGeometry, disk_collision_radius,
                                     global_index, length_twist_map, noise_amp,
                                     sample_admissible)


def planar_basis():
    return ModalBasis(y=(0, 1, 2), length=1.0)


def planar_array(radii=(0.1, -0.1, 0.25), anchors=(0.3, 0.7, 1.0)):
    return SensorArray(strings=tuple(
        StringSpec(ConstantPitch(r, 0.0), a) for r, a in zip(radii, anchors)))


# ---------------------------------------------------------------------------
# noise_amp
# ---------------------------------------------------------------------------

def test_noise_amp_examples():
    assert noise_amp(np.diag([2.0, 1.0])) == pytest.approx(0.5)
    assert noise_amp(np.eye(4)) == pytest.approx(1.0)
    a = np.array([[1.0, 2.0], [0.0, 0.0]])
    assert noise_amp(a) == pytest.approx(0.0, abs=1e-16)


@settings(max_examples=30)
@given(st.floats(0.1, 10.0))
def test_noise_amp_scaling(k):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 3))
    assert noise_amp(k * a) == pytest.approx(k * noise_amp(a), rel=1e-10)


def test_noise_amp_row_permutation_invariant():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 4))
    perm = rng.permutation(6)
    assert noise_amp(a[perm]) == pytest.approx(noise_amp(a), rel=1e-12)


def test_error_bound_holds():
    # ||dx|| <= (1/aleph) ||db|| for the planar linear system, 10k draws
    basis = planar_basis()
    array = planar_array(anchors=(0.204, 0.772, 1.0))
    _, jac = linear_model(array, basis)
    al = noise_amp(jac)
    rng = np.random.default_rng(99)
    db = rng.normal(size=(10_000, 3))
    dx = np.linalg.solve(jac, db.T).T
    lhs = np.linalg.norm(dx, axis=1)
    rhs = np.linalg.norm(db, axis=1) / al
    assert np.all(lhs <= rhs * (1 + 1e-12))


# ---------------------------------------------------------------------------
# full kinematic map
# ---------------------------------------------------------------------------

def test_full_map_shapes_and_rank():
    basis = planar_basis()
    array = planar_array()
    b = length_twist_map(array, basis, np.zeros(3), 1.0, c_l=0.25)
    assert b.shape == (6, 3)
    j = np.linalg.pinv(b)
    assert j.shape == (3, 6)
    assert np.linalg.matrix_rank(j) <= 3


def test_characteristic_length_scales_angular_rows_only():
    basis = planar_basis()
    array = planar_array()
    c = np.array([1.0, 0.3, -0.2])
    b1 = length_twist_map(array, basis, c, 1.0, c_l=0.2)
    b2 = length_twist_map(array, basis, c, 1.0, c_l=0.4)
    np.testing.assert_allclose(b2[:3], 2.0 * b1[:3], rtol=1e-12)
    np.testing.assert_allclose(b2[3:], b1[3:], rtol=1e-12)


def test_twist_bound_monte_carlo():
    # ||delta xi|| <= (1/aleph(J_lxi)) ||delta dl|| with dl = J_lxi xi
    basis = planar_basis()
    array = planar_array(anchors=(0.573, 0.428, 1.0))
    c = np.array([0.8, -0.5, 0.3])
    b = length_twist_map(array, basis, c, 1.0, c_l=0.25)   # xi = B dl
    j_lxi = np.linalg.pinv(b)
    al = noise_amp(j_lxi)
    rng = np.random.default_rng(5)
    dl = rng.normal(size=(1000, 3))
    xi = dl @ b.T
    assert np.all(np.linalg.norm(xi, axis=1)
                  <= np.linalg.norm(dl, axis=1) / al * (1 + 1e-9))


# ---------------------------------------------------------------------------
# disk collision radius
# ---------------------------------------------------------------------------

def test_disk_collision_residual():
    h_d, r_d, l_s = 0.01, 0.05, 0.05
    rho = disk_collision_radius(h_d, r_d, l_s)
    resid = 2 * (rho - r_d) * np.tan(l_s / (2 * rho)) - h_d
    assert abs(resid) <= 1e-12
    # triangle identity with theta_s = L_s / rho*
    theta_s = l_s / rho
    assert np.tan(theta_s / 2) == pytest.approx(h_d / (2 * (rho - r_d)), rel=1e-9)


def test_disk_collision_monotone_in_height():
    # thinner disks leave more clearance: collision happens at a smaller
    # radius of curvature (larger admissible curvature)
    r_d, l_s = 0.05, 0.05
    assert disk_collision_radius(0.005, r_d, l_s) < disk_collision_radius(0.01, r_d, l_s)
    # thin-disk limit: rims meet once the bend radius approaches the disk radius
    assert disk_collision_radius(1e-6, r_d, l_s) == pytest.approx(r_d, rel=1e-3)


def test_disk_collision_impossible_geometry():
    with pytest.raises(ValueError):
        disk_collision_radius(0.04, 0.0, 0.05)   # point disks never meet rims
    with pytest.raises(ValueError):
        disk_collision_radius(0.06, 0.01, 0.05)  # thicker than the subsegment


# ---------------------------------------------------------------------------
# constraints and sampling
# ---------------------------------------------------------------------------

def test_axis_bounds_strain():
    cs = ConstraintSet(strain_max=(0.05, 0.05, 0.05), backbone_diameter=0.004)
    np.testing.assert_allclose(cs.axis_bounds(), [25.0, 25.0, 25.0])


def test_axis_bounds_disk_and_limits():
    disk = DiskGeometry(height=0.01, radius=0.05, subsegment_length=0.05)
    rho = disk_collision_radius(0.01, 0.05, 0.05)
    cs = ConstraintSet(strain_max=(0.05, 0.05, 0.05), backbone_diameter=0.004,
                       disk=disk)
    bounds = cs.axis_bounds()
    np.testing.assert_allclose(bounds[:2], min(25.0, 1.0 / rho))
    cs = ConstraintSet(bend_limit=np.deg2rad(10), twist_limit=np.deg2rad(7.5),
                       subsegment_length=0.0293)
    bounds = cs.axis_bounds()
    assert bounds[0] == pytest.approx(np.deg2rad(10) / 0.0293)
    assert bounds[2] == pytest.approx(np.deg2rad(7.5) / 0.0293)


def test_zero_config_always_admissible():
    cs = ConstraintSet(strain_max=(0.05, 0.05, 0.05), backbone_diameter=0.004)
    basis = planar_basis()
    assert cs.admissible(basis, np.zeros(3), strings=planar_array().strings)


def test_sampling_reproducible_and_admissible():
    basis = planar_basis()
    cs = ConstraintSet(strain_max=(0.05, 0.05, 0.05), backbone_diameter=2.0)
    a = sample_admissible(basis, cs, 50, seed=7)
    b = sample_admissible(basis, cs, 50, seed=7)
    np.testing.assert_array_equal(a.configs, b.configs)
    s = np.linspace(0, 1, 200)
    phi = basis.matrix(s)
    bound = cs.axis_bounds()[1]
    for c in a.configs:
        assert np.abs(phi @ c).max() <= bound + 1e-9


def test_sampling_respects_realizability():
    basis = planar_basis()
    cs = ConstraintSet(strain_max=(0.5, 0.5, 0.5), backbone_diameter=2.0)
    strings = (StringSpec(ConstantPitch(0.25, 0.0), 1.0),)
    samples = sample_admissible(basis, cs, 30, seed=3, strings=strings)
    s = np.linspace(0, 1, 200)
    for c in samples.configs:
        u_y = (basis.matrix(s) @ c)[:, 1]
        assert (1 - 0.25 * u_y).min() > 0


def test_sampling_acceptance_guard():
    basis = planar_basis()
    cs = ConstraintSet(strain_max=(1e-9, 1e-9, 1e-9), backbone_diameter=2.0)
    # box >> admissible region: force pathological acceptance via box_scale
    with pytest.raises(RuntimeError):
        sample_admissible(basis, cs, 200, seed=1, box_scale=1e9, min_acceptance=0.5)


def _stiff_strain_set():
    """The constraints of studies.stiff_workspace, design (1, 2, 3, 4) of the
    stiff space (tip-mounted strings) and the workspace's box scale."""
    cs = ConstraintSet(strain_max=(studies.PLANAR_STRAIN_MAX,) * 3,
                       backbone_diameter=studies.PLANAR_BACKBONE_DIAMETER)
    box = studies.PLANAR_BOX_CURVATURE / studies.PLANAR_ROD_LENGTH / cs.axis_bounds()[0]
    return cs, studies.stiff_design_space().array_for((1, 2, 3, 4), 0), box


def _passes_lengths(array, basis, c):
    try:
        lengths(array, basis, c)
    except NotRealizableError:
        return False
    return True


def test_admissible_agrees_with_lengths_on_stiff_workspace():
    # one cusp rule: admissible with the strings accepts exactly the
    # configurations whose string lengths exist (161 of 200 here); a check
    # over [0, L] rejected five whose tip-mounted strings cusp below their anchors
    cs, array, _ = _stiff_strain_set()
    basis = studies.stiff_basis()
    configs = studies.stiff_workspace(200, 424242).configs
    expect = np.array([_passes_lengths(array, basis, c) for c in configs])
    got = cs.admissible(basis, configs, array.strings)
    np.testing.assert_array_equal(got, expect)
    assert got.sum() == 161


@pytest.mark.parametrize("seed", [3, 12])
def test_realizability_on_samples_pass_lengths(seed):
    cs, array, box = _stiff_strain_set()
    basis = studies.stiff_basis()
    samples = sample_admissible(basis, cs, 40, seed, strings=array.strings, box_scale=box)
    assert all(_passes_lengths(array, basis, c) for c in samples.configs)


def _stack_cases():
    """(basis, constraints, strings, box half-width): the stiff design
    (1, 2, 3, 4) under a disk cap, and helical strings of radius 0.2 m (wide
    enough to cusp) under the soft bend/twist limits, in boxes where
    candidates fail on bounds, on cusps alone and not at all."""
    disk = DiskGeometry(height=0.01, radius=0.05, subsegment_length=0.05)
    stiff = studies.stiff_design_space()
    helical = tuple(StringSpec(Helical(0.2, 10.0, alpha), studies.SOFT_LENGTH * frac)
                    for alpha, frac in ((0.0, 1.0), (2.0, 0.6), (4.0, 0.3)))
    return [(stiff.basis,
             ConstraintSet(strain_max=(0.05,) * 3, backbone_diameter=0.004, disk=disk),
             stiff.array_for((1, 2, 3, 4), 0).strings, 8.0),
            (studies.soft_basis(), studies.soft_constraints(), helical, 3.0)]


@pytest.mark.parametrize("basis, cs, strings, half", _stack_cases(), ids=["disk", "bend-twist"])
def test_admissible_stack_matches_rows(basis, cs, strings, half):
    configs = np.random.default_rng(5).uniform(-half, half, size=(300, basis.m))
    for given in (strings, ()):
        rows = np.array([cs.admissible(basis, c, given) for c in configs])
        np.testing.assert_array_equal(cs.admissible(basis, configs, given), rows)
        assert 0 < rows.sum() < len(rows)
    # some candidates within the bounds fail the cusp rule alone
    assert (cs.admissible(basis, configs) & ~cs.admissible(basis, configs, strings)).any()


def _one_stage_admissible(cs, basis, c, strings=(), grids=None):
    """The reference check: the bounds on the whole grid for every candidate,
    then the cusp rule for those within them."""
    bounds, phi_t, cusp_grid = grids or cs.grids(basis, strings)
    c = basis.check_stack(c)
    stack, u = np.atleast_2d(c), (c @ phi_t).reshape(-1, sensitivity.ADMISSIBLE_GRID, 3)
    ok = np.all(np.abs(u).max(axis=1) <= bounds + 1e-12, axis=1)
    if cs.disk is not None or cs.bend_limit is not None:
        ok &= np.hypot(u[..., 0], u[..., 1]).max(axis=1) <= min(bounds[:2]) + 1e-12
    if cusp_grid is not None and ok.any():
        ok[ok] = np.all(sensitivity._margins(cusp_grid, stack[ok]) > 0.0, axis=1)
    return ok if c.ndim == 2 else bool(ok[0])


def _reference_cases():
    """_stack_cases plus a per-axis cap on the planar basis and the stiff
    workspace's strain set, each with strings and a box half-width."""
    cs, array, box = _stiff_strain_set()
    return _stack_cases() + [
        (planar_basis(), ConstraintSet(axis_cap=(4.0, 4.0, 4.0)), planar_array().strings, 6.0),
        (studies.stiff_basis(), cs, array.strings, 2.0 * box * cs.axis_bounds()[0])]


@pytest.mark.parametrize("basis, cs, strings, half", _reference_cases(),
                         ids=["disk", "bend-twist", "axis-cap", "strain"])
def test_staged_admissible_matches_one_stage_reference(basis, cs, strings, half):
    configs = np.random.default_rng(6).uniform(-half, half, size=(2000, basis.m))
    for given in (strings, ()):
        expect = _one_stage_admissible(cs, basis, configs, given)
        np.testing.assert_array_equal(cs.admissible(basis, configs, given), expect)
        assert 0 < expect.sum() < len(expect)


def _crafted_candidates(b):
    """(y coefficients on T_0..T_2 of the planar basis, accepted) for a per-axis
    bound b: on the bound at both ends, within 1e-12 of it (the check's
    absolute tolerance) and beyond; over it by less than the end-point slack;
    within it at both ends and over it at one interior grid point only."""
    x_peak = 2.0 * 60 / (sensitivity.ADMISSIBLE_GRID - 1) - 1.0   # grid point 60
    # u(x) = b (1 + 1e-6) - b (x - x_peak)^2 on T_0, T_1, T_2
    peak = [b * (1.0 + 1e-6) - 0.5 * b - b * x_peak ** 2, 2.0 * b * x_peak, -0.5 * b]
    return [([0.0, b, 0.0], True), ([0.0, 0.0, -b], True), ([0.0, b + 0.9e-12, 0.0], True),
            ([0.0, 0.0, b + 1.1e-12], False), ([0.0, b * (1.0 + 1e-10), 0.0], False),
            (peak, False)]


def test_admissible_crafted_candidates_on_the_axis_bounds():
    basis, b = planar_basis(), 4.0
    cs = ConstraintSet(axis_cap=(b, b, b))
    phi_y = basis.matrix(np.linspace(0.0, basis.length, sensitivity.ADMISSIBLE_GRID))[:, 1]
    cases = _crafted_candidates(b)
    peak = np.abs(phi_y @ cases[-1][0])
    # the last candidate is within the bound at both ends, over it at one point
    assert peak[[0, -1]].max() < b and np.flatnonzero(peak > b + 1e-12).tolist() == [60]
    configs = np.array([c for c, _ in cases])
    expect = np.array([ok for _, ok in cases])
    for c, ok in cases:
        assert cs.admissible(basis, c) is ok is _one_stage_admissible(cs, basis, c)
    np.testing.assert_array_equal(cs.admissible(basis, configs), expect)
    np.testing.assert_array_equal(_one_stage_admissible(cs, basis, configs), expect)


def test_admissible_crafted_candidates_on_the_bending_cap():
    # x/y curvature 0.6 and 0.8 of the bend cap on T_2, so the magnitude sits
    # on the cap at both ends and below it inside; beyond it by 6e-13, within
    # the check's absolute tolerance, it is accepted, and beyond it by 6e-9,
    # within the end-point slack, the full grid rejects it
    basis, cs = studies.soft_basis(), studies.soft_constraints()
    b = cs.axis_bounds()[0]
    for scale, ok in ((1.0, True), (1.0 - 1e-9, True), (1.0 + 1e-13, True), (1.0 + 1e-9, False)):
        c = np.zeros(basis.m)
        c[[2, 5]] = scale * b * np.array([0.6, 0.8])
        u = basis.matrix(np.array([0.0, basis.length])) @ c
        assert np.hypot(u[:, 0], u[:, 1]) == pytest.approx(scale * b, rel=1e-15)
        assert cs.admissible(basis, c) is ok is _one_stage_admissible(cs, basis, c)


def test_admissible_rejects_malformed_stacks():
    cs = ConstraintSet(axis_cap=(1.0, 1.0, 1.0))
    basis = planar_basis()
    for bad in (np.zeros((2, 4)), np.zeros((2, 2, 3)), [[0.0, np.nan, 0.0]], np.zeros(2)):
        with pytest.raises(ValueError, match="coefficients"):
            cs.admissible(basis, bad)


@pytest.mark.parametrize("block", [1, 7])
def test_sampling_does_not_depend_on_block_size(monkeypatch, block):
    # the samples and the attempts they took are those of 256-candidate blocks
    cs, array, box = _stiff_strain_set()
    basis = studies.stiff_basis()
    draws = [lambda: studies.planar_workspace(20),
             lambda: studies.soft_workspace(3, 7),
             lambda: sample_admissible(basis, cs, 20, 12, strings=array.strings,
                                       box_scale=box)]
    monkeypatch.setattr(sensitivity, "SAMPLE_BLOCK", 256)
    expect = [draw() for draw in draws]
    monkeypatch.setattr(sensitivity, "SAMPLE_BLOCK", block)
    for draw, samples in zip(draws, expect):
        got = draw()
        np.testing.assert_array_equal(got.configs, samples.configs)
        assert got.attempts == samples.attempts
    assert [samples.attempts for samples in expect] == [94, 64, 29]


def _truth_pool_draw(seed):
    """The draw synthetic_spatial_truth makes for one round of the
    sensing-stream benchmark's truth pool: 20 frames on the degree-3 truth
    basis, cusp-free for the soft design (4, 3, 9, 4) at one twist rate."""
    basis = studies.soft_basis()
    truth = ModalBasis(x=(0, 1, 2, 3), y=(0, 1, 2, 3), z=(0, 1, 2), length=basis.length)
    array = studies.soft_design_space().array_for((4, 3, 9, 4), 1)
    return sample_admissible(truth, studies.soft_constraints(), 20, seed, strings=array.strings)


def test_staged_sampler_matches_one_stage_sampler(monkeypatch):
    draws = [lambda seed=seed: _truth_pool_draw(seed) for seed in (0, 1, 2)] + [
        lambda: studies.soft_workspace(200, 777),
        lambda: studies.stiff_workspace(200, 424242),
        lambda: studies.planar_workspace(200)]
    got = [draw() for draw in draws]
    monkeypatch.setattr(ConstraintSet, "admissible", _one_stage_admissible)
    for draw, samples in zip(draws, got):
        expect = draw()
        assert samples.configs.tobytes() == expect.configs.tobytes()
        assert samples.attempts == expect.attempts
    # the truth pool takes 27,271 + 30,243 + 30,155 candidates for 60 frames
    assert [samples.attempts for samples in got[:3]] == [27_271, 30_243, 30_155]


def test_sampler_builds_its_grids_once(monkeypatch):
    # one grids() per call and one admissible() per block, with the samples
    # of a sampler whose every block rebuilds them
    cs, array, box = _stiff_strain_set()
    basis = studies.stiff_basis()
    calls = {"grids": 0, "admissible": 0}
    grids, admissible = ConstraintSet.grids, ConstraintSet.admissible

    def draw():
        return sample_admissible(basis, cs, 300, 12, strings=array.strings,
                                 box_scale=2.0 * box).configs

    def counted_grids(self, *args):
        calls["grids"] += 1
        return grids(self, *args)

    def counted(self, *args):
        calls["admissible"] += 1
        return admissible(self, *args)

    monkeypatch.setattr(ConstraintSet, "grids", counted_grids)
    monkeypatch.setattr(ConstraintSet, "admissible", counted)
    got = draw()
    assert calls["grids"] == 1 and calls["admissible"] > 1
    monkeypatch.setattr(ConstraintSet, "admissible",
                        lambda self, basis, c, strings, given: admissible(self, basis, c, strings))
    np.testing.assert_array_equal(got, draw())


def test_global_index_single_sample_equals_pointwise():
    basis = planar_basis()
    array = planar_array()
    c = np.array([0.5, 0.2, -0.1])
    gi = global_index(array, basis, [c], 1.0, c_l=0.25)
    assert gi == pytest.approx(noise_amp(length_twist_map(array, basis, c, 1.0, c_l=0.25)))


def test_config_index_constant_over_configs_linear_class():
    basis = planar_basis()
    array = planar_array()
    vals = [noise_amp(config_jacobian(array, basis, c))
            for c in ([0, 0, 0], [1.0, 0.5, -0.5], [-2.0, 1.0, 0.3])]
    assert max(vals) - min(vals) <= 1e-12
