import numpy as np
import pytest

from stringshape import optimizer, studies
from stringshape.sensing import Reference, lengths, solve_shape


def test_planar_workspace_reproducible_and_bounded():
    a = studies.planar_workspace(40, seed=3)
    b = studies.planar_workspace(40, seed=3)
    np.testing.assert_array_equal(a.configs, b.configs)
    basis = studies.planar_basis()
    s = np.linspace(0, 1, 200)
    phi = basis.matrix(s)
    cap = min(studies.PLANAR_BOX_CURVATURE, studies.planar_strain_curvature())
    for c in a.configs:
        assert np.abs(phi @ c).max() <= cap + 1e-9


def test_stiff_space_shape():
    space = studies.stiff_design_space()
    assert space.size == 625
    assert len(space.designed) == 4 and len(space.fixed) == 4
    array = space.array_for((1, 2, 3, 4), 0)
    assert array.p == 6            # 4 strings + 2 composite tendon channels
    assert space.basis.m == 6


def test_stiff_workspace_box_is_load_envelope():
    # Curvature coefficients fill the load-envelope box in physical units
    # (PLANAR_BOX_CURVATURE / PLANAR_ROD_LENGTH, about 7.96 1/m), which lies
    # inside the 5 % strain limit of the 4 mm backbone (25 1/m).
    box = studies.PLANAR_BOX_CURVATURE / studies.PLANAR_ROD_LENGTH
    assert box == pytest.approx(7.9577, rel=1e-4)
    configs = studies.stiff_workspace(200, seed=424242).configs
    top = np.abs(configs).max()
    assert box * 0.98 <= top <= box


def test_stiff_composites_mirror_antagonistic_pairs():
    # opposite-side tendon pair carries the mirrored signal of the modeled one
    space = studies.stiff_design_space()
    array = space.array_for((1, 2, 3, 4), 0)
    basis = space.basis
    rng = np.random.default_rng(0)
    c = rng.uniform(-1.0, 1.0, 6)
    vals = lengths(array, basis, c, Reference.DELTA_FROM_STRAIGHT)
    # composite channels are signed sums of full-length tendon pairs; the
    # mirrored pair (radii negated) would give the negated channel value
    from stringshape.routing import ConstantPitch, StringSpec
    from stringshape.sensing import SensorArray
    mirrored = tuple(
        StringSpec(ConstantPitch(-s.path.r_x, -s.path.r_y), s.s_anchor, s.mount)
        for s in array.strings[4:6])
    arr_m = SensorArray(strings=array.strings[:4] + mirrored + array.strings[6:],
                        composites=array.composites)
    vals_m = lengths(arr_m, basis, c, Reference.DELTA_FROM_STRAIGHT)
    assert vals_m[4] == pytest.approx(-vals[4], abs=1e-12)


def test_soft_space_shape():
    space = studies.soft_design_space()
    assert space.size == 20_000
    array = space.array_for((4, 3, 9, 4), 1)
    assert array.p == 8
    assert space.basis.m == 8
    # twist rate: one hole pitch per subsegment
    from stringshape.routing import Helical
    omega = space.omega_of(1)
    assert omega == pytest.approx((2 * np.pi / 32) / (0.293 / 10))
    assert isinstance(array.strings[0].path, Helical)
    assert array.strings[0].path.omega == pytest.approx(omega)


def test_soft_workspace_limits():
    ws = studies.soft_workspace(30, seed=5)
    basis = studies.soft_basis()
    s = np.linspace(0, basis.length, 200)
    phi = basis.matrix(s)
    bend = np.deg2rad(10) / (0.293 / 10)
    twist = np.deg2rad(7.5) / (0.293 / 10)
    for c in ws.configs:
        u = phi @ c
        assert np.hypot(u[:, 0], u[:, 1]).max() <= bend + 1e-9
        assert np.abs(u[:, 2]).max() <= twist + 1e-9


def test_soft_round_trip_through_preset():
    space = studies.soft_design_space()
    array = space.array_for((5, 5, 9, 10), 1)
    basis = space.basis
    rng = np.random.default_rng(17)
    c_true = rng.uniform(-1.0, 1.0, 8)
    meas = lengths(array, basis, c_true, Reference.DELTA_FROM_STRAIGHT)
    sol = solve_shape(array, basis, meas)
    assert np.linalg.norm(sol.c - c_true) <= 1e-6


def test_planar_config_study_mirror_pair_takes_swapped_peaks():
    # (0.2, -0.1) has the transposed landscape of (0.1, -0.2): its rows are
    # that pair's peaks with the anchors swapped, value for value, with beta
    # against its own evenly spaced baseline, and they agree with a direct
    # search of its own landscape to within the refinement's stopping step.
    rows = studies.planar_config_study()
    by_pair = {}
    for row in rows:
        by_pair.setdefault((row.r_1, row.r_2), []).append(row)
    radii = (0.20, -0.10, optimizer.PLANAR_REFERENCE_RADIUS)
    base = optimizer.planar_config_index(
        optimizer.planar_config_jacobian(radii, [1.0 / 3.0, 2.0 / 3.0, 1.0]))
    direct = optimizer.planar_peak_search(radii, optimizer.planar_config_index,
                                          studies.PLANAR_CONFIG_STEP)
    assert len(by_pair[(0.20, -0.10)]) == 2
    for a, b, pk in zip(by_pair[(0.10, -0.20)], by_pair[(0.20, -0.10)], direct):
        assert (b.anchor_1, b.anchor_2, b.value) == (a.anchor_2, a.anchor_1, a.value)
        assert b.beta == optimizer.improvement_beta(b.value, base)
        assert max(abs(b.anchor_1 - pk.anchors[0]), abs(b.anchor_2 - pk.anchors[1])) <= 1e-5
        assert b.value == pytest.approx(pk.value, rel=1e-9)
