import functools
from dataclasses import replace

import numpy as np
import pytest

from stringshape import optimizer, studies
from stringshape.modal import ModalBasis
from stringshape.optimizer import (PLANAR_REFERENCE_RADIUS, DesignSpace, DesignedString,
                                   brute_force_search, improvement_beta,
                                   optimal_planar_anchors, planar_basis,
                                   planar_config_index, planar_config_jacobian,
                                   planar_full_index, planar_landscape, planar_peak_search,
                                   planar_sample_grams)
from stringshape.routing import ConstantPitch, Helical, Mount, StringSpec
from stringshape.sensing import (SensorArray, aleph_sv, config_jacobian, exact_row,
                                 has_exact_row, linear_model, span_integrals)
from stringshape.sensitivity import global_index, noise_amp


# Relative tolerance of the search against global_index and the three-SVD
# kernel: both take singular values of matrices with the same singular values
# (W and B), so they differ by round-off; 4.7e-10 at worst, at c_l = 1e-6.
REFERENCE_RTOL = 1e-9


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_planar_config_jacobian_matches_exact_rows(p):
    basis = ModalBasis(y=tuple(range(p)), length=1.0)
    radii = np.array([0.1, -0.2, 0.25, -0.15])[:p]
    anchors = np.random.default_rng(p).uniform(0.0, 1.0, (5, p))
    anchors[0] = 1.0
    ref = np.array([[exact_row(ConstantPitch(r, 0.0), basis, 0.0, a)
                     for r, a in zip(radii, row)] for row in anchors])
    np.testing.assert_allclose(planar_config_jacobian(radii, anchors), ref, rtol=0, atol=1e-15)


@pytest.mark.parametrize("objective", ["config", "full"])
def test_planar_landscape_matches_reference(objective):
    # The config landscape must agree with aleph of linear_model's J_lc, the
    # full one with global_index.  Two strings on one point (a1 = a2) leave
    # J_lc singular to round-off: the full index scores those exactly 0.
    radii = (0.1, -0.1, PLANAR_REFERENCE_RADIUS)
    basis = planar_basis()
    c_l = studies.PLANAR_CHARACTERISTIC_LENGTH
    workspace = studies.planar_workspace(4)
    if objective == "config":
        index = planar_config_index

        def reference(array):
            return noise_amp(linear_model(array, basis)[1])
    else:
        index = functools.partial(planar_full_index,
                                  gram_samples=planar_sample_grams(workspace, c_l))

        def reference(array):
            return global_index(array, basis, workspace, basis.length, c_l)
    axis, values = planar_landscape(radii, index, 0.1)
    ref = np.array([[reference(SensorArray(strings=tuple(
        StringSpec(ConstantPitch(r, 0.0), a) for r, a in zip(radii, (a_1, a_2, 1.0)))))
        for a_2 in axis] for a_1 in axis])
    assert np.abs(values - ref).max() <= 1e-9 * ref.max()
    if objective == "full":
        np.testing.assert_array_equal(np.diag(values), 0.0)


def test_improvement_beta():
    assert improvement_beta(2.0, 1.0) == pytest.approx(100.0)
    assert improvement_beta(1.0, 1.0) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        improvement_beta(1.0, 0.0)


def test_planar_config_peaks_match_reference_values():
    # frozen targets for the fixed-radius anchor study (see acceptance A1)
    radii = (0.10, -0.10, PLANAR_REFERENCE_RADIUS)
    peaks = planar_peak_search(radii, planar_config_index)
    assert len(peaks) >= 2
    locs = sorted((round(p.anchors[0], 3), round(p.anchors[1], 3)) for p in peaks[:2])
    assert abs(locs[0][0] - 0.204) < 0.01 and abs(locs[0][1] - 0.772) < 0.01
    assert abs(locs[1][0] - 0.772) < 0.01 and abs(locs[1][1] - 0.204) < 0.01
    assert peaks[0].value == pytest.approx(1.03e-3, rel=0.03)
    base = noise_amp(planar_config_jacobian(radii, [1.0 / 3.0, 2.0 / 3.0, 1.0]))
    assert improvement_beta(peaks[0].value, base) == pytest.approx(64, abs=3)


def test_planar_peak_symmetry_under_radius_swap():
    pk_a = planar_peak_search((0.10, -0.20, PLANAR_REFERENCE_RADIUS), planar_config_index)[0]
    pk_b = planar_peak_search((-0.20, 0.10, PLANAR_REFERENCE_RADIUS), planar_config_index)[0]
    assert pk_a.value == pytest.approx(pk_b.value, rel=1e-6)
    assert pk_a.anchors[0] == pytest.approx(pk_b.anchors[1], abs=1e-3)


def test_optimal_planar_anchors_rejects_more_than_four_strings():
    with pytest.raises(ValueError, match="p <= 4"):
        optimal_planar_anchors(5)


def test_optimal_planar_anchors_p3_matches_table_pattern():
    radii, anchors = optimal_planar_anchors(3)
    assert anchors[-1] == 1.0
    got = sorted(anchors[:-1])
    # equal-radius 0.25 pair peaks near (0.20, 0.75)
    assert abs(got[0] - 0.20) < 0.02
    assert abs(got[1] - 0.75) < 0.02


def _tiny_space():
    basis = ModalBasis(x=(0, 1), y=(0, 1), length=0.3)
    designed = tuple(DesignedString(ConstantPitch(0.05 * np.cos(t), 0.05 * np.sin(t)),
                                    mount=Mount.TIP)
                     for t in np.deg2rad([45, 135]))
    fixed = (StringSpec(ConstantPitch(0.06, 0.0), 0.3),
             StringSpec(ConstantPitch(0.0, 0.06), 0.3))
    return DesignSpace(basis=basis, designed=designed, fixed=fixed,
                       anchor_disks=(1, 2, 3), n_disks=3, twist_rates=(0,),
                       s_objectives=(0.15, 0.3), c_l=0.05)


def test_designed_string_takes_the_shared_twist_rate():
    helix = DesignedString(Helical(r_s=0.03, omega=5.0, alpha=0.2))
    assert helix.path_at(2.0) == Helical(r_s=0.03, omega=2.0, alpha=0.2)
    pitch = DesignedString(ConstantPitch(0.03, 0.01), mount=Mount.TIP)
    assert pitch.path_at(2.0) is pitch.path


def test_brute_force_enumeration_and_determinism():
    space = _tiny_space()
    assert space.size == 9
    samples = np.array([np.zeros(4), [1.0, 0.3, -0.5, 0.2], [-0.6, 0.1, 0.8, -0.2]])
    a = brute_force_search(space, samples)
    b = brute_force_search(space, samples)
    np.testing.assert_array_equal(a.order, b.order)
    np.testing.assert_allclose(a.aleph_g, b.aleph_g, atol=0)
    assert len(a.anchors) == 9


def test_brute_force_matches_direct_evaluation():
    from stringshape.sensing import config_jacobian
    from stringshape.sensitivity import global_index, noise_amp

    space = _tiny_space()
    samples = np.array([[0.5, -0.2, 0.7, 0.1], [-0.3, 0.4, -0.1, 0.6]])
    res = brute_force_search(space, samples)
    for idx in (0, 4, 8):
        array = space.array_for(res.anchors[idx], res.n_omega[idx])
        expect0 = noise_amp(config_jacobian(array, space.basis, np.zeros(4)))
        assert res.aleph_config[idx] == pytest.approx(expect0, rel=1e-6)
        gi = global_index(array, space.basis, samples, space.s_objectives[1],
                          space.c_l)
        assert res.aleph_g[idx, 1] == pytest.approx(gi, rel=1e-4)


@pytest.fixture(scope="module")
def helical_subspace():
    # Soft robot (helical strings, torsion column, fixed tendons at disks 10
    # and 7) limited to anchor disks 3, 6, 9 and n_omega = 1: 81 designs.
    space = replace(studies.soft_design_space(twist_rates=(1,)), anchor_disks=(3, 6, 9))
    samples = studies.soft_workspace(4, seed=5)
    return space, samples, brute_force_search(space, samples)


def test_brute_force_matches_global_index_on_helical_torsion_subspace(helical_subspace):
    space, samples, res = helical_subspace
    l_s = studies.SOFT_LENGTH / studies.SOFT_N_DISKS
    assert space.s_objectives == pytest.approx((4 * l_s, 6 * l_s, studies.SOFT_LENGTH))
    # The subspace's singular designs, all four strings on one disk, fail the
    # straight screen, so they are not scored and read 0; none is singular by
    # the workspace mean alone.
    straight = res.aleph_config < space.epsilon
    np.testing.assert_array_equal(res.singular, straight)
    assert np.flatnonzero(straight).tolist() == [0, 40, 80]
    assert np.all(res.aleph_g[res.singular] == 0.0)
    # the optimum per objective plus mixed-disk designs
    score = np.where(res.singular[:, None], -np.inf, res.aleph_g)
    picks = {int(np.argmax(score[:, k])) for k in range(3)} | {13, 50}
    for idx in sorted(picks):
        array = space.array_for(res.anchors[idx], res.n_omega[idx])
        gi = np.array([global_index(array, space.basis, samples, s, space.c_l)
                       for s in space.s_objectives])
        # Both paths take the J_lc rows from the same Gauss-Legendre panels
        # and the body Jacobians from the same 100 Magnus steps, so they
        # differ only in assembly.
        np.testing.assert_allclose(res.aleph_g[idx], gi, rtol=REFERENCE_RTOL, atol=0,
                                   err_msg=f"design {idx}")


def test_search_result_best_reads_the_requested_objective(helical_subspace):
    _, _, res = helical_subspace
    bests = [res.best(k) for k in range(3)]
    for k, i in enumerate(bests):
        assert not res.singular[i]
        assert res.aleph_g[i, k] == res.aleph_g[~res.singular, k].max()
    # the objectives disagree on this subspace, so ignoring the argument fails
    assert len(set(bests)) > 1
    assert res.best() == bests[-1] == int(res.order[0])


def test_search_row_of_off_grid_fixed_string_matches_config_jacobian():
    # A helical fixed string has no exact row even on the torsion-free tiny
    # basis; its anchor 0.1715 lies between the disks at 0.1 and 0.2.
    tiny = _tiny_space()
    spec = StringSpec(Helical(r_s=0.04, omega=9.0, alpha=0.3), 0.1715)
    assert not has_exact_row(spec.path, tiny.basis)
    space = replace(tiny, fixed=(tiny.fixed[0], spec))
    samples = np.array([[0.5, -0.2, 0.7, 0.1], [-0.3, 0.4, -0.1, 0.6]])
    for c in [np.zeros(4), *samples]:
        _, fixed = optimizer._cumulative_rows(space, c)
        expect = config_jacobian(SensorArray(strings=(spec,)), space.basis, c)[0]
        np.testing.assert_allclose(fixed[1], expect, rtol=1e-12, atol=0)
    res = brute_force_search(space, samples)
    for idx in (0, 4, 8):
        array = space.array_for(res.anchors[idx], res.n_omega[idx])
        gi = global_index(array, space.basis, samples, space.s_objectives[1], space.c_l)
        assert res.aleph_g[idx, 1] == pytest.approx(gi, rel=REFERENCE_RTOL)


def test_global_index_is_exactly_zero_where_the_search_is():
    # _tiny_space plus a fifth string: p = 5 channels on m = 4 columns, so
    # B = S J_xc J_lc^+ has rank 4 but five singular values.
    tiny = _tiny_space()
    space = replace(tiny, fixed=tiny.fixed + (StringSpec(ConstantPitch(-0.04, -0.03), 0.2),))
    samples = np.array([[0.5, -0.2, 0.7, 0.1], [-0.3, 0.4, -0.1, 0.6]])
    res = brute_force_search(space, samples)
    for idx in range(space.size):
        array = space.array_for(res.anchors[idx], res.n_omega[idx])
        for k, s in enumerate(space.s_objectives):
            assert global_index(array, space.basis, samples, s, space.c_l) == res.aleph_g[idx, k]


def test_brute_force_repeated_objective_arc_length():
    # objectives are kept by position: a repeated arc length is one more
    # column with the same values
    l_s = studies.SOFT_LENGTH / studies.SOFT_N_DISKS
    space = replace(studies.soft_design_space(twist_rates=(1,)), anchor_disks=(3, 6, 9))
    samples = studies.soft_workspace(2, seed=777)
    rep = brute_force_search(replace(space, s_objectives=(4 * l_s, 4 * l_s, space.basis.length)),
                             samples)
    ref = brute_force_search(replace(space, s_objectives=(4 * l_s, space.basis.length)), samples)
    np.testing.assert_array_equal(rep.aleph_g[:, 0], rep.aleph_g[:, 1])
    np.testing.assert_array_equal(rep.aleph_g[:, 0], ref.aleph_g[:, 0])
    np.testing.assert_array_equal(rep.aleph_g[:, 2], ref.aleph_g[:, 1])


def test_brute_force_output_independent_of_jobs(monkeypatch):
    monkeypatch.setattr(optimizer, "DESIGN_CHUNK", 2)
    space = _tiny_space()
    samples = np.array([[0.5, -0.2, 0.7, 0.1], [-0.3, 0.4, -0.1, 0.6]])
    a = brute_force_search(space, samples, jobs=1)
    b = brute_force_search(space, samples, jobs=2)
    for field in ("anchors", "n_omega", "aleph_config", "aleph_g", "singular", "order"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field), err_msg=field)


def test_searches_of_one_space_share_a_read_only_enumeration():
    space = _tiny_space()
    samples = np.array([[0.5, -0.2, 0.7, 0.1], [-0.3, 0.4, -0.1, 0.6]])
    a = brute_force_search(space, samples)
    b = brute_force_search(space, samples)
    assert np.shares_memory(a.anchors, b.anchors)
    assert np.shares_memory(a.n_omega, b.n_omega)
    with pytest.raises(ValueError, match="read-only"):
        a.anchors[0, 0] = 3
    with pytest.raises(ValueError, match="read-only"):
        a.n_omega[0] = 1
    # another space gets its own enumeration
    c = brute_force_search(replace(space, anchor_disks=(1, 2)), samples)
    assert len(c.anchors) == 4 and not np.shares_memory(a.anchors, c.anchors)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no
    process and maps in the calling one."""

    started = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_brute_force_starts_no_more_workers_than_chunks(monkeypatch):
    monkeypatch.setattr(optimizer, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "started", [])
    space = _tiny_space()
    samples = np.array([[0.5, -0.2, 0.7, 0.1], [-0.3, 0.4, -0.1, 0.6]])
    ref = brute_force_search(space, samples)
    # 9 designs are one chunk: any job count runs serially
    one = brute_force_search(space, samples, jobs=500)
    assert _RecordingPool.started == []
    monkeypatch.setattr(optimizer, "DESIGN_CHUNK", 4)    # three chunks
    three = brute_force_search(space, samples, jobs=500)
    assert _RecordingPool.started == [3]
    for res in (one, three):
        np.testing.assert_array_equal(res.aleph_g, ref.aleph_g)
        np.testing.assert_array_equal(res.order, ref.order)


def test_brute_force_rejects_empty_objectives():
    space = replace(_tiny_space(), s_objectives=())
    with pytest.raises(ValueError, match="s_objectives is empty"):
        brute_force_search(space, np.zeros((1, 4)))


def test_brute_force_cap(monkeypatch):
    monkeypatch.setattr(optimizer, "MAX_DESIGNS", 5)
    space = _tiny_space()
    with pytest.raises(ValueError, match="size 9 exceeds 5"):
        brute_force_search(space, np.zeros((1, 4)))


@pytest.mark.parametrize("n_omega", [0, 1])
def test_disk_edge_rows_match_config_jacobian_on_soft_preset(n_omega):
    # The search's rows at every disk edge are config_jacobian's rows of the
    # single string anchored there (base mount); from each edge to L they are
    # the tip-mounted string's row.  Bit for bit: the disk edges lie on the
    # panel grid, so both sum the same panels in the same order.
    space = studies.soft_design_space()
    basis = space.basis
    edges = np.arange(space.n_disks + 1) * basis.length / space.n_disks
    iw = space.twist_rates.index(n_omega)
    for c in [np.zeros(basis.m), *studies.soft_workspace(2, seed=5).configs]:
        designed, _ = optimizer._cumulative_rows(space, c)
        for i, ds in enumerate(space.designed):
            path = ds.path_at(space.omega_of(n_omega))
            for k, edge in enumerate(edges):
                base = SensorArray((StringSpec(path, edge, Mount.BASE),))
                tip = SensorArray((StringSpec(path, edge, Mount.TIP),))
                assert np.array_equal(designed[iw, i, k], config_jacobian(base, basis, c)[0])
                assert np.array_equal(span_integrals(path, basis, c, edge, edges[k:])[1][-1],
                                      config_jacobian(tip, basis, c)[0])


def test_stiff_space_singular_counting():
    # three-or-more strings on one disk is always flagged singular; with the
    # opposite string pairs radially collinear, the full singular set is the
    # 225 designs sharing a disk within either opposite pair
    space = studies.stiff_design_space()
    assert space.size == 625
    samples = studies.stiff_workspace(3, seed=1).configs
    res = brute_force_search(space, samples)
    anchors = res.anchors
    multi = np.array([np.bincount(a).max() >= 3 for a in anchors])
    assert multi.sum() == 85
    assert res.singular[multi].all()
    pair_clash = np.array([a[0] == a[2] or a[1] == a[3] for a in anchors])
    assert int(res.singular.sum()) == 225
    assert np.array_equal(res.singular, pair_clash)


# ---------------------------------------------------------------------------
# Differential tests of the search kernel against the three-SVD kernel it
# replaced, kept here verbatim as the slow reference.
# ---------------------------------------------------------------------------

def _three_svd_chunk(payload):
    (space, channels, anc, iws, all_des, all_fix, jxc) = payload
    # row sample 0 is the straight configuration
    des_rows, fix_rows, des0, fix0 = all_des[1:], all_fix[1:], all_des[0], all_fix[0]
    m = space.basis.m
    n_designed = len(space.designed)
    n_strings = n_designed + len(space.fixed)
    n_samp = des_rows.shape[0]
    nd = len(anc)
    # straight-configuration screen; rows are string-major for the folding
    rows0 = np.zeros((n_strings, nd, m))
    for i in range(n_designed):
        rows0[i] = des0[iws, i, anc[:, i], :]
    rows0[n_designed:] = fix0[:, None]
    a0 = aleph_sv(np.linalg.svd(np.moveaxis(channels.reduce(rows0), 0, -2), compute_uv=False))
    bad = a0 < space.epsilon
    # per-sample Jacobians
    rows = np.zeros((n_strings, nd, n_samp, m))
    for i in range(n_designed):
        rows[i] = des_rows[:, iws, i, anc[:, i], :].transpose(1, 0, 2)
    rows[n_designed:] = fix_rows.transpose(1, 0, 2)[:, None]
    jlc = np.moveaxis(channels.reduce(rows), 0, -2)
    u_m, s_m, vt_m = np.linalg.svd(jlc, full_matrices=False)
    bad |= aleph_sv(s_m).mean(axis=1) < space.epsilon
    inv_s = np.divide(1.0, s_m, out=np.zeros_like(s_m),
                      where=s_m > 1e-12 * s_m[..., :1])
    pinv = np.einsum("...ji,...j,...kj->...ik", vt_m, inv_s, u_m)
    ag = np.zeros((nd, len(space.s_objectives)))
    for k in range(len(space.s_objectives)):
        sv = np.linalg.svd(jxc[k][None] @ pinv, compute_uv=False)
        ag[:, k] = aleph_sv(sv).mean(axis=1)
    return a0, ag, bad


def _search_and_reference(monkeypatch, space, samples):
    new = brute_force_search(space, samples)
    with monkeypatch.context() as patched:
        patched.setattr(optimizer, "_evaluate_chunk", _three_svd_chunk)
        ref = brute_force_search(space, samples)
    return new, ref


def _rel_err(new, ref):
    return np.abs(new.aleph_g - ref.aleph_g) / ref.aleph_g


def _assert_matches_reference(new, ref):
    """Identical screens, every non-singular design within REFERENCE_RTOL and
    the best design the same up to ties of 1e-12."""
    np.testing.assert_array_equal(new.singular, ref.singular)
    np.testing.assert_array_equal(new.aleph_config, ref.aleph_config)
    healthy = ~ref.singular
    assert healthy.any()
    assert _rel_err(new, ref)[healthy].max() <= REFERENCE_RTOL
    for k in range(ref.aleph_g.shape[1]):
        best_ref = int(np.argmax(np.where(ref.singular, -np.inf, ref.aleph_g[:, k])))
        best_new = int(np.argmax(np.where(new.singular, -np.inf, new.aleph_g[:, k])))
        assert ref.aleph_g[best_new, k] >= (1.0 - 1e-12) * ref.aleph_g[best_ref, k]


def test_search_kernel_matches_three_svd_reference_on_soft_subspace(monkeypatch):
    # helical strings with torsion, both twist rates, anchor disks 3, 6, 9
    space = replace(studies.soft_design_space(), anchor_disks=(3, 6, 9))
    assert space.twist_rates == (0, 1)
    new, ref = _search_and_reference(monkeypatch, space, studies.soft_workspace(4, seed=5))
    _assert_matches_reference(new, ref)


def test_search_kernel_matches_three_svd_reference_on_stiff_preset(monkeypatch):
    # J_lc is constant on this preset, so all 225 singular designs fail the
    # straight screen: they are not scored and read exactly 0, where the
    # reference scores them at round-off (below 1e-32).
    space = studies.stiff_design_space()
    new, ref = _search_and_reference(monkeypatch, space, studies.stiff_workspace(6, seed=1))
    assert int(new.singular.sum()) == 225
    np.testing.assert_array_equal(new.singular, new.aleph_config < space.epsilon)
    _assert_matches_reference(new, ref)
    assert np.all(new.aleph_g[new.singular] == 0.0)


@pytest.mark.parametrize("preset, served", [("stiff", 48), ("soft", 24)])
def test_search_kernel_rank_deficient_sample_matches_three_svd_reference(monkeypatch, preset,
                                                                         served):
    # No preset design passes both screens and loses rank at a sample, so the
    # truncated pseudo-inverse is served by an edited payload: designed string
    # 1 takes string 0's rows at workspace sample 2 (row sample 3) only.
    # Designs with both strings on one disk then have two equal rows there,
    # while their straight J_lc is untouched.  On the stiff preset (m = 6) B
    # loses rank with J_lc and the sample scores round-off; on the soft
    # subspace (m = 8) J_lc keeps rank 7 and the sample scores above 0.
    if preset == "stiff":
        space, samples = studies.stiff_design_space(), studies.stiff_workspace(6, seed=1)
    else:
        space = replace(studies.soft_design_space(), anchor_disks=(3, 6, 9))
        samples = studies.soft_workspace(4, seed=5)
    payloads = []
    with monkeypatch.context() as patched:
        patched.setattr(optimizer, "_evaluate_chunk",
                        lambda pl: payloads.append(pl) or _three_svd_chunk(pl))
        brute_force_search(space, samples)
    space, channels, anc, iws, des_rows, fix_rows, jxc = payloads[0]
    des_rows = des_rows.copy()
    des_rows[3, :, 1] = des_rows[3, :, 0]
    payload = (space, channels, anc, iws, des_rows, fix_rows, jxc)
    a0, ag, bad = optimizer._evaluate_chunk(payload)
    r0, rg, rbad = _three_svd_chunk(payload)
    np.testing.assert_array_equal(bad, rbad)
    np.testing.assert_array_equal(a0, r0)
    # designs that pass both screens and take the pseudo-inverse at that sample
    assert int((~bad & (anc[:, 0] == anc[:, 1])).sum()) == served
    assert (np.abs(ag - rg) / rg)[~bad].max() <= REFERENCE_RTOL


def test_search_kernel_overdetermined_spaces(monkeypatch):
    # Stiff preset plus a seventh channel (p = 7 > m = 6): J_lc is replaced by
    # its R factor.  The best designs also agree with global_index, which
    # takes the pseudo-inverse of the 7 x 6 Jacobian.
    base = studies.stiff_design_space()
    extra = StringSpec(ConstantPitch(studies.STIFF_STRING_RADIUS, 0.0), studies.STIFF_LENGTH)
    space = replace(base, fixed=base.fixed + (extra,))
    assert space.array_for((1, 2, 3, 4), 0).p == 7
    samples = studies.stiff_workspace(6, seed=1)
    new, ref = _search_and_reference(monkeypatch, space, samples)
    _assert_matches_reference(new, ref)
    for k, s_obj in enumerate(space.s_objectives):
        best = int(np.argmax(np.where(new.singular, -np.inf, new.aleph_g[:, k])))
        array = space.array_for(new.anchors[best], new.n_omega[best])
        gi = global_index(array, space.basis, samples, s_obj, space.c_l)
        assert new.aleph_g[best, k] == pytest.approx(gi, rel=1e-9)

    # Tiny space plus a fifth channel on a 4-column basis: B = S J_xc J_lc^+
    # has rank 4 but five singular values, so the index is exactly 0 where
    # the three-SVD kernel returns round-off.
    tiny = _tiny_space()
    space = replace(tiny, fixed=tiny.fixed + (StringSpec(ConstantPitch(-0.04, -0.03), 0.2),))
    samples = np.array([[0.5, -0.2, 0.7, 0.1], [-0.3, 0.4, -0.1, 0.6]])
    new, ref = _search_and_reference(monkeypatch, space, samples)
    np.testing.assert_array_equal(new.singular, ref.singular)
    assert np.all(new.aleph_g[~new.singular] == 0.0)
    assert np.abs(ref.aleph_g).max() < 1e-20
    array = space.array_for(new.anchors[0], new.n_omega[0])
    assert global_index(array, space.basis, samples, space.s_objectives[1], space.c_l) < 1e-20


def test_search_kernel_conditioning_guard(monkeypatch):
    # c_l = 1e-6 shrinks the angular rows of S J_xc a millionfold, so W is
    # ill conditioned: the eigenvalues of its Gram put the index off by more
    # than 1e-7 relative, its singular values keep it at the reference.
    space = replace(studies.soft_design_space(), anchor_disks=(3, 6, 9), c_l=1e-6)
    new, ref = _search_and_reference(monkeypatch, space, studies.soft_workspace(3, seed=5))
    _assert_matches_reference(new, ref)
