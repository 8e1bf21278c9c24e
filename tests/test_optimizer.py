import functools
import os
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
from stringshape.sensing import (SIGMA_RATIO_TOL, Composite, SensorArray, aleph_sv,
                                 config_jacobian, exact_row, full_rank, has_exact_row,
                                 linear_model, span_integrals)
from stringshape.sensitivity import global_index, noise_amp


# Relative tolerance of the search against global_index and the three-SVD
# kernel.  The search takes the eigenvalues of a graded Gram where
# kappa_8(A) kappa(S J_xc) allows (optimizer.GRAM_COND_MAX), and the singular
# values of W elsewhere; its workspace means lie within 8.3e-11 of the SVD
# of W at every sample on both presets.  At c_l = 1e-6 every sample takes
# the SVD of W, which differs from the three-SVD kernel by round-off, 4.7e-10
# at worst.
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
    # equal-radius 0.25 pair peaks near (0.20, 0.75)
    assert abs(anchors[0] - 0.20) < 0.02
    assert abs(anchors[1] - 0.75) < 0.02
    # permutations of the strings off the end disk tie; the increasing one is returned
    for p in (2, 3, 4):
        assert np.all(np.diff(optimal_planar_anchors(p)[1]) > 0), p


def _golden_one_start(radii, index, x0, grid_step):
    """Reference: the golden-section refinement of a single start, with
    scalar brackets and one index call per point."""
    def fn(x):
        return float(index(planar_config_jacobian(radii, [*x, 1.0])))

    lo, hi, span = grid_step, 1.0 - grid_step, 2 * grid_step
    x = np.array(x0, dtype=float)
    for _ in range(optimizer.GOLDEN_ROUNDS):
        for k in range(len(x)):
            a = max(lo, x[k] - span)
            b = min(hi, x[k] + span)

            def g(t):
                y = x.copy()
                y[k] = t
                return fn(y)

            c1 = b - optimizer.GOLDEN * (b - a)
            c2 = a + optimizer.GOLDEN * (b - a)
            f1, f2 = g(c1), g(c2)
            while b - a > optimizer.GOLDEN_TOL:
                if f1 < f2:
                    a, c1, f1 = c1, c2, f2
                    c2 = a + optimizer.GOLDEN * (b - a)
                    f2 = g(c2)
                else:
                    b, c2, f2 = c2, c1, f1
                    c1 = b - optimizer.GOLDEN * (b - a)
                    f1 = g(c1)
            x[k] = 0.5 * (a + b)
        span *= 0.25
    return x, fn(x)


def _tip_index(n_samples):
    grams = planar_sample_grams(studies.planar_workspace(n_samples),
                                studies.PLANAR_CHARACTERISTIC_LENGTH)
    return functools.partial(planar_full_index, gram_samples=grams)


def _flat_index(jac):
    return np.zeros(jac.shape[:-2])


# "flat" ties every comparison, which moves b
@pytest.mark.parametrize("objective, grid_step",
                         [("config", 0.004), ("full", 0.01), ("flat", 0.01)])
def test_lockstep_golden_refine_matches_one_start_at_a_time(objective, grid_step):
    radii = (0.10, -0.20, PLANAR_REFERENCE_RADIUS)
    index = {"config": planar_config_index, "flat": _flat_index}.get(objective) or _tip_index(4)
    axis, values = planar_landscape(radii, index, grid_step)
    # the landscape's own maxima, and starts on and next to the grid edges,
    # whose clipped brackets close in fewer steps
    starts = np.concatenate([axis[optimizer._local_maxima(values)],
                             axis[[[0, 40], [-1, 20], [1, -2], [0, -1], [50, 1]]]])
    rows_per_call = []

    def counted(jac):
        rows_per_call.append(len(jac))
        return index(jac)

    x, v = optimizer._golden_refine(radii, counted, starts, grid_step)
    for start, x_k, v_k in zip(starts, x, v):
        ref_x, ref_v = _golden_one_start(radii, index, start, grid_step)
        np.testing.assert_array_equal(x_k, ref_x)
        assert v_k == ref_v
    # every call but the first and last of a line search is on the open rows,
    # which are fewer than all starts once the clipped brackets have closed
    assert min(rows_per_call) < len(starts) < max(rows_per_call)


# Grids of 499 and 99 rows end in a partial block; p = 4 has 24 rows a side.
@pytest.mark.parametrize("p, grid_step, objective",
                         [(2, 0.002, "config"), (3, 0.01, "config"), (3, 0.01, "full"),
                          (4, 0.04, "config")])
def test_landscape_blocks_match_one_index_call(p, grid_step, objective):
    radii = (0.20, -0.10, 0.15, PLANAR_REFERENCE_RADIUS)[-p:]
    index = planar_config_index if objective == "config" else _tip_index(5)
    axis, values = planar_landscape(radii, index, grid_step)
    grids = np.meshgrid(*[axis] * (p - 1), indexing="ij")
    anchors = np.stack([*grids, np.ones_like(grids[0])], axis=-1)
    np.testing.assert_array_equal(values, index(planar_config_jacobian(radii, anchors)))


def _sorted_within_groups(radii, shape):
    """Grid indices (d, *shape) of every placement and of its representative,
    the indices sorted within each group of free strings of equal |r|."""
    ids = np.indices(shape)
    free = np.abs(np.asarray(radii[:-1]))
    rep = ids.copy()
    for r in np.unique(free):
        group = np.flatnonzero(free == r)
        rep[group] = np.sort(ids[group], axis=0)
    return ids, rep


# Two equal-|r| strings on both study grids, three (the radii of
# optimal_planar_anchors(4)), and an equal-|r| pair around a third string.
@pytest.mark.parametrize("radii, grid_step, objective",
                         [((0.10, -0.10, PLANAR_REFERENCE_RADIUS), 0.004, "config"),
                          ((0.10, -0.10, PLANAR_REFERENCE_RADIUS), 0.01, "full"),
                          ((-0.25, 0.25, -0.25, 0.25), 0.04, "config"),
                          ((0.10, 0.20, -0.10, PLANAR_REFERENCE_RADIUS), 0.04, "config")])
def test_orbit_landscape_matches_one_index_call(radii, grid_step, objective):
    index = planar_config_index if objective == "config" else _tip_index(20)
    axis, values = planar_landscape(radii, index, grid_step)
    grids = np.meshgrid(*[axis] * (len(radii) - 1), indexing="ij")
    ref = index(planar_config_jacobian(radii, np.stack([*grids, np.ones_like(grids[0])], -1)))
    ids, rep = _sorted_within_groups(radii, values.shape)
    # representatives bit for bit; every other placement takes its
    # representative's value, within round-off of its own
    on_rep = np.all(ids == rep, axis=0)
    np.testing.assert_array_equal(values[on_rep], ref[on_rep])
    np.testing.assert_array_equal(values, values[tuple(rep)])
    assert np.abs(values - ref).max() <= 1e-12 * ref.max()
    if objective == "full":
        np.testing.assert_array_equal(np.diag(values), 0.0)


def test_equal_radius_landscape_evaluates_each_orbit_once():
    points = []

    def counted(jac):
        points.append(len(jac))
        return planar_config_index(jac)

    axis, _ = planar_landscape((0.10, -0.10, PLANAR_REFERENCE_RADIUS), counted, 0.004)
    n = len(axis)
    assert sum(points) == n * (n + 1) // 2
    # LANDSCAPE_BLOCK grid rows' worth per call, the last call the rest
    block = optimizer.LANDSCAPE_BLOCK * n
    assert points[:-1] == [block] * (len(points) - 1) and 0 < points[-1] <= block


def test_peak_search_of_a_landscape_without_maxima():
    # a constant index has no strict maximum: nothing to refine
    assert planar_peak_search((0.1, -0.1, PLANAR_REFERENCE_RADIUS),
                              lambda jac: np.ones(jac.shape[:-2]), 0.1) == []


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
    # soft subspace (helical strings, torsion, both twist rates): 162 designs
    # in seven blocks of 25, scored by one to three threads and by the
    # default count
    monkeypatch.setattr(optimizer, "BLOCK_DESIGN_SAMPLES", 100)
    space = replace(studies.soft_design_space(), anchor_disks=(3, 6, 9))
    samples = studies.soft_workspace(4, seed=5)
    ref = brute_force_search(space, samples, jobs=1)
    for jobs in (2, 3, None):
        res = brute_force_search(space, samples, jobs=jobs)
        for field in ("anchors", "n_omega", "aleph_config", "aleph_g", "singular", "order",
                      "s_objectives", "n_scored"):
            np.testing.assert_array_equal(getattr(res, field), getattr(ref, field),
                                          err_msg=f"{field} at jobs={jobs}")


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
    """Stands in for ThreadPoolExecutor: records max_workers, starts no
    thread and maps in the calling one."""

    started = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


_TINY_SAMPLES = np.array([[0.5, -0.2, 0.7, 0.1], [-0.3, 0.4, -0.1, 0.6]])


def test_brute_force_starts_no_more_workers_than_chunks(monkeypatch):
    monkeypatch.setattr(optimizer, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "started", [])
    space = _tiny_space()
    ref = brute_force_search(space, _TINY_SAMPLES, jobs=1)
    # 9 designs on 2 samples are one block: any job count runs serially
    one = brute_force_search(space, _TINY_SAMPLES, jobs=500)
    assert _RecordingPool.started == []
    monkeypatch.setattr(optimizer, "BLOCK_DESIGN_SAMPLES", 8)    # three blocks of 4, 4, 1
    three = brute_force_search(space, _TINY_SAMPLES, jobs=500)
    assert _RecordingPool.started == [3]
    for res in (one, three):
        np.testing.assert_array_equal(res.aleph_g, ref.aleph_g)
        np.testing.assert_array_equal(res.order, ref.order)


def test_default_jobs_is_the_affinity_count_capped_at_the_blocks(monkeypatch):
    monkeypatch.setattr(optimizer, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "started", [])
    monkeypatch.setattr(optimizer, "BLOCK_DESIGN_SAMPLES", 8)    # three blocks
    space = _tiny_space()
    own = min(optimizer.default_jobs(), 3)
    brute_force_search(space, _TINY_SAMPLES)
    assert _RecordingPool.started == ([own] if own > 1 else [])
    for cpus, started in ((5, 3), (2, 2), (1, None)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                            raising=False)
        assert optimizer.default_jobs() == cpus
        _RecordingPool.started = []
        brute_force_search(space, _TINY_SAMPLES)
        assert _RecordingPool.started == ([started] if started else [])
    # without an affinity call, the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert optimizer.default_jobs() == 7


@pytest.mark.parametrize("jobs", [1, 2])
def test_exception_in_one_block_propagates(monkeypatch, jobs):
    monkeypatch.setattr(optimizer, "BLOCK_DESIGN_SAMPLES", 8)    # three blocks
    kernel = optimizer._evaluate_chunk

    def failing(payload):
        if len(payload[2]) == 1:
            raise FloatingPointError("block of the last design")
        return kernel(payload)

    monkeypatch.setattr(optimizer, "_evaluate_chunk", failing)
    with pytest.raises(FloatingPointError, match="block of the last design"):
        brute_force_search(_tiny_space(), _TINY_SAMPLES, jobs=jobs)


@pytest.mark.parametrize("name, n_samples, sizes", [
    ("tiny", 2, [9]),
    ("soft", 3, [162]),
    ("stiff", 24, [50, 50, 50, 50, 25]),
    ("soft", 200, [6] * 27),
])
def test_no_block_exceeds_the_design_sample_budget(monkeypatch, name, n_samples, sizes):
    # blocks of max(1, BLOCK_DESIGN_SAMPLES // S) representatives: 400 designs
    # at 3 samples, 50 at 24 and 6 at 200
    if name == "tiny":
        space, samples = _tiny_space(), _TINY_SAMPLES
    elif name == "stiff":
        space, samples = studies.stiff_design_space(), studies.stiff_workspace(n_samples, seed=3)
    else:
        space = replace(studies.soft_design_space(), anchor_disks=(3, 6, 9))
        samples = np.zeros((n_samples, space.basis.m))
    blocks = []
    kernel = optimizer._evaluate_chunk
    monkeypatch.setattr(optimizer, "_evaluate_chunk",
                        lambda pl: blocks.append((len(pl[2]), pl[6].shape[1])) or kernel(pl))
    res = brute_force_search(space, samples)
    assert [s for _, s in blocks] == [n_samples] * len(blocks)
    assert sorted(n for n, _ in blocks) == sorted(sizes)
    assert sum(sizes) == res.n_scored
    assert all(n * n_samples <= optimizer.BLOCK_DESIGN_SAMPLES for n, _ in blocks)


def test_samples_beyond_the_budget_make_one_design_blocks(monkeypatch):
    monkeypatch.setattr(optimizer, "BLOCK_DESIGN_SAMPLES", 1)
    blocks = []
    kernel = optimizer._evaluate_chunk
    monkeypatch.setattr(optimizer, "_evaluate_chunk",
                        lambda pl: blocks.append(len(pl[2])) or kernel(pl))
    ref = brute_force_search(_tiny_space(), _TINY_SAMPLES, jobs=1)
    assert blocks == [1] * 9
    np.testing.assert_array_equal(
        brute_force_search(_tiny_space(), _TINY_SAMPLES, jobs=3).aleph_g, ref.aleph_g)


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
# replaced, kept here as the slow reference; it follows the one rank rule, so
# a sample whose J_lc fails full_rank scores 0.
# ---------------------------------------------------------------------------

def _reference_jlc(payload):
    """J_lc of every design of a payload with rows at all 1 + S row samples:
    straight (n_designs, p, m) and per workspace sample (n_designs, S, p, m)."""
    (space, channels, anc, iws, all_des, all_fix, *_) = payload
    # row sample 0 is the straight configuration
    des_rows, fix_rows, des0, fix0 = all_des[1:], all_fix[1:], all_des[0], all_fix[0]
    m = space.basis.m
    n_designed = len(space.designed)
    n_strings = n_designed + len(space.fixed)
    n_samp = des_rows.shape[0]
    nd = len(anc)
    # rows are string-major for the folding
    rows0 = np.zeros((n_strings, nd, m))
    for i in range(n_designed):
        rows0[i] = des0[iws, i, anc[:, i], :]
    rows0[n_designed:] = fix0[:, None]
    rows = np.zeros((n_strings, nd, n_samp, m))
    for i in range(n_designed):
        rows[i] = des_rows[:, iws, i, anc[:, i], :].transpose(1, 0, 2)
    rows[n_designed:] = fix_rows.transpose(1, 0, 2)[:, None]
    return (np.moveaxis(channels.reduce(rows0), 0, -2),
            np.moveaxis(channels.reduce(rows), 0, -2))


def _three_svd_chunk(payload):
    space, jxc = payload[0], payload[6]
    straight, jlc = _reference_jlc(payload)
    # straight-configuration screen
    a0 = aleph_sv(np.linalg.svd(straight, compute_uv=False))
    bad = a0 < space.epsilon
    nd = len(straight)
    u_m, s_m, vt_m = np.linalg.svd(jlc, full_matrices=False)
    bad |= aleph_sv(s_m).mean(axis=1) < space.epsilon
    full = full_rank(s_m)
    inv_s = np.divide(1.0, s_m, out=np.zeros_like(s_m),
                      where=s_m > SIGMA_RATIO_TOL * s_m[..., :1])
    pinv = np.einsum("...ji,...j,...kj->...ik", vt_m, inv_s, u_m)
    ag = np.zeros((nd, len(space.s_objectives)))
    for k in range(len(space.s_objectives)):
        sv = np.linalg.svd(jxc[k][None] @ pinv, compute_uv=False)
        ag[:, k] = (full * aleph_sv(sv)).mean(axis=1)
    return a0, ag, bad


def _rows_per_sample(payload):
    """The payload with its cumulative rows at all 1 + S row samples: a
    linear-class search passes the straight rows alone, which serve every
    sample, and they are repeated here; other payloads are returned as is."""
    (space, channels, anc, iws, des_rows, fix_rows, *spectra) = payload
    n_rows = 1 + spectra[0].shape[1]
    return (space, channels, anc, iws, np.broadcast_to(des_rows, (n_rows, *des_rows.shape[1:])),
            np.broadcast_to(fix_rows, (n_rows, *fix_rows.shape[1:])), *spectra)


def _full_payload(monkeypatch, space, samples):
    """The search result and a kernel payload over every design of the
    space: the search's own payload, with the whole enumeration in place of
    its block of orbit representatives."""
    payloads = []
    kernel = optimizer._evaluate_chunk
    with monkeypatch.context() as patched:
        patched.setattr(optimizer, "_evaluate_chunk",
                        lambda pl: payloads.append(pl) or kernel(pl))
        res = brute_force_search(space, samples)
    anc, iws, _ = optimizer._enumeration(tuple(space.anchor_disks), len(space.designed),
                                         tuple(space.twist_rates))
    (_, channels, _, _, *rows_and_spectra) = payloads[0]
    return res, (space, channels, anc, iws, *rows_and_spectra)


def _search_and_reference(monkeypatch, space, samples):
    new = brute_force_search(space, samples)
    with monkeypatch.context() as patched:
        patched.setattr(optimizer, "_evaluate_chunk",
                        lambda pl: _three_svd_chunk(_rows_per_sample(pl)))
        ref = brute_force_search(space, samples)
    return new, ref


def _rel_err(new, ref):
    """|new - ref| / ref, elementwise: 0 where both read exactly 0, and inf
    where ref alone does."""
    diff = np.abs(new - ref)
    return np.divide(diff, ref, out=np.where(diff == 0.0, 0.0, np.inf), where=ref != 0.0)


def _assert_matches_reference(new, ref):
    """Identical screens, every non-singular design within REFERENCE_RTOL and
    the best design the same up to ties of 1e-12."""
    np.testing.assert_array_equal(new.singular, ref.singular)
    np.testing.assert_array_equal(new.aleph_config, ref.aleph_config)
    healthy = ~ref.singular
    assert healthy.any()
    assert _rel_err(new.aleph_g, ref.aleph_g)[healthy].max() <= REFERENCE_RTOL
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
    # straight screen: they are not scored and read exactly 0, and the
    # reference, where their J_lc fails full_rank, scores them 0 too.
    space = studies.stiff_design_space()
    new, ref = _search_and_reference(monkeypatch, space, studies.stiff_workspace(6, seed=1))
    assert int(new.singular.sum()) == 225
    np.testing.assert_array_equal(new.singular, new.aleph_config < space.epsilon)
    _assert_matches_reference(new, ref)
    assert np.all(new.aleph_g[new.singular] == 0.0)


def _edited_payload(monkeypatch, preset, edit):
    """A kernel payload over the first 400 designs of the enumeration, orbit
    copies included (all 162 on the soft subspace), with designed string 1's
    rows at workspace sample 2 (row sample 3) replaced by edit(rows of string
    0, rows of string 1).  The stiff search passes its constant rows once;
    they are repeated per sample before the edit, so the kernel's per-sample
    path is the one run."""
    if preset == "stiff":
        space, samples = studies.stiff_design_space(), studies.stiff_workspace(6, seed=1)
    else:
        space = replace(studies.soft_design_space(), anchor_disks=(3, 6, 9))
        samples = studies.soft_workspace(4, seed=5)
    _, channels, anc, iws, des_rows, fix_rows, *spectra = _rows_per_sample(
        _full_payload(monkeypatch, space, samples)[1])
    des_rows = des_rows.copy()
    des_rows[3, :, 1] = edit(des_rows[3, :, 0], des_rows[3, :, 1])
    return (space, channels, anc[:400], iws[:400], des_rows, fix_rows, *spectra)


def _kernel_and_screen_svds(monkeypatch, payload):
    """The kernel's output on payload, and how many designs took the
    singular values of their workspace J_lc (the SVD screen) in place of the
    norm bounds."""
    designs = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        if a.ndim == 4:     # (n_designs, S, p, m): the workspace J_lc
            designs.append(len(a))
        return svd(a, *args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "svd", counted)
        out = optimizer._evaluate_chunk(payload)
    return out, sum(designs)


def _at_edited_sample(payload):
    """The payload at the edited sample alone, with no screen."""
    space, channels, anc, iws, des_rows, fix_rows, jxc, graded, kappa = payload
    return (replace(space, epsilon=0.0), channels, anc, iws, des_rows[[0, 3]], fix_rows[[0, 3]],
            jxc[:, [2]], graded[:, [2]], kappa[:, [2]])


@pytest.mark.parametrize("preset, deficient", [("stiff", 48), ("soft", 24)])
def test_search_kernel_rank_deficient_sample_matches_three_svd_reference(monkeypatch, preset,
                                                                         deficient):
    # No preset design passes both screens and loses rank at a sample, so an
    # edited payload makes some: designed string 1 takes string 0's rows at
    # one sample.  Designs with both strings on one disk then have two equal
    # rows there, while their straight J_lc is untouched.  J_lc is exactly
    # singular there, so the batched inverse raises and every design of the
    # block takes the SVD screen.  J_lc fails full_rank at that sample,
    # which scores 0 in both kernels, on the stiff preset (m = 6) and the
    # soft subspace (m = 8) alike.  The whole stiff enumeration holds 80 such
    # designs.
    payload = _edited_payload(monkeypatch, preset, lambda rows0, rows1: rows0)
    anc = payload[2]
    (a0, ag, bad), n_svd = _kernel_and_screen_svds(monkeypatch, payload)
    r0, rg, rbad = _three_svd_chunk(payload)
    np.testing.assert_array_equal(bad, rbad)
    np.testing.assert_array_equal(a0, r0)
    assert n_svd == int((a0 >= payload[0].epsilon).sum())
    # designs that pass both screens and lose rank at that sample
    deficient_at = ~bad & (anc[:, 0] == anc[:, 1])
    assert int(deficient_at.sum()) == deficient
    assert _rel_err(ag, rg)[~bad].max() <= REFERENCE_RTOL
    # scored on that sample alone, with no screen, these designs read
    # exactly 0 in both kernels
    alone = _at_edited_sample(payload)
    assert np.all(optimizer._evaluate_chunk(alone)[1][deficient_at] == 0.0)
    assert np.all(_three_svd_chunk(alone)[1][deficient_at] == 0.0)


def _norm_bounds(payload):
    """Per workspace sample of every design, kappa_F of J_lc and the lower
    bound a = 1 / (|A^-1|_F^2 |A|_F) on aleph(J_lc), A = J_lc (p = m)."""
    jlc = _reference_jlc(payload)[1]
    fa, fi = optimizer._frobenius(jlc), optimizer._frobenius(np.linalg.inv(jlc))
    return fa * fi, 1.0 / (fi ** 2 * fa)


def test_norm_bound_screen_defers_means_that_straddle_epsilon(monkeypatch):
    # On the soft subspace, epsilon is set just above the workspace mean of a
    # design whose straight index exceeds it: the design passes the straight
    # screen and fails the mean screen.  The bounds decide a design only
    # where its interval of means, [mean a, m sqrt(m) mean a], lies on one
    # side of epsilon; every design whose interval holds epsilon takes the
    # SVD screen, and the screens agree with the three-SVD kernel's.
    space = replace(studies.soft_design_space(), anchor_disks=(3, 6, 9))
    payload = _full_payload(monkeypatch, space, studies.soft_workspace(4, seed=5))[1]
    m = space.basis.m
    straight, jlc = _reference_jlc(payload)
    a0 = aleph_sv(np.linalg.svd(straight, compute_uv=False))
    means = aleph_sv(np.linalg.svd(jlc, compute_uv=False)).mean(axis=1)
    kappa_f, a = _norm_bounds(payload)
    assert kappa_f.max() < optimizer.KAPPA_F_MAX
    # the median of the designs whose straight index exceeds their mean
    dropped = np.flatnonzero(a0 > (1.0 + 1e-6) * means)
    d = dropped[np.argsort(means[dropped])[len(dropped) // 2]]
    epsilon = (1.0 + 1e-9) * means[d]
    payload = (replace(space, epsilon=epsilon), *payload[1:])
    (a0, ag, bad), n_svd = _kernel_and_screen_svds(monkeypatch, payload)
    r0, rg, rbad = _three_svd_chunk(payload)
    np.testing.assert_array_equal(bad, rbad)
    np.testing.assert_array_equal(a0, r0)
    assert _rel_err(ag, rg)[~bad].max() <= REFERENCE_RTOL
    passed = a0 >= epsilon
    straddle = passed & (a.mean(axis=1) < epsilon) & (m * np.sqrt(m) * a.mean(axis=1) >= epsilon)
    assert straddle[d] and bad[d] and not bad[straddle].all()
    assert int(straddle.sum()) <= n_svd < int(passed.sum())


def test_norm_bound_screen_defers_ratios_that_straddle_the_rank_test(monkeypatch):
    # String 1's rows at one sample become string 0's plus 3e-11 of its own,
    # so designs with both strings on one disk have sigma_min / sigma_max
    # near SIGMA_RATIO_TOL there.  Where [1 / kappa_F, m / kappa_F] holds
    # SIGMA_RATIO_TOL the bounds cannot tell the rank, and those designs take
    # the SVD screen; samples on both sides of the rank test are among them.
    payload = _edited_payload(monkeypatch, "soft", lambda rows0, rows1: rows0 + 3e-11 * rows1)
    m = payload[0].basis.m
    kappa_f = _norm_bounds(payload)[0][:, 2]
    straddle = (1.0 / kappa_f < SIGMA_RATIO_TOL) & (m / kappa_f >= SIGMA_RATIO_TOL)
    full = full_rank(np.linalg.svd(_reference_jlc(payload)[1][:, 2], compute_uv=False))
    assert (straddle & full).any() and (straddle & ~full).any()
    (a0, ag, bad), n_svd = _kernel_and_screen_svds(monkeypatch, payload)
    r0, rg, rbad = _three_svd_chunk(payload)
    np.testing.assert_array_equal(bad, rbad)
    np.testing.assert_array_equal(a0, r0)
    assert _rel_err(ag, rg)[~bad].max() <= REFERENCE_RTOL
    assert int((straddle & (a0 >= payload[0].epsilon)).sum()) <= n_svd
    # the rank test at that sample alone: a sample that fails it reads 0
    alone = _at_edited_sample(payload)
    new, ref = optimizer._evaluate_chunk(alone)[1], _three_svd_chunk(alone)[1]
    np.testing.assert_array_equal(new == 0.0, ref == 0.0)
    np.testing.assert_array_equal(new[:, 0] > 0.0, full)
    # below the cap 1 / kappa_F, less the slack, clears SIGMA_RATIO_TOL: the
    # bounds never pass a sample that fails the rank test
    assert optimizer.KAPPA_F_MAX * SIGMA_RATIO_TOL < 1.0 - optimizer.BOUND_SLACK


@pytest.mark.parametrize("edit", ["tiny", "zero"])
def test_norm_bound_screen_on_a_near_singular_block_warns_nothing(monkeypatch, edit):
    # At one sample, string 1's rows shrink by 1e-170 (tiny): every J_lc
    # there is near-singular, and the squared Frobenius norm of its inverse
    # overflows.  Or every row there is 0 (zero): inv raises, and |A|_F is 0.
    # Warnings are errors in this suite.  kappa_F is infinite or NaN, every
    # design takes the SVD screen, and the sample fails the rank test.
    space, channels, anc, iws, des_rows, fix_rows, *spectra = _edited_payload(
        monkeypatch, "soft", lambda rows0, rows1: 1e-170 * rows1)
    if edit == "zero":
        des_rows[3] = 0.0
        fix_rows = fix_rows.copy()
        fix_rows[3] = 0.0
    else:
        jlc = _reference_jlc((space, channels, anc, iws, des_rows, fix_rows))[1][:, 2]
        assert np.isinf(optimizer._frobenius(np.linalg.inv(jlc))).all()
    payload = (space, channels, anc, iws, des_rows, fix_rows, *spectra)
    (a0, ag, bad), n_svd = _kernel_and_screen_svds(monkeypatch, payload)
    r0, rg, rbad = _three_svd_chunk(payload)
    np.testing.assert_array_equal(bad, rbad)
    np.testing.assert_array_equal(a0, r0)
    assert n_svd == int((a0 >= space.epsilon).sum()) > 0
    assert _rel_err(ag, rg)[~bad].max() <= REFERENCE_RTOL
    assert np.all(optimizer._evaluate_chunk(_at_edited_sample(payload))[1] == 0.0)


def _stiff_with_seventh_channel():
    base = studies.stiff_design_space()
    extra = StringSpec(ConstantPitch(studies.STIFF_STRING_RADIUS, 0.0), studies.STIFF_LENGTH)
    space = replace(base, fixed=base.fixed + (extra,))
    assert space.array_for((1, 2, 3, 4), 0).p == 7
    return space


def _count_row_calls(monkeypatch):
    calls = []
    rows = optimizer._cumulative_rows
    monkeypatch.setattr(optimizer, "_cumulative_rows",
                        lambda space, c: calls.append(c) or rows(space, c))
    return calls


def _deficient_linear_space():
    # p = m = 8 on a torsion-free cubic basis, both designed strings on one
    # path: with no screen (epsilon = 0) the designs with both on one disk,
    # or one on the tip disk (an empty span), keep a rank-deficient J_lc
    basis = ModalBasis(x=(0, 1, 2, 3), y=(0, 1, 2, 3), length=0.3)
    tip = DesignedString(ConstantPitch(0.05 * np.cos(np.pi / 4), 0.05 * np.sin(np.pi / 4)),
                         mount=Mount.TIP)
    fixed = tuple(StringSpec(ConstantPitch(0.06 * np.cos(a), 0.06 * np.sin(a)), s)
                  for a, s in zip(np.deg2rad(np.arange(0, 360, 60)),
                                  (0.3, 0.25, 0.2, 0.15, 0.1, 0.27)))
    return DesignSpace(basis=basis, designed=(tip, tip), fixed=fixed, anchor_disks=(1, 2, 3),
                       n_disks=3, s_objectives=(0.15, 0.3), c_l=0.05, epsilon=0.0)


@pytest.mark.parametrize("name", ["tiny", "stiff", "stiff-p7", "deficient"])
def test_constant_jlc_path_matches_per_sample_kernel(monkeypatch, name):
    # A linear-class search builds its rows once, at c = 0, and takes one SVD
    # and one inverse (of the R factor on the p = 7 space) per design, and
    # kappa_8 for the Gram guard from that inverse.  The per-sample kernel on
    # the same rows repeated per sample, which screens by the norm bounds,
    # must agree bit for bit.
    if name == "tiny":
        space = _tiny_space()
        samples = np.array([[0.5, -0.2, 0.7, 0.1], [-0.3, 0.4, -0.1, 0.6]])
    elif name == "deficient":
        space = _deficient_linear_space()
        samples = np.random.default_rng(0).normal(0.0, 0.5, (3, 8))
    else:
        space = studies.stiff_design_space() if name == "stiff" else _stiff_with_seventh_channel()
        samples = studies.stiff_workspace(6, seed=1)
    calls = _count_row_calls(monkeypatch)
    new = brute_force_search(space, samples)
    assert len(calls) == 1 and calls[0].shape == (1, space.basis.m) and not np.any(calls[0])
    kernel = optimizer._evaluate_chunk
    monkeypatch.setattr(optimizer, "_evaluate_chunk", lambda pl: kernel(_rows_per_sample(pl)))
    ref = brute_force_search(space, samples)
    if name == "deficient":
        # seven designs keep a rank-deficient J_lc and read 0, though no
        # screen marks them
        assert (ref.aleph_config[[0, 4, 8]] < 1e-30).all() and not ref.singular.any()
        assert np.flatnonzero(ref.aleph_g[:, -1]).tolist() == [1, 3]
    else:
        assert (ref.aleph_g[~ref.singular] > 0.0).all()
    for field in ("aleph_config", "aleph_g", "singular"):
        np.testing.assert_array_equal(getattr(new, field), getattr(ref, field))


def test_rank_deficient_designs_score_zero_and_rank_last():
    # Two of the nine designs have a full-rank J_lc.  Each of the other seven
    # fails full_rank at every sample and scores exactly 0 there, in the
    # search and in global_index, and ranks behind both full-rank designs at
    # every objective.
    space = _deficient_linear_space()
    samples = np.random.default_rng(0).normal(0.0, 0.5, (3, 8))
    res = brute_force_search(space, samples)
    assert not res.singular.any()
    full = np.array([full_rank(np.linalg.svd(config_jacobian(
        space.array_for(a, n), space.basis, np.zeros(8)), compute_uv=False))
        for a, n in zip(res.anchors, res.n_omega)])
    assert np.flatnonzero(full).tolist() == [1, 3]
    for k, s_obj in enumerate(space.s_objectives):
        assert set(optimizer._ranking(res.aleph_g[:, k], res.singular)[:2]) == {1, 3}
        gi = np.array([global_index(space.array_for(a, n), space.basis, samples, s_obj,
                                    space.c_l) for a, n in zip(res.anchors, res.n_omega)])
        assert np.all(res.aleph_g[~full, k] == 0.0) and np.all(gi[~full] == 0.0)
        np.testing.assert_allclose(res.aleph_g[full, k], gi[full], rtol=REFERENCE_RTOL, atol=0)


def test_search_builds_rows_per_sample_where_jlc_moves(monkeypatch):
    # helical strings with torsion: J_lc depends on c, so every row sample
    # is built, the straight one and the S workspace samples, in one call
    space = replace(studies.soft_design_space(twist_rates=(1,)), anchor_disks=(3, 6, 9))
    samples = studies.soft_workspace(3, seed=5)
    calls = _count_row_calls(monkeypatch)
    brute_force_search(space, samples)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], np.vstack([np.zeros(space.basis.m), samples.configs]))


@pytest.mark.parametrize("name", ["soft", "tiny", "off-grid"])
def test_stacked_rows_match_one_call_per_configuration(monkeypatch, name):
    # One span_integrals call per string variant over the whole stack of row
    # samples gives every configuration's rows bit for bit: on the soft
    # preset (base-mounted helical strings at both twist rates, constant-pitch
    # tendons on a basis with torsion), the torsion-free tiny space (exact
    # rows of tip-mounted strings) and a helical fixed string anchored off
    # the panel grid.
    if name == "soft":
        space = studies.soft_design_space()
        configs = studies.soft_workspace(3, seed=7).configs
    else:
        space, configs = _tiny_space(), _TINY_SAMPLES
        if name == "off-grid":
            spec = StringSpec(Helical(r_s=0.04, omega=9.0, alpha=0.3), 0.1715)
            space = replace(space, fixed=(space.fixed[0], spec))
    stack = np.vstack([np.zeros(space.basis.m), configs])
    calls = []
    integrals = optimizer.span_integrals
    monkeypatch.setattr(optimizer, "span_integrals",
                        lambda *args: calls.append(args) or integrals(*args))
    des_rows, fix_rows = optimizer._cumulative_rows(space, stack)
    assert len(calls) == len(space.twist_rates) * len(space.designed) + len(space.fixed)
    assert des_rows.shape == (len(stack), len(space.twist_rates), len(space.designed),
                              space.n_disks + 1, space.basis.m)
    assert fix_rows.shape == (len(stack), len(space.fixed), space.basis.m)
    for c, des, fix in zip(stack, des_rows, fix_rows):
        one_des, one_fix = optimizer._cumulative_rows(space, c)
        assert np.array_equal(des, one_des) and np.array_equal(fix, one_fix)


def test_search_kernel_overdetermined_spaces(monkeypatch):
    # Stiff preset plus a seventh channel (p = 7 > m = 6): J_lc is replaced by
    # its R factor.  The best designs also agree with global_index, which
    # takes the pseudo-inverse of the 7 x 6 Jacobian.
    space = _stiff_with_seventh_channel()
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
    # c_l = 1e-6 shrinks the angular rows of S J_xc a millionfold, so
    # kappa(S J_xc) exceeds GRAM_COND_MAX at every sample and the kernel
    # takes the singular values of W throughout; a plain Gram of W puts the
    # index off by more than 1e-7 relative (see also
    # test_graded_gram_needs_the_guard).
    space = replace(studies.soft_design_space(), anchor_disks=(3, 6, 9), c_l=1e-6)
    new, ref = _search_and_reference(monkeypatch, space, studies.soft_workspace(3, seed=5))
    _assert_matches_reference(new, ref)


# ---------------------------------------------------------------------------
# The graded-Gram route against the singular values of W.
# ---------------------------------------------------------------------------

def _svd_route(monkeypatch, fn, *args):
    """fn(*args) with every (design, sample) on the SVD of W."""
    with monkeypatch.context() as patched:
        patched.setattr(optimizer, "GRAM_COND_MAX", 0.0)
        return fn(*args)


def _at_sample(payload, j):
    """The kernel's aleph (n_designs, n_objectives) at workspace sample j
    alone, with no screen; 0 where J_lc fails full_rank."""
    space, channels, anc, iws, des_rows, fix_rows, jxc, graded, kappa = payload
    return optimizer._evaluate_chunk((replace(space, epsilon=0.0), channels, anc, iws,
                                      des_rows[[0, 1 + j]], fix_rows[[0, 1 + j]],
                                      jxc[:, [j]], graded[:, [j]], kappa[:, [j]]))[1]


# Per (design, sample) the graded Gram lies within
# C * eps * kappa(A) * kappa(S J_xc) of the SVD of W, with C measured over
# every full-rank sample that the guard lets through.  On the soft preset
# the grading carries the small singular value of B: C = 9.1 at 3@7 (4.5 at
# 3@5, 6.2 on every hundredth block at 200@777), bounded here by 16.  On the
# stiff preset S J_xc is graded over about 700 only, and the Gram loses what
# a plain Gram loses, up to 1.2 eps kappa(B)^2: C = 307 at 24@3 (285 at
# 24@424242), bounded by 400, and up to 1.13e-9 per sample.
GRAM_ERROR_C = {"soft": 16.0, "stiff": 400.0, "soft-c_l": 0.0}   # no c_l = 1e-6 sample takes the Gram


@pytest.mark.parametrize("name", ["soft", "stiff", "soft-c_l"])
def test_graded_gram_per_sample_error_model(monkeypatch, name):
    # soft 3@7 and stiff 24@3 over every design the search scores; the
    # c_l = 1e-6 soft subspace, where every sample takes the SVD of W
    if name == "soft":
        space, samples = studies.soft_design_space(), studies.soft_workspace(3, seed=7)
    elif name == "stiff":
        space, samples = studies.stiff_design_space(), studies.stiff_workspace(24, seed=3)
    else:
        space = replace(studies.soft_design_space(), anchor_disks=(3, 6, 9), c_l=1e-6)
        samples = studies.soft_workspace(3, seed=5)
    res, payload = _full_payload(monkeypatch, space, samples)
    # the designs the search scores
    space, channels, anc, iws, *rows_and_spectra = _rows_per_sample(payload)
    scored = ~res.singular
    payload = (space, channels, anc[scored], iws[scored], *rows_and_spectra)
    jlc = _reference_jlc(payload)[1]                                       # p = m here
    sv = np.linalg.svd(jlc, compute_uv=False)
    full = full_rank(sv)
    kappa_a = np.where(full, sv[..., 0] / sv[..., -1], np.inf)             # (n_designs, S)
    # the guard reads the Schatten-norm bound kappa_8 >= kappa(A)
    inv = np.linalg.inv(np.where(full[..., None, None], jlc, np.eye(space.basis.m)))
    kappa_8 = np.where(full, optimizer._norm_8(jlc) * optimizer._norm_8(inv), np.inf)
    assert np.all(kappa_8 >= kappa_a)
    kappa_x = payload[8]                                                   # (n_objectives, S)
    eigvalsh = np.linalg.eigvalsh
    n_gram = 0
    for j in range(len(samples.configs)):
        routed = []
        with monkeypatch.context() as patched:
            patched.setattr(np.linalg, "eigvalsh", lambda a: routed.append(len(a)) or eigvalsh(a))
            new = _at_sample(payload, j)
        ref = _svd_route(monkeypatch, _at_sample, payload, j)
        gram = kappa_8[:, j, None] * kappa_x[None, :, j] <= optimizer.GRAM_COND_MAX
        product = kappa_a[:, j, None] * kappa_x[None, :, j]
        # the kernel takes the Gram on exactly these entries
        assert sum(routed) == gram.sum()
        n_gram += gram.sum()
        np.testing.assert_array_equal(new[~gram], ref[~gram])
        bound = GRAM_ERROR_C[name] * np.finfo(float).eps * product[gram]
        assert np.all(_rel_err(new[gram], ref[gram]) <= bound)
    if name == "soft-c_l":
        assert n_gram == 0
    else:
        # 90.5% of the soft entries, 92.2% of the stiff ones (91.2% and 92.4% under kappa(A))
        assert n_gram > 0.9 * np.isfinite(kappa_a).sum() * len(space.s_objectives)


def _search_error(monkeypatch, space, samples, **patches):
    """Largest relative aleph_g error of the search with the given module
    names patched, against the SVD route, over the designs that are not
    singular."""
    ref = _svd_route(monkeypatch, brute_force_search, space, samples)
    with monkeypatch.context() as patched:
        for name, value in patches.items():
            patched.setattr(optimizer, name, value)
        new = brute_force_search(space, samples)
    np.testing.assert_array_equal(new.singular, ref.singular)
    np.testing.assert_array_equal(new.aleph_config, ref.aleph_config)
    return _rel_err(new.aleph_g, ref.aleph_g)[~ref.singular].max()


def test_graded_gram_needs_the_rotation(monkeypatch):
    # The Gram of S J_xc A^-1 unrotated, the guard kept, puts soft 3@7 out
    # of REFERENCE_RTOL; rotated, it stays within it.
    space, samples = studies.soft_design_space(), studies.soft_workspace(3, seed=7)
    assert _search_error(monkeypatch, space, samples) <= REFERENCE_RTOL
    graded = optimizer._graded_rows

    def unrotated(jxc):
        return jxc, graded(jxc)[1]

    assert _search_error(monkeypatch, space, samples, _graded_rows=unrotated) > REFERENCE_RTOL


def test_graded_gram_needs_the_guard(monkeypatch):
    # At c_l = 1e-6 every sample of the full soft preset at 3@5 takes the
    # SVD of W and reads what the SVD route reads, bit for bit; without the
    # guard the graded Gram misses REFERENCE_RTOL.
    space = replace(studies.soft_design_space(), c_l=1e-6)
    samples = studies.soft_workspace(3, seed=5)
    assert _search_error(monkeypatch, space, samples) == 0.0
    assert _search_error(monkeypatch, space, samples, GRAM_COND_MAX=np.inf) > REFERENCE_RTOL


def test_straight_samples_take_the_svd_route(monkeypatch):
    # At c = 0 S J_xc has an exactly zero singular value: kappa is infinite,
    # which routes every such sample to the SVD of W with no warning, and
    # the search reads what the SVD route reads, bit for bit.
    space = replace(studies.soft_design_space(), anchor_disks=(3, 6, 9))
    samples = np.zeros((2, space.basis.m))
    res, payload = _full_payload(monkeypatch, space, samples)
    assert np.isinf(payload[8]).all()
    ref = _svd_route(monkeypatch, brute_force_search, space, samples)
    for field in ("aleph_config", "aleph_g", "singular"):
        np.testing.assert_array_equal(getattr(res, field), getattr(ref, field))


# ---------------------------------------------------------------------------
# Mirror orbits: one score per orbit, against scoring every design.
# ---------------------------------------------------------------------------

def _orbit_cases(name):
    """(space, samples, twin groups) of the differential orbit tests."""
    if name == "stiff":
        return studies.stiff_design_space(), studies.stiff_workspace(24, seed=3), [[0, 2], [1, 3]]
    if name == "stiff-p7":
        return _stiff_with_seventh_channel(), studies.stiff_workspace(6, seed=1), [[0, 2], [1, 3]]
    if name == "tiny":
        return _tiny_space(), np.array([[0.5, -0.2, 0.7, 0.1], [-0.3, 0.4, -0.1, 0.6]]), []
    space = replace(studies.soft_design_space(), anchor_disks=(3, 6, 9))
    return space, studies.soft_workspace(3, seed=5), []


@pytest.mark.parametrize("name", ["stiff", "stiff-p7", "tiny", "soft"])
def test_orbit_scoring_matches_scoring_every_design(monkeypatch, name):
    # The kernel is a pure function of its payload, so the search's payload
    # over the whole enumeration scores every design.  Representatives read
    # those values bit for bit; every copy equals its representative exactly
    # and lies within REFERENCE_RTOL of its own evaluation.
    space, samples, twins = _orbit_cases(name)
    res, payload = _full_payload(monkeypatch, space, samples)
    assert optimizer._twin_groups(payload[1], payload[4]) == twins
    a0, ag, bad = optimizer._evaluate_chunk(payload)
    shape = (len(space.anchor_disks),) * len(space.designed) + (len(space.twist_rates),)
    rep = optimizer._orbit_representatives(shape, twins)
    scored = rep == np.arange(space.size)
    assert res.n_scored == scored.sum() == (225 if twins else space.size)
    for field, own in (("aleph_config", a0), ("aleph_g", ag), ("singular", bad)):
        value = getattr(res, field)
        np.testing.assert_array_equal(value[scored], own[scored], err_msg=field)
        np.testing.assert_array_equal(value, value[rep], err_msg=field)
    np.testing.assert_array_equal(res.singular, bad)
    assert _rel_err(res.aleph_config, a0)[~bad].max() <= REFERENCE_RTOL
    assert _rel_err(res.aleph_g, ag)[~bad].max() <= REFERENCE_RTOL
    if not twins:
        for field, own in (("aleph_config", a0), ("aleph_g", ag)):
            np.testing.assert_array_equal(getattr(res, field), own, err_msg=field)


@pytest.mark.parametrize("turn_deg, twins", [(0.0, [[0, 1]]), (1e-7, [])])
def test_twins_agree_to_round_off_and_no_further(turn_deg, twins):
    # Tip strings at 45 and 225 degrees have tables that are negatives to
    # one ulp of cos/sin, so they are twins; turning the second by 1e-7
    # degrees moves its table by 1.7e-9 of its size, and they are not.
    samples = np.array([[0.5, -0.2, 0.7, 0.1], [-0.3, 0.4, -0.1, 0.6]])
    designed = tuple(DesignedString(ConstantPitch(0.05 * np.cos(t), 0.05 * np.sin(t)),
                                    mount=Mount.TIP)
                     for t in np.deg2rad([45.0, 225.0 + turn_deg]))
    space = replace(_tiny_space(), designed=designed)
    des_rows = optimizer._cumulative_rows(space, np.zeros(4))[0][None]
    assert optimizer._twin_groups(space.array_for((1, 1), 0), des_rows) == twins
    assert brute_force_search(space, samples).n_scored == (6 if twins else 9)


def test_composite_member_is_never_a_twin(monkeypatch):
    # Stiff preset with designed string 2 folded into a capstan channel with
    # tendon 4: its table is still the negative of string 0's, but swapping
    # their anchors no longer permutes rows of J_lc, so only 1 and 3 are twins.
    base = studies.stiff_design_space()
    space = replace(base, composites=(Composite((2, 4), (1, 1)), base.composites[1]))
    samples = studies.stiff_workspace(6, seed=1)
    res, payload = _full_payload(monkeypatch, space, samples)
    des_rows = payload[4]
    np.testing.assert_allclose(des_rows[:, :, 2], -des_rows[:, :, 0], rtol=0, atol=1e-17)
    assert optimizer._twin_groups(payload[1], des_rows) == [[1, 3]]
    assert res.n_scored == 375
    # the swap of strings 0 and 2 moves the index
    a0, ag, bad = optimizer._evaluate_chunk(payload)
    index = {tuple(a): i for i, a in enumerate(res.anchors)}
    swapped = [index[(a[2], a[1], a[0], a[3])] for a in res.anchors]
    assert _rel_err(ag[swapped], ag)[~bad].max() > 1e-3
    np.testing.assert_array_equal(res.singular, bad)
    assert _rel_err(res.aleph_g, ag)[~bad].max() <= REFERENCE_RTOL


def test_reversed_anchor_disks_keep_the_values_per_anchor_tuple(monkeypatch):
    # Representatives sort anchor positions (indices into anchor_disks), not
    # disk values: reversing anchor_disks turns the scored designs from
    # increasing to decreasing disks within each twin pair, and each anchor
    # tuple keeps its values.
    space = studies.stiff_design_space()
    samples = studies.stiff_workspace(6, seed=1)
    results = []
    for disks in (space.anchor_disks, space.anchor_disks[::-1]):
        scored = []
        kernel = optimizer._evaluate_chunk
        with monkeypatch.context() as patched:
            patched.setattr(optimizer, "_evaluate_chunk",
                            lambda pl: scored.append(pl[2]) or kernel(pl))
            results.append(brute_force_search(replace(space, anchor_disks=disks), samples))
        scored = np.concatenate(scored)
        step = np.sign(np.diff(disks)[0])
        assert len(scored) == 225
        assert np.all(step * (scored[:, 2] - scored[:, 0]) >= 0)
        assert np.all(step * (scored[:, 3] - scored[:, 1]) >= 0)
    fwd, rev = results
    index = {tuple(a): i for i, a in enumerate(fwd.anchors)}
    same = [index[tuple(a)] for a in rev.anchors]
    np.testing.assert_array_equal(rev.singular, fwd.singular[same])
    healthy = ~rev.singular
    assert _rel_err(rev.aleph_config, fwd.aleph_config[same])[healthy].max() <= REFERENCE_RTOL
    assert _rel_err(rev.aleph_g, fwd.aleph_g[same])[healthy].max() <= REFERENCE_RTOL


# ---------------------------------------------------------------------------
# Ranking: tied values are exactly equal and go by design index.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def stiff_search():
    # mirror-symmetric stiff designs share one score
    return brute_force_search(studies.stiff_design_space(), studies.stiff_workspace(6, seed=1))


def test_ranking_puts_each_tie_group_in_design_order(stiff_search):
    res = stiff_search
    n = len(res.order)
    assert sorted(res.order) == list(range(n))
    rank = np.empty(n, dtype=int)
    rank[res.order] = np.arange(n)
    healthy = np.flatnonzero(~res.singular)
    # singular designs come last, by index
    assert rank[healthy].max() < rank[res.singular].min()
    assert np.all(np.diff(rank[res.singular]) > 0)
    v = res.aleph_g[healthy, -1]
    tied = np.equal.outer(v, v)
    ahead = rank[healthy][:, None] < rank[healthy][None, :]
    # tied designs by index, every other pair by value
    np.testing.assert_array_equal(ahead[tied], np.less.outer(healthy, healthy)[tied])
    np.testing.assert_array_equal(ahead[~tied], np.greater.outer(v, v)[~tied])
    # 100 groups of four mirror designs: six tied pairs each
    assert (np.triu(tied, 1)).sum() == 600
    # best reads the same rule at every objective
    assert res.best() == int(res.order[0])
    for k in range(res.aleph_g.shape[1]):
        top = res.aleph_g[~res.singular, k].max()
        group = np.flatnonzero(~res.singular & (res.aleph_g[:, k] == top))
        assert len(group) == 4 and res.best(k) == group.min()


def test_mirror_orbits_share_their_values_exactly(stiff_search):
    # Swapping the anchors of the strings at 45/225 degrees, of those at
    # 135/315 degrees, or of both leaves every value exactly as it is, at
    # every objective, so round-off has nothing to reorder.
    res = stiff_search
    index = {tuple(a): i for i, a in enumerate(res.anchors)}
    for perm in ((2, 1, 0, 3), (0, 3, 2, 1), (2, 3, 0, 1)):
        mirror = [index[tuple(a[list(perm)])] for a in res.anchors]
        for field in ("aleph_config", "aleph_g", "singular"):
            np.testing.assert_array_equal(getattr(res, field)[mirror], getattr(res, field),
                                          err_msg=field)
    assert len(np.unique(res.aleph_g[~res.singular, -1])) == 100
