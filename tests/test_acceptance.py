"""Acceptance suite: every criterion is exercised at its stated tolerance and
prints one PASS/FAIL line.  Expensive shared artifacts (workspace searches,
the wrench study) are session-scoped fixtures.

Reference targets for the preset radius-pair studies are frozen constants
below; tolerances are fixed here, not calibrated at runtime.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from stringshape import studies
from stringshape.modal import ModalBasis
from stringshape.optimizer import brute_force_search
from stringshape.rodsim import RodSpec, convergence_study
from stringshape.routing import ConstantPitch, StringSpec
from stringshape.sensing import (Reference, SensorArray, SingularDesignError,
                                 body_jacobian, config_jacobian, forward_kinematics,
                                 lengths, linear_model, solve_shape)
from stringshape.sensitivity import ConstraintSet, noise_amp, sample_admissible
from stringshape import liegroup as lg


@contextmanager
def criterion(name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\n[{name}] FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"\n[{name}] PASS ({time.time() - start:.1f}s)")


# Frozen targets: (r1, r2) -> two peak locations, config index (x1e-3), beta %.
CONFIG_STUDY_TARGETS = {
    (0.10, -0.10): (((0.204, 0.772), (0.772, 0.204)), (1.03e-3, 1.03e-3), (64, 64)),
    (0.10, -0.20): (((0.269, 0.841), (0.714, 0.128)), (1.32e-3, 1.50e-3), (54, 76)),
    (0.20, -0.10): (((0.128, 0.714), (0.841, 0.269)), (1.50e-3, 1.32e-3), (65, 46)),
    (0.20, -0.20): (((0.200, 0.749), (0.749, 0.200)), (3.29e-3, 3.29e-3), (53, 53)),
}
# Full-map study targets: twin peak locations and the workspace-mean index.
FULL_STUDY_TARGETS = {
    (0.10, -0.10): (((0.573, 0.428), (0.428, 0.573)), 0.159),
    (0.10, -0.20): (((0.343, 0.534), (0.660, 0.468)), 0.181),
    (0.20, -0.10): (((0.468, 0.660), (0.534, 0.343)), 0.181),
    (0.20, -0.20): (((0.573, 0.431), (0.431, 0.573)), 0.228),
}


def _timed(fn, *args):
    """(fn(*args), wall seconds): lets a criterion time work done in a fixture."""
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


@pytest.fixture(scope="session")
def convergence_stats():
    (stats, _), seconds = _timed(convergence_study, RodSpec(0.3, 0.004, 60e9))
    return stats, seconds


@pytest.fixture(scope="session")
def stiff_search():
    space = studies.stiff_design_space()
    samples = studies.stiff_workspace(24, seed=424242)
    return space, brute_force_search(space, samples)


@pytest.fixture(scope="session")
def soft_search():
    space = studies.soft_design_space()
    samples = studies.soft_workspace(200, seed=777)
    result, seconds = _timed(brute_force_search, space, samples)
    return space, result, seconds


def test_a1_planar_config_study():
    with criterion("A1 planar anchor study, config index"):
        start = time.time()
        rows = studies.planar_config_study()
        assert time.time() - start <= 60.0
        by_pair = {}
        for row in rows:
            by_pair.setdefault((row.r_1, row.r_2), []).append(row)
        for pair, (locs, vals, betas) in CONFIG_STUDY_TARGETS.items():
            got = by_pair[pair]
            assert len(got) == 2, f"{pair}: expected two peaks"
            used = set()
            for target_loc, target_val, target_beta in zip(locs, vals, betas):
                best = min((g for i, g in enumerate(got) if i not in used),
                           key=lambda g: max(abs(g.anchor_1 - target_loc[0]),
                                             abs(g.anchor_2 - target_loc[1])))
                used.add(got.index(best))
                dev = max(abs(best.anchor_1 - target_loc[0]),
                          abs(best.anchor_2 - target_loc[1]))
                assert dev <= 0.010, f"{pair} anchors {dev:.4f} off {target_loc}"
                assert abs(best.value - target_val) / target_val <= 0.03, \
                    f"{pair} index {best.value:.3e} vs {target_val:.3e}"
                assert abs(best.beta - target_beta) <= 3.0, \
                    f"{pair} beta {best.beta:.1f} vs {target_beta}"


def test_a2_planar_full_study():
    with criterion("A2 planar anchor study, workspace tip index"):
        start = time.time()
        rows = studies.planar_full_study(n_samples=200,
                                         seed=studies.PLANAR_WORKSPACE_SEED)
        assert time.time() - start <= 600.0
        by_pair = {}
        for row in rows:
            by_pair.setdefault((row.r_1, row.r_2), []).append(row)
        for pair, (locs, val) in FULL_STUDY_TARGETS.items():
            got = by_pair[pair]
            top = got[0]
            dev = min(max(abs(top.anchor_1 - a), abs(top.anchor_2 - b))
                      for a, b in locs)
            assert dev <= 0.05, f"{pair}: top peak {top.anchor_1:.3f},{top.anchor_2:.3f}"
            assert abs(top.value - val) / val <= 0.30, \
                f"{pair}: index {top.value:.3f} vs {val}"
        # qualitative conflict: the tip-index peak sits in a low region of the
        # config-index landscape (and away from its peak)
        from stringshape.optimizer import (PLANAR_REFERENCE_RADIUS, planar_config_index,
                                           planar_config_jacobian, planar_peak_search)
        for pair, (locs, _) in FULL_STUDY_TARGETS.items():
            top = by_pair[pair][0]
            config_peaks = planar_peak_search((*pair, PLANAR_REFERENCE_RADIUS),
                                              planar_config_index)
            jac = planar_config_jacobian(
                np.array([*pair, 0.25]), [top.anchor_1, top.anchor_2, 1.0])
            at_full_peak = noise_amp(jac)
            assert at_full_peak < 0.5 * config_peaks[0].value
            dist = min(np.hypot(top.anchor_1 - p.anchors[0], top.anchor_2 - p.anchors[1])
                       for p in config_peaks[:2])
            assert dist > 0.05


def test_a3_convergence_study(convergence_stats):
    with criterion("A3 wrench-grid reconstruction convergence"):
        stats, seconds = convergence_stats
        means = [stats[p]["mean_e_p"] for p in (1, 2, 3, 4)]
        assert 5.0 <= means[0] <= 30.0
        assert means[1] <= 2.0
        assert means[2] <= 0.5
        assert means[3] <= 0.05
        assert means[0] > means[1] > means[2] > means[3]
        for p in (1, 2, 3, 4):
            assert stats[p]["max_rot"] <= 1e-8
        assert seconds <= 300.0, f"convergence study took {seconds:.0f} s"


def _round_trip(array, basis, constraints, n_cases, seed, tol):
    samples = sample_admissible(basis, constraints, n_cases, seed, strings=array.strings)
    worst = 0.0
    for c_true in samples.configs:
        meas = lengths(array, basis, c_true, Reference.DELTA_FROM_STRAIGHT)
        sol = solve_shape(array, basis, meas)
        worst = max(worst, float(np.linalg.norm(sol.c - c_true)))
    assert worst <= tol, f"worst recovery error {worst:.2e} > {tol}"
    return worst


def test_a4_round_trip_reconstruction():
    with criterion("A4 round-trip reconstruction, three robot classes"):
        # planar linear-class
        basis = studies.planar_basis()
        array = SensorArray(strings=tuple(
            StringSpec(ConstantPitch(r, 0.0), a)
            for r, a in zip((0.10, -0.10, 0.25), (0.204, 0.772, 1.0))))
        cs = ConstraintSet(axis_cap=(4.0, 4.0, 4.0))
        _round_trip(array, basis, cs, 100, seed=101, tol=1e-8)

        # zero-torsion constant-pitch with composite tendon channels
        space = studies.stiff_design_space()
        array = space.array_for((4, 4, 2, 2), 0)
        basis = space.basis
        cap = 0.04 / 0.002
        cs = ConstraintSet(axis_cap=(cap, cap, cap))
        _round_trip(array, basis, cs, 100, seed=202, tol=1e-8)

        # helical + torsion, Gauss-Newton
        space = studies.soft_design_space()
        array = space.array_for((4, 3, 9, 4), 1)
        basis = space.basis
        cs = studies.soft_constraints()
        _round_trip(array, basis, cs, 100, seed=303, tol=1e-6)


def _fd_config_jacobian(array, basis, c, eps=1e-7):
    fd = np.empty((array.p, basis.m))
    for i in range(basis.m):
        cp, cm = c.copy(), c.copy()
        cp[i] += eps
        cm[i] -= eps
        fd[:, i] = (lengths(array, basis, cp, Reference.ABSOLUTE)
                    - lengths(array, basis, cm, Reference.ABSOLUTE)) / (2 * eps)
    return fd


def _fd_body_jacobian(basis, c, s, eps=1e-6):
    base = forward_kinematics(basis, c, [s], n_steps=200)[0]
    fd = np.empty((6, basis.m))
    for i in range(basis.m):
        cp, cm = c.copy(), c.copy()
        cp[i] += eps
        cm[i] -= eps
        tp = forward_kinematics(basis, cp, [s], n_steps=200)[0]
        tm = forward_kinematics(basis, cm, [s], n_steps=200)[0]
        d = lg.inv_pose(base) @ (tp - tm) / (2 * eps)   # se(3) matrix: read its twist
        fd[:, i] = [d[2, 1], d[0, 2], d[1, 0], d[0, 3], d[1, 3], d[2, 3]]
    return fd


def test_a5_jacobian_finite_difference_agreement():
    with criterion("A5 Jacobians vs central finite differences"):
        soft = studies.soft_design_space()
        helical_array = soft.array_for((5, 3, 8, 10), 1)
        stiff = studies.stiff_design_space()
        pitch_array = stiff.array_for((4, 4, 2, 2), 0)

        soft_samples = sample_admissible(soft.basis, studies.soft_constraints(), 20, seed=11,
                                         strings=helical_array.strings)
        cap = 0.04 / 0.002
        stiff_samples = sample_admissible(stiff.basis, ConstraintSet(axis_cap=(cap, cap, cap)),
                                          20, seed=12, strings=pitch_array.strings)

        for array, basis, samples in ((helical_array, soft.basis, soft_samples),
                                      (pitch_array, stiff.basis, stiff_samples)):
            for c in samples.configs:
                jac = config_jacobian(array, basis, c)
                fd = _fd_config_jacobian(array, basis, c)
                rel = np.abs(jac - fd).max() / np.abs(fd).max()
                assert rel <= 1e-5, f"config jacobian FD mismatch {rel:.2e}"

        for basis, samples in ((soft.basis, soft_samples),
                               (stiff.basis, stiff_samples)):
            for c in samples.configs[:20]:
                jac = body_jacobian(basis, c, basis.length, n_steps=200)
                fd = _fd_body_jacobian(basis, c, basis.length)
                rel = np.abs(jac - fd).max() / np.abs(fd).max()
                assert rel <= 1e-5, f"body jacobian FD mismatch {rel:.2e}"


def test_a6_integrator_order():
    with criterion("A6 Magnus integrator order"):
        basis = ModalBasis(x=(0, 1, 2), y=(0, 1, 2), z=(0, 1), length=1.0)
        rng = np.random.default_rng(42)
        c = rng.uniform(-2.0, 2.0, 8)

        def u_fn(s):
            return basis.matrix(s) @ c

        ref = lg.integrate_backbone(u_fn, 1.0, 3200)[-1][:3, 3]
        ns = np.array([25, 50, 100, 200])
        errs = np.array([
            np.linalg.norm(lg.integrate_backbone(u_fn, 1.0, int(n))[-1][:3, 3] - ref)
            for n in ns])
        slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope >= 3.7, f"observed order {slope:.2f}"


def test_a7_singularity_rules(stiff_search):
    with criterion("A7 zero-torsion singularity rules"):
        basis = ModalBasis(x=(0, 1, 2), y=(0, 1, 2), length=0.3)

        def pitch(radius, ang_deg, anchor):
            t = np.deg2rad(ang_deg)
            return StringSpec(ConstantPitch(radius * np.cos(t), radius * np.sin(t)),
                              anchor)

        # (a) radially collinear pair on one disk
        array = SensorArray(strings=(
            pitch(0.05, 30, 0.18), pitch(0.03, 210, 0.18),
            pitch(0.05, 100, 0.3), pitch(0.05, 190, 0.3),
            pitch(0.05, 280, 0.24), pitch(0.05, 10, 0.12)))
        _, jac = linear_model(array, basis)
        assert noise_amp(jac) <= 1e-12

        # (b) three strings on one disk
        array = SensorArray(strings=(
            pitch(0.05, 30, 0.18), pitch(0.05, 120, 0.18), pitch(0.05, 250, 0.18),
            pitch(0.05, 100, 0.3), pitch(0.05, 190, 0.3), pitch(0.05, 280, 0.24)))
        with pytest.raises(SingularDesignError):
            solve_shape(array, basis, np.zeros(6))

        # (c) two non-collinear strings on one disk stay non-singular
        array = SensorArray(strings=(
            pitch(0.05, 30, 0.18), pitch(0.05, 120, 0.18),
            pitch(0.05, 100, 0.3), pitch(0.05, 190, 0.3),
            pitch(0.05, 280, 0.24), pitch(0.05, 10, 0.12)))
        _, jac = linear_model(array, basis)
        assert noise_amp(jac) > 1e-8

        # (d) exhaustive: every design with >= 3 strings on one disk is singular
        space, result = stiff_search
        assert space.size == 625
        counts = np.array([np.bincount(a).max() for a in result.anchors])
        multi = counts >= 3
        assert int(multi.sum()) == 85
        assert result.singular[multi].all()


def test_a8_helical_search_scale_and_ordering(soft_search):
    """Soft preset: 20,000 helical designs ranked at disk 4, disk 6 and the tip.

    Where the bounds come from:
    - 20,000 designs: ``studies.soft_design_space`` (four strings over ten
      anchor disks, two twist rates) and the README.
    - Tip-index ratio >= 5 between the tip optimum and the disk-4 optimum,
      on seed 777 with 200 workspace samples: this criterion's own figure
      for the torsionally compliant study.  The paper's text for that study
      is not in the repository, so it is carried over, not derived.
    - 1800 s: this criterion's budget for ``brute_force_search`` alone,
      timed in the fixture.

    Ordering: scored at the tip, the disk-4 optimum lies strictly below the
    disk-6 optimum, and the disk-6 optimum strictly below the tip optimum;
    the nearer its objective disk sits to the tip, the less tip index an
    optimum gives up.  No bound is put on how much the disk-6 optimum gives
    up: nothing in the repository states one.  The ordering fails when the
    disk-6 column is computed at the disk-4 or the tip arc length (its
    optimum then coincides with theirs), when disk 4 and disk 6 are swapped,
    and when the ranking ignores the objective (one design best everywhere);
    the ratio fails under every other order of the three arc lengths.
    """
    with criterion("A8 helical design search scale and ordering"):
        space, result, seconds = soft_search
        assert space.size == 20_000
        assert len(result.anchors) == 20_000
        score = np.where(result.singular[:, None], -np.inf, result.aleph_g)
        i_end = int(np.argmax(score[:, 2]))
        i_six = int(np.argmax(score[:, 1]))
        i_four = int(np.argmax(score[:, 0]))
        end_idx = result.aleph_g[:, 2]
        ratio = end_idx[i_end] / end_idx[i_four]
        assert ratio >= 5.0, f"end-opt vs fourth-opt tip-index ratio {ratio:.2f}"
        assert end_idx[i_four] < end_idx[i_six] < end_idx[i_end], \
            (f"tip index of the disk-4, disk-6 and tip optima: {end_idx[i_four]:.3e}, "
             f"{end_idx[i_six]:.3e}, {end_idx[i_end]:.3e}")
        assert seconds <= 1800.0, f"soft search took {seconds:.0f} s"


def test_a9_noise_bound_monte_carlo():
    with criterion("A9 noise amplification bound, planar linear system"):
        basis = studies.planar_basis()
        array = SensorArray(strings=tuple(
            StringSpec(ConstantPitch(r, 0.0), a)
            for r, a in zip((0.10, -0.10, 0.25), (0.204, 0.772, 1.0))))
        _, jac = linear_model(array, basis)
        al = noise_amp(jac)
        rng = np.random.default_rng(2024)
        dl = rng.normal(size=(10_000, 3))
        dc = np.linalg.solve(jac, dl.T).T
        violations = int((np.linalg.norm(dc, axis=1)
                          > np.linalg.norm(dl, axis=1) / al * (1 + 1e-12)).sum())
        assert violations == 0
