"""Workloads, timing loop, correctness checks and metrics of the stringshape
benchmark.

Every workload drives the library in-process, from one thread, as a closed
loop with one client: the next operation starts when the previous one has
returned.  The stringshape package must be importable before this module is
imported; ``run.py`` puts the checkout's ``src`` directory on the path.

A run has three phases:

1. set-up: the library's imports, in this and in fresh interpreters, and
   input generation from the seed;
2. the timed phase: whole passes over the workload's fixed unit of work,
   repeated while another pass still fits into the time budget.  A host
   probe runs in a gap before the set-up, after the imports, after each
   set-up round and after each pass, and scales each timed block to a
   reference host speed;
3. correctness checks through the library's public slow paths, untimed.

With tracing on, the set-up runs under the tracer, and untraced and traced
passes alternate; the set-up and the first traced pass give the per-layer
figures.
"""

from __future__ import annotations

import ctypes
import dataclasses
import glob
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import stringshape
from stringshape import (liegroup, modal, optimizer, rodsim, routing, sensing, sensitivity,
                         studies)

from tracer import Tracer

# A timing summary reports the highest percentile with this many samples
# beyond it.
TAIL_BEYOND = 10

clock = time.perf_counter


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One operation of a pass: its latency, its output or the error it raised."""

    seconds: float
    output: object = None
    error: str | None = None


def timed_op(fn):
    start = clock()
    try:
        out = fn()
    except Exception as exc:          # an operation that raises counts as failed
        return Op(clock() - start, None, traceback.format_exception_only(exc)[-1].strip())
    return Op(clock() - start, out)


def max_step_rotation(basis, configs, n_steps=100):
    """Largest rotation h * max |u(s)| of one Magnus step over the configs.

    h is the step of an n_steps integration over the whole basis length, as
    body Jacobians and forward kinematics use by default.
    """
    configs = np.atleast_2d(np.asarray(configs, dtype=float))
    s = np.linspace(0.0, basis.length, 4 * n_steps + 1)
    u = np.einsum("nij,kj->kni", basis.matrix(s), configs)
    return float(basis.length / n_steps * np.linalg.norm(u, axis=-1).max())


def rel_err(value, reference):
    return abs(value - reference) / abs(reference)


def tail(values, beyond=TAIL_BEYOND):
    """(value, percentile) of the highest percentile with `beyond` samples above.

    With no more than 2 * `beyond` samples that percentile would sit at or
    below the median, so the maximum is returned with percentile 100.
    """
    v = sorted(values)
    n = len(v)
    if n <= 2 * beyond:
        return v[-1], 100.0
    return v[n - 1 - beyond], 100.0 * (n - beyond) / n


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class SearchWorkload:
    """Brute-force routing search over a preset design space.

    One pass, and one operation, is one ``brute_force_search`` call (jobs=1)
    over the whole design space on the seeded workspace samples, as the
    ``routing-opt`` subcommand runs it.
    """

    def __init__(self, seed, preset, samples, rel_tol, anchor_disks=None):
        self.seed = seed
        self.preset = preset
        self.samples = samples
        self.rel_tol = rel_tol
        self.anchor_disks = anchor_disks

    def setup(self, after_round=lambda: None):
        """The inputs and the time of each set-up round (one here)."""
        start = clock()
        # Looked up at call time, so that a tracer's bindings are used.
        space = getattr(studies, f"{self.preset}_design_space")()
        if self.anchor_disks is not None:
            space = dataclasses.replace(space, anchor_disks=self.anchor_disks)
        samples = getattr(studies, f"{self.preset}_workspace")(self.samples, self.seed)
        times = [clock() - start]
        after_round()
        return (space, samples), times

    def run_pass(self, inputs):
        space, samples = inputs
        return [timed_op(lambda: optimizer.brute_force_search(space, samples))]

    @staticmethod
    def same(a, b):
        return all(np.array_equal(getattr(a, f), getattr(b, f))
                   for f in ("anchors", "n_omega", "aleph_config", "aleph_g",
                             "singular", "order"))

    def check(self, inputs, ops):
        """Top design per objective against ``global_index``; all values finite."""
        space, samples = inputs
        result = ops[0].output
        notes = {"rel_tol": self.rel_tol, "top_rel_err": []}
        ok = bool(np.isfinite(result.aleph_g).all() and np.isfinite(result.aleph_config).all())
        notes["all_finite"] = ok
        for k, s_obj in enumerate(space.s_objectives):
            key = np.where(result.singular, -np.inf, result.aleph_g[:, k])
            best = int(np.argmax(key))
            array = space.array_for(result.anchors[best], result.n_omega[best])
            slow = sensitivity.global_index(array, space.basis, samples, s_obj, space.c_l)
            err = rel_err(result.aleph_g[best, k], slow)
            notes["top_rel_err"].append(err)
            ok &= bool(err <= self.rel_tol)
        return set() if ok else {0}, notes

    def properties(self, inputs, ops):
        space, samples = inputs
        result = ops[0].output
        return {
            "workspace_samples": len(samples),
            "designs": space.size,
            "objectives": len(space.s_objectives),
            "designs_x_objectives": space.size * len(space.s_objectives),
            "design_samples": space.size * len(samples),
            "singular_designs": None if result is None else int(result.singular.sum()),
            "max_step_rotation_rad": max_step_rotation(space.basis, samples.configs),
        }

    def extra_metrics(self, props, e2e, notes):
        return {"design_samples_per_s": (props["design_samples"] / e2e["wall_s"][0], "1/s")}


class SensingStream:
    """Frame-by-frame shape reconstruction: the ``spatial-study`` recipe.

    Set-up draws a pool of truth frames with ``synthetic_spatial_truth`` on
    a richer truth basis, in one round per sub-seed of ``POOL_SEEDS``.  The
    sub-seeds are fixed, so every run does the same rejection-sampling work
    and ``setup_s`` does not move with the seed; the seed then picks the
    stream, ``frames`` of the pool's frames in a seeded order.  One operation
    is one frame: ``solve_shape`` from string lengths plus
    ``forward_kinematics`` of the estimated tip pose.  A pass runs every
    frame of the stream once.
    """

    ANCHORS = (4, 3, 9, 4)
    N_OMEGA = 1
    # At ~0.07% acceptance the attempts a round needs vary by about 20% from
    # one sub-seed to another; fixing them keeps that out of setup_s.
    POOL_SEEDS = (0, 1, 2)
    # Per-frame bounds sit at about twice the worst frame of 13 seeded
    # draws of 60 truth frames at the seed code (residual 2.3e-3 m, tip error
    # 12.7% of the length); the mean bound at 1.4 times the worst mean (2.9%).
    MAX_RESIDUAL_M = 5e-3
    MAX_TIP_ERR_PCT = 25.0
    MAX_MEAN_TIP_ERR_PCT = 4.0

    def __init__(self, seed, frames_per_round, frames):
        self.seed = seed
        self.frames_per_round = frames_per_round
        self.frames = frames
        self.space = studies.soft_design_space()
        self.basis = studies.soft_basis()
        self.truth_basis = modal.ModalBasis(x=(0, 1, 2, 3), y=(0, 1, 2, 3), z=(0, 1, 2),
                                            length=self.basis.length)
        self.array = self.space.array_for(self.ANCHORS, self.N_OMEGA)

    def setup(self, after_round=lambda: None):
        """The stream and the time of each pool round."""
        pool, times = [], []
        for sub_seed in self.POOL_SEEDS:
            start = clock()
            pool += rodsim.synthetic_spatial_truth(
                self.truth_basis, self.array, studies.soft_constraints(),
                self.frames_per_round, sub_seed)
            times.append(clock() - start)
            after_round()
        pick = np.random.default_rng(self.seed).choice(len(pool), self.frames, replace=False)
        return [pool[i] for i in pick], times

    def _frame(self, measured):
        sol = sensing.solve_shape(self.array, self.basis, measured)
        pose = sensing.forward_kinematics(self.basis, sol.c, [self.basis.length])[0]
        return sol.c, sol.iterations, sol.residual_norm, pose

    def run_pass(self, frames):
        return [timed_op(lambda ell=ell: self._frame(ell)) for _, ell in frames]

    @staticmethod
    def same(a, b):
        return (np.array_equal(a[0], b[0]) and a[1] == b[1] and a[2] == b[2]
                and np.array_equal(a[3], b[3]))

    def check(self, frames, ops):
        """Residual and tip error against the truth pose, per frame and on average."""
        length = self.basis.length
        bad, tip_err, residual, iters = set(), [], [], []
        for i, ((c_true, _), op) in enumerate(zip(frames, ops)):
            if op.error is not None:
                continue
            # The truth pose comes from the reference integrator, not from the
            # forward_kinematics under test, at twice its resolution.
            pose_true = liegroup.integrate_backbone(
                lambda s, c=c_true: modal.curvature(self.truth_basis, c, s), length, 200)[-1]
            err = rodsim.error_metrics(pose_true, op.output[3], length, self.space.c_l)
            tip_err.append(err.e_p)
            residual.append(op.output[2])
            iters.append(op.output[1])
            if err.e_p > self.MAX_TIP_ERR_PCT or op.output[2] > self.MAX_RESIDUAL_M:
                bad.add(i)
        notes = {"max_residual_bound_m": self.MAX_RESIDUAL_M,
                 "max_tip_err_bound_pct": self.MAX_TIP_ERR_PCT,
                 "mean_tip_err_bound_pct": self.MAX_MEAN_TIP_ERR_PCT}
        if tip_err:
            if np.mean(tip_err) > self.MAX_MEAN_TIP_ERR_PCT:
                bad = set(range(len(ops)))
            notes.update(tip_err_mean_pct=float(np.mean(tip_err)),
                         tip_err_max_pct=float(np.max(tip_err)),
                         residual_max_m=float(np.max(residual)),
                         gn_iterations_sum=int(np.sum(iters)),
                         gn_iterations_min=int(np.min(iters)),
                         gn_iterations_max=int(np.max(iters)))
        return bad, notes

    def properties(self, frames, ops):
        return {
            "frames": len(frames),
            "pool_seeds": list(self.POOL_SEEDS),
            "pool_frames": len(self.POOL_SEEDS) * self.frames_per_round,
            "anchors": list(self.ANCHORS),
            "n_omega": self.N_OMEGA,
            "max_step_rotation_rad": max_step_rotation(
                self.truth_basis, [c for c, _ in frames]),
        }

    def extra_metrics(self, props, e2e, notes):
        out = {"frame_p50_ms": e2e["op_p50_ms"], "frame_tail_ms": e2e["op_tail_ms"]}
        if "tip_err_mean_pct" in notes:
            out["tip_err_mean_pct"] = (notes["tip_err_mean_pct"], "%")
        return out


class PlanarStudies:
    """The ``planar-study --table1 --table2 --convergence`` recipe.

    One pass, and one operation, runs ``planar_config_study``,
    ``planar_full_study`` on a seeded planar workspace and
    ``convergence_study`` on the default rod.
    """

    # Top peak of these radius pairs is re-evaluated through global_index.
    FULL_CHECK_PAIRS = (studies.PLANAR_RADIUS_PAIRS[0], studies.PLANAR_RADIUS_PAIRS[-1])
    REL_TOL = 1e-6    # measured differences are ~1e-13 and below

    def __init__(self, seed, samples, config_step, full_step):
        self.seed = seed
        self.samples = samples
        self.config_step = config_step
        self.full_step = full_step
        self.rod = rodsim.RodSpec(length=0.3, diameter=0.004, elastic_modulus=60e9)

    def setup(self, after_round=lambda: None):
        """The workspace and the time of each set-up round (one here)."""
        start = clock()
        workspace = studies.planar_workspace(self.samples, self.seed)
        times = [clock() - start]
        after_round()
        return workspace, times

    def _pass(self):
        config = studies.planar_config_study(grid_step=self.config_step)
        full = studies.planar_full_study(n_samples=self.samples, seed=self.seed,
                                         grid_step=self.full_step)
        stats, cases = rodsim.convergence_study(self.rod)
        return config, full, stats, cases

    def run_pass(self, workspace):
        return [timed_op(self._pass)]

    @staticmethod
    def same(a, b):
        return a == b

    @staticmethod
    def _array(r_1, r_2, a_1, a_2):
        radii = (r_1, r_2, optimizer.PLANAR_REFERENCE_RADIUS)
        return sensing.SensorArray(strings=tuple(
            routing.StringSpec(routing.ConstantPitch(r, 0.0), a)
            for r, a in zip(radii, (a_1, a_2, 1.0))))

    def check(self, workspace, ops):
        """Every config peak via linear_model, two full peaks via global_index,
        and the A3 convergence thresholds."""
        config, full, stats, _ = ops[0].output
        basis = optimizer.planar_basis()
        notes = {"rel_tol": self.REL_TOL, "config_rel_err": [], "full_rel_err": []}
        ok = True
        for row in config:
            value = sensitivity.noise_amp(sensing.linear_model(
                self._array(row.r_1, row.r_2, row.anchor_1, row.anchor_2), basis)[1])
            base = sensitivity.noise_amp(sensing.linear_model(
                self._array(row.r_1, row.r_2, 1.0 / 3.0, 2.0 / 3.0), basis)[1])
            err = rel_err(row.value, value)
            notes["config_rel_err"].append(err)
            ok &= err <= self.REL_TOL
            ok &= abs(row.beta - optimizer.improvement_beta(value, base)) <= 1e-6
        for pair in self.FULL_CHECK_PAIRS:
            top = next(row for row in full if (row.r_1, row.r_2) == pair)
            value = sensitivity.global_index(
                self._array(top.r_1, top.r_2, top.anchor_1, top.anchor_2), basis,
                workspace, basis.length, studies.PLANAR_CHARACTERISTIC_LENGTH)
            err = rel_err(top.value, value)
            notes["full_rel_err"].append(err)
            ok &= err <= self.REL_TOL
        means = [stats[p]["mean_e_p"] for p in (1, 2, 3, 4)]
        a3 = (5.0 <= means[0] <= 30.0 and means[1] <= 2.0 and means[2] <= 0.5
              and means[3] <= 0.05 and means[0] > means[1] > means[2] > means[3]
              and all(stats[p]["max_rot"] <= 1e-8 for p in (1, 2, 3, 4)))
        notes["convergence_mean_e_p_pct"] = means
        notes["a3_thresholds_hold"] = a3
        return set() if ok and a3 else {0}, notes

    def properties(self, workspace, ops):
        config_axis = len(np.arange(self.config_step, 1.0, self.config_step))
        full_axis = len(np.arange(self.full_step, 1.0, self.full_step))
        pairs = len(studies.PLANAR_RADIUS_PAIRS)
        return {
            "workspace_samples": len(workspace),
            "radius_pairs": pairs,
            "config_grid_points": pairs * config_axis ** 2,
            "full_grid_points_x_samples": pairs * full_axis ** 2 * len(workspace),
            "rod_wrench_cases": len(ops[0].output[3]) if ops[0].error is None else None,
            "max_step_rotation_rad": max_step_rotation(optimizer.planar_basis(),
                                                       workspace.configs),
        }

    def extra_metrics(self, props, e2e, notes):
        return {}


# Sizes: "full" is what the benchmark measures; "tiny" is for smoke tests.
SIZES = {
    "soft-search": {"full": {"samples": 3},
                    "tiny": {"samples": 1, "anchor_disks": (2, 5, 8)}},
    "stiff-search": {"full": {"samples": 24}, "tiny": {"samples": 2}},
    "sensing-stream": {"full": {"frames_per_round": 20, "frames": 40},
                       "tiny": {"frames_per_round": 2, "frames": 4}},
    "planar-studies": {"full": {"samples": 20, "config_step": 0.004, "full_step": 0.01},
                       "tiny": {"samples": 4, "config_step": 0.02, "full_step": 0.05}},
}


def make_workload(name, seed, size="full"):
    params = SIZES[name][size]
    if name == "soft-search":
        # The kernel's cumulative trapezoid rule against config_jacobian's
        # 80-point rule: ~3e-4 to 1e-3 measured.
        return SearchWorkload(seed, "soft", params["samples"], rel_tol=5e-3,
                              anchor_disks=params.get("anchor_disks"))
    if name == "stiff-search":
        # Both paths use exact rows; round-off, amplified by the conditioning
        # of the stiff Jacobians, reached 4e-9 in 30 seeds (mostly ~1e-13).
        return SearchWorkload(seed, "stiff", params["samples"], rel_tol=1e-6)
    if name == "sensing-stream":
        return SensingStream(seed, **params)
    if name == "planar-studies":
        return PlanarStudies(seed, **params)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = tuple(SIZES)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root):
    src = os.path.join(root, "src", "stringshape")
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        got = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = got.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    cpu = None
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = _blas_threads()
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": nproc,
        "blas_threads_within_nproc": threads is None or threads <= nproc,
        "cpu": cpu,
        "loadavg_1m": os.getloadavg()[0],
        "stringshape": stringshape.__file__,
    }


# ---------------------------------------------------------------------------
# Host-speed probe
# ---------------------------------------------------------------------------

# The probe's time on the tuning machine when it is not contended.  Each
# timed block (the import rounds, each set-up round, each pass) is scaled by
# PROBE_REF_S / (the mean probe time in the gaps just before and just after
# it): the time the block would take on a host that runs the probe in
# PROBE_REF_S.
PROBE_REF_S = 0.06
# Probes in each gap between timed blocks.
PROBES_PER_GAP = 2
# A single import time varies by up to 2x from one interpreter to the next;
# setup_s takes the median of this many.
IMPORT_ROUNDS = 5


class HostProbe:
    """A fixed computation, independent of the library and of the seed, that
    measures how fast the host runs right now.

    The shared host this benchmark was tuned on switches, every few seconds
    and sometimes for tens of minutes, between a state in which identical
    work runs at full speed and one in which it runs up to 1.8x slower; every
    workload slows then, by 1.4x to 1.8x.  The probe mixes the three kinds of
    work the workloads do: an interpreted loop over small matrix products
    (as the Magnus series), batched small SVDs (as the search kernel) and a
    batched einsum (as the planar landscapes).
    """

    def __init__(self):
        rng = np.random.default_rng(20221224)
        self.series = 0.3 * rng.standard_normal((600, 6, 6))
        self.stack = rng.standard_normal((3000, 6, 8))
        self.rows = rng.standard_normal((300, 40, 6))

    def __call__(self):
        start = clock()
        eye = np.eye(6)
        for m in self.series:
            term = acc = eye
            for k in range(1, 20):
                term = term @ m / k
                acc = acc + term
        np.linalg.svd(self.stack, compute_uv=False)
        for _ in range(6):
            np.einsum("nij,nkj->nik", self.rows, self.rows)
        return clock() - start

    def gap(self):
        return [self() for _ in range(PROBES_PER_GAP)]


def block_scales(gaps):
    """Scale of block k, which ran between gaps[k] and gaps[k + 1]."""
    return [PROBE_REF_S / statistics.mean(before + after)
            for before, after in zip(gaps, gaps[1:])]


def import_rounds(import_s, root):
    """The run's own import time plus that of IMPORT_ROUNDS - 1 fresh
    interpreters importing the library from the same sources."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import stringshape, stringshape.studies; print(time.perf_counter() - t)")
    times = [import_s]
    for _ in range(IMPORT_ROUNDS - 1):
        got = subprocess.run([sys.executable, "-c", code, os.path.join(root, "src")],
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(got.stdout))
    return times


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def timed_passes(workload, inputs, budget, probe, gaps):
    """Whole passes, each followed by a probe gap appended to `gaps`, while
    another pass and gap of median length still fit the budget."""
    passes, times = [], []
    t0 = clock()
    while True:
        start = clock()
        passes.append(workload.run_pass(inputs))
        times.append(clock() - start)
        gaps.append(probe.gap())
        gap_s = statistics.median(sum(g) for g in gaps)
        if clock() - t0 + statistics.median(times) + gap_s > budget:
            return passes, times


def alternating_passes(workload, inputs, budget, tracer):
    """Untraced and traced passes in turn, the same number of each, while
    another pair still fits the budget.  The first traced pass runs under
    `tracer`; later ones under a fresh tracer that is thrown away, so that
    the recorded spans do not depend on how many passes fit."""
    passes, times, traced, traced_times = [], [], [], []
    t0 = clock()
    while True:
        start = clock()
        passes.append(workload.run_pass(inputs))
        times.append(clock() - start)
        start = clock()
        with tracer if not traced else Tracer():
            traced.append(workload.run_pass(inputs))
        traced_times.append(clock() - start)
        pair = statistics.median(times) + statistics.median(traced_times)
        if clock() - t0 + pair > budget:
            return passes, times, traced, traced_times


def judge(workload, inputs, passes):
    """Count attempted and failed operations; run the checks on the first pass.

    An operation fails when it raised, when its output differs from the same
    operation in the first pass, or when the first pass's output of it fails
    a check.
    """
    first = passes[0]
    errors = [op.error for p in passes for op in p if op.error is not None]
    bad = {i for i, op in enumerate(first) if op.error is not None}
    notes = {}
    if len(bad) < len(first):
        try:
            more, notes = workload.check(inputs, first)
        except Exception:             # a check that raises fails every operation
            more, notes = set(range(len(first))), {"check_error": traceback.format_exc()}
        bad |= more
    attempted = failed = 0
    for p in passes:
        for i, op in enumerate(p):
            attempted += 1
            if (op.error is not None or i in bad
                    or not workload.same(op.output, first[i].output)):
                failed += 1
    return attempted, failed, notes, errors[:5]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name, seed, seconds, trace, import_s, root, out_dir=None, size="full"):
    """One benchmark run; returns (result, report).

    result holds exactly the keys of the benchmark's last output line.
    """
    env = environment(root)
    workload = make_workload(name, seed, size)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "size": size, "environment": env}

    if trace:
        tracer = Tracer()
        start = clock()
        with tracer:
            inputs, setup_times = workload.setup()
        traced_setup_s = clock() - start
        passes, pass_times, traced, traced_times = alternating_passes(
            workload, inputs, seconds, tracer)
        # Per-layer figures only: times here are not host-scaled.
        imports, gaps, import_scale = [import_s], [], 1.0
        setup_scales, scales = [1.0] * len(setup_times), [1.0] * len(passes)
    else:
        probe = HostProbe()
        probe()                       # warm-up, not counted
        gaps = [probe.gap()]
        imports = import_rounds(import_s, root)
        gaps.append(probe.gap())
        inputs, setup_times = workload.setup(lambda: gaps.append(probe.gap()))
        passes, pass_times = timed_passes(workload, inputs, seconds, probe, gaps)
        import_scale, *scales = block_scales(gaps)
        setup_scales, scales = scales[:len(setup_times)], scales[len(setup_times):]
    rss = peak_rss_mb()

    attempted, failed, notes, errors = judge(workload, inputs, passes)
    props = workload.properties(inputs, passes[0])
    # Host-scaled times (see PROBE_REF_S): each operation's latency is the
    # median of its scaled repetitions.
    lat = [statistics.median(k * p[i].seconds for k, p in zip(scales, passes))
           for i in range(len(passes[0]))]
    op_tail, tail_pct = tail(lat)
    setup_s = (import_scale * statistics.median(imports)
               + statistics.median(k * t for k, t in zip(setup_scales, setup_times)))
    e2e = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * op_tail, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    report["timing"] = {
        "probe_ref_s": PROBE_REF_S, "probe_gaps_s": gaps,
        "import_scale": import_scale, "setup_scales": setup_scales, "pass_scales": scales,
        "import_s": imports, "setup_round_s": setup_times, "pass_s": pass_times,
        "timed_phase_s": sum(pass_times), "passes": len(passes),
        "ops_per_pass": len(passes[0]), "latency_samples": len(lat),
        "op_tail_percentile": tail_pct,
        "unscaled": {"setup_s": statistics.median(imports) + statistics.median(setup_times),
                     "wall_s": statistics.median(pass_times)},
    }
    wall_s = statistics.median(k * t for k, t in zip(scales, pass_times))
    details = dict(e2e, wall_s=(wall_s, "s"))
    details.update(workload.extra_metrics(props, details, notes))
    details["ops_failed_frac"] = (failed / attempted, "ratio")
    samples = {"setup_s": {"samples": len(setup_times), "import_samples": len(imports)},
               "wall_s": {"samples": len(pass_times)},
               "op_p50_ms": {"samples": len(lat)},
               "op_tail_ms": {"samples": len(lat), "percentile": tail_pct}}
    samples["frame_p50_ms"] = samples["op_p50_ms"]
    samples["frame_tail_ms"] = samples["op_tail_ms"]
    report["metrics"] = {k: {"value": v, "unit": u, **samples.get(k, {})}
                         for k, (v, u) in details.items()}
    report["inputs"] = props
    report["checks"] = notes
    report["errors"] = errors

    if not trace:
        metrics = e2e
    else:
        attempted += sum(len(p) for p in traced)
        mismatched = sum(1 for p in traced for op, ref in zip(p, passes[0])
                         if op.error is not None or ref.error is not None
                         or not workload.same(op.output, ref.output))
        failed += mismatched
        report["traced_outputs_identical"] = mismatched == 0
        report["timing"]["traced_pass_s"] = traced_times
        metrics = layer_metrics(tracer, traced_setup_s, traced_times, pass_times)
        if out_dir is not None:
            spans_path = os.path.join(out_dir, f"spans-{name}-seed{seed}.json.gz")
            tracer.write(spans_path)
            report["spans"] = spans_path

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def layer_metrics(tracer, traced_setup_s, traced_times, untraced_times):
    """Per-layer metrics of one traced set-up plus the first traced pass, and
    the tracing overhead over all alternating passes."""
    stats, self_total = tracer.summary()
    out = {}
    for name in tracer.traced:
        out[f"{name}.calls"] = (stats[f"{name}.calls"], "count")
        out[f"{name}.self_s"] = (stats[f"{name}.self_s"], "s")
    iters = stats.get("sensing.solve_shape.iterations", 0)
    evals = tracer.count_under("sensing.lengths", "sensing.solve_shape")
    attempts = tracer.count_under("sensitivity.ConstraintSet.admissible",
                                  "sensitivity.sample_admissible")
    accepted = stats.get("sensitivity.sample_admissible.accepted", 0)
    out["sensing.solve_shape.iterations"] = (iters, "count")
    out["sensing.solve_shape.residual_evals_per_iter"] = (evals / iters if iters else 0.0, "ratio")
    out["sensitivity.sample_admissible.attempts"] = (attempts, "count")
    out["sensitivity.sample_admissible.acceptance"] = (
        accepted / attempts if attempts else 0.0, "ratio")
    out["optimizer.brute_force_search.singular"] = (
        stats.get("optimizer.brute_force_search.singular", 0), "count")
    out["rodsim.planar_rod_bvp.iterations"] = (
        stats.get("rodsim.planar_rod_bvp.iterations", 0), "count")
    traced_s = traced_setup_s + traced_times[0]
    out["trace.traced_s"] = (traced_s, "s")
    out["trace.untraced_s"] = (traced_s - self_total, "s")
    out["trace_overhead_frac"] = (
        statistics.median(traced_times) / statistics.median(untraced_times) - 1.0, "ratio")
    return out
