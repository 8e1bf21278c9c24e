"""Ground-truth generators and error metrics for validating reconstruction.

A planar inextensible elastic rod under a tip wrench provides an independent
oracle: the equilibrium curvature satisfies EI u(s) = m_y + f_x (z(L) - z(s)),
solved by fixed-point iteration (shooting on the tip position entering the
moment arm).  A seeded synthetic curvature-field generator stands in for full
spatial mechanics when exercising reconstruction with model mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modal import ModalBasis
from .optimizer import optimal_planar_anchors
from .routing import ConstantPitch
from .sensing import Reference, exact_row, lengths
from .sensitivity import sample_admissible

# Rod solver grid points, sweep under-relaxation and relative residual tolerance.
ROD_GRID = 801
ROD_RELAX = 0.5
ROD_RESID_TOL = 1e-10
# Largest tip force (N) and moment (N m) of the convergence study's wrenches.
CONVERGENCE_F_MAX = 60.0
CONVERGENCE_M_MAX = 6.0


class ShootingError(RuntimeError):
    """Fixed-point iteration for the rod equilibrium diverged (load too large)."""


@dataclass(frozen=True)
class RodSpec:
    length: float
    diameter: float
    elastic_modulus: float

    def __post_init__(self):
        if not all(0.0 < v < np.inf for v in (self.length, self.diameter, self.elastic_modulus)):
            raise ValueError("rod parameters must be positive and finite")

    @property
    def bending_stiffness(self):
        return self.elastic_modulus * np.pi * self.diameter**4 / 64.0


@dataclass(frozen=True)
class TipWrench:
    force: tuple    # world frame (N)
    moment: tuple   # world frame (N m)

    def planar(self):
        f, mo = np.asarray(self.force, float), np.asarray(self.moment, float)
        if abs(f[1]) > 0 or abs(f[2]) > 0 or abs(mo[0]) > 0 or abs(mo[2]) > 0:
            raise ValueError("planar solver needs force along x and moment about y")
        return float(f[0]), float(mo[1])


@dataclass
class PlanarRodSolution:
    """One equilibrium, or a stack of k of them with a leading axis of k on
    every array but s."""

    s: np.ndarray          # arc-length grid
    curvature: np.ndarray  # u_y(s) on the grid (1/m)
    theta: np.ndarray      # bending angle (rad)
    x: np.ndarray          # world x position (m)
    z: np.ndarray          # world z position (m)
    iterations: int        # fixed-point sweeps, summed over a stack

    @property
    def tip(self):
        return np.stack([self.x[..., -1], self.z[..., -1]], axis=-1)


def _cumtrapz(values, s):
    """Cumulative trapezoid of grid functions (..., len(s)), 0 at s[0]."""
    steps = np.cumsum(0.5 * (values[..., 1:] + values[..., :-1]) * np.diff(s), axis=-1)
    return np.concatenate([np.zeros(values.shape[:-1] + (1,)), steps], axis=-1)


def _integrate(u, s):
    th = _cumtrapz(u, s)
    return th, _cumtrapz(np.sin(th), s), _cumtrapz(np.cos(th), s)


def _interp(x, s, values):
    """np.interp(x, s, row) of every finite row of values (..., len(s)) at
    one x inside [s[0], s[-1]], by np.interp's own formula."""
    j = int(np.searchsorted(s, x, side="right")) - 1
    if j == len(s) - 1:
        return values[..., j]
    slope = (values[..., j + 1] - values[..., j]) / (s[j + 1] - s[j])
    return slope * (x - s[j]) + values[..., j]


def planar_rod_bvp(rod, wrench, max_iter=600):
    """Equilibrium shape of a planar inextensible rod under a tip wrench.

    wrench is a TipWrench, one (f_x, m_y) pair or a (k, 2) stack of them.
    Shooting by fixed-point iteration on the tip position entering the
    moment arm, under-relaxed; a case whose load fails in one step falls back
    to load continuation in 4, then 10 steps.  A stack sweeps all its open
    cases at once, each on its own schedule, so each case takes the sweeps
    and values of a solve on its own; the solution gains a leading axis of k
    and its iterations are summed.  Raises ShootingError, naming the wrench,
    when no schedule converges within max_iter sweeps per load step.
    """
    loads = np.asarray(wrench.planar() if isinstance(wrench, TipWrench) else wrench, dtype=float)
    stack = np.atleast_2d(loads)
    ei = rod.bending_stiffness
    s = np.linspace(0.0, rod.length, ROD_GRID)
    n_ramps = np.array([1, 4, 10])
    u = np.zeros((len(stack), ROD_GRID))
    ramp = np.zeros(len(stack), dtype=int)     # index of the case's schedule
    step = np.ones(len(stack), dtype=int)      # its load step, from 1
    sweeps = np.zeros(len(stack), dtype=int)   # sweeps of that step
    total_it = 0
    live = np.arange(len(stack))
    while len(live):
        frac = (step[live] / n_ramps[ramp[live]])[:, None]
        f_x, m_y = frac * stack[live, :1], frac * stack[live, 1:]
        u_l = u[live]
        z = _cumtrapz(np.cos(_cumtrapz(u_l, s)), s)
        target = (m_y + f_x * (z[:, -1:] - z)) / ei
        resid = np.abs(u_l - target).max(axis=1)
        sweeps[live] += 1
        finite = np.isfinite(resid)
        done = finite & (resid <= ROD_RESID_TOL * np.maximum(np.abs(target).max(axis=1), 1.0))
        u[live] = np.where(done[:, None], u_l, ROD_RELAX * target + (1.0 - ROD_RELAX) * u_l)
        failed = live[~done & (~finite | (sweeps[live] == max_iter))]
        converged = live[done]
        total_it += int(sweeps[converged].sum())
        step[converged] += 1
        sweeps[converged] = 0
        ramp[failed] += 1
        unsolved = failed[ramp[failed] == len(n_ramps)]
        if len(unsolved):
            f_x, m_y = stack[unsolved[0]]
            raise ShootingError(f"no equilibrium for f_x={f_x} N, m_y={m_y} N m (load too large)")
        u[failed], step[failed], sweeps[failed] = 0.0, 1, 0
        live = live[step[live] <= n_ramps[ramp[live]]]
    th, x, z = _integrate(u, s)
    if loads.ndim == 1:
        u, th, x, z = u[0], th[0], x[0], z[0]
    return PlanarRodSolution(s, u, th, x, z, total_it)


def planar_reconstruction_error(sol, rod, radii, anchors, p):
    """Reconstruct rod shapes from noiseless string lengths; return errors.

    String lengths along the true shape use the solver's own cumulative
    trapezoid rule so measurement generation and the linear sensing model
    agree to quadrature accuracy.  Returns (position error %, |tip angle
    error| rad), floats for one solution and (k,) arrays for a stack.
    """
    length = rod.length
    basis = ModalBasis(y=tuple(range(p)), length=length)
    s, theta = sol.s, np.atleast_2d(sol.theta)   # theta is the solver's cumulative trapezoid of u
    ell = np.stack([a * length - r * length * _interp(a * length, s, theta)
                    for r, a in zip(radii, anchors)], axis=-1)
    jac = np.stack([exact_row(ConstantPitch(r * length), basis, 0.0, a * length)
                    for r, a in zip(radii, anchors)])
    # one solve and one (1, p) row product per solution, as for a solution
    # alone, so that every row of a stack equals its own reconstruction
    c = np.linalg.solve(jac, (ell - np.asarray(anchors) * length)[..., None]).swapaxes(-1, -2)
    th_rec = (c @ basis.integral(0.0, length)[1][:, None])[:, 0, 0]   # exact tip angle
    u_rec = (c @ basis.matrix(s)[:, 1].T)[:, 0]
    _, x_r, z_r = _integrate(u_rec, s)
    tip = np.atleast_2d(sol.tip)
    e_pos = np.hypot(x_r[:, -1] - tip[:, 0], z_r[:, -1] - tip[:, 1]) / length * 100.0
    e_rot = np.abs(th_rec - theta[:, -1])
    if np.ndim(sol.theta) == 1:
        return float(e_pos[0]), float(e_rot[0])
    return e_pos, e_rot


def convergence_study(rod=None, n_levels=10, p_list=(1, 2, 3, 4)):
    """Reconstruction error versus string count over a grid of tip wrenches.

    Wrenches are the Cartesian product of n_levels forces in +-CONVERGENCE_F_MAX
    and n_levels moments in +-CONVERGENCE_M_MAX, solved as one stack.  String
    sets are designed by the planar anchor-placement search with the last
    string pinned at radius 0.25 L on the end disk.  Returns per-p statistics
    and the per-case table.
    """
    rod = rod or RodSpec(length=0.3, diameter=0.004, elastic_modulus=60e9)
    designs = {p: optimal_planar_anchors(p) for p in p_list}
    forces = np.linspace(-CONVERGENCE_F_MAX, CONVERGENCE_F_MAX, n_levels)
    moments = np.linspace(-CONVERGENCE_M_MAX, CONVERGENCE_M_MAX, n_levels)
    wrenches = np.stack(np.meshgrid(forces, moments, indexing="ij"), axis=-1).reshape(-1, 2)
    sol = planar_rod_bvp(rod, wrenches)
    rows = [{"f_x": f_x, "m_y": m_y} for f_x, m_y in wrenches]
    stats = {}
    for p in p_list:
        ep, er = planar_reconstruction_error(sol, rod, *designs[p], p)
        for rec, e_pos, e_rot in zip(rows, ep, er):
            rec[f"e_p_{p}"] = float(e_pos)
            rec[f"e_rot_{p}"] = e_rot
        stats[p] = {"mean_e_p": float(ep.mean()), "max_e_p": float(ep.max()),
                    "max_rot": float(er.max())}
    return stats, rows


def synthetic_spatial_truth(basis_truth, array, constraints, n, seed):
    """Seeded admissible truth fields, cusp-free for the array, with their lengths.

    basis_truth should strictly contain the sensing basis so reconstruction
    error is meaningful; the lengths' quadrature error (~1e-9 relative) is far
    below that truncation.  Returns a list of (c_truth, length vector) pairs.
    """
    configs = sample_admissible(basis_truth, constraints, n, seed, strings=array.strings).configs
    return list(zip(configs, lengths(array, basis_truth, configs, Reference.DELTA_FROM_STRAIGHT)))


@dataclass
class PoseErrors:
    e_p: float       # position error, percent of segment length
    theta_e: float   # angular error (rad)
    e_n: float       # normalized mixed error


def error_metrics(pose_true, pose_est, length, c_l):
    """Tip-pose error metrics between two homogeneous transforms."""
    dp = np.linalg.norm(pose_true[:3, 3] - pose_est[:3, 3])
    cos_arg = (np.trace(pose_true[:3, :3] @ pose_est[:3, :3].T) - 1.0) / 2.0
    theta = float(np.arccos(np.clip(cos_arg, -1.0, 1.0)))
    return PoseErrors(
        e_p=float(dp / length * 100.0),
        theta_e=theta,
        e_n=float(np.sqrt(dp + c_l * theta)),
    )
