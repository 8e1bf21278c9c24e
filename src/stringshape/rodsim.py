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

from .modal import ModalBasis, curvature
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
        if min(self.length, self.diameter, self.elastic_modulus) <= 0:
            raise ValueError("rod parameters must be positive")

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
    s: np.ndarray          # arc-length grid
    curvature: np.ndarray  # u_y(s) on the grid (1/m)
    theta: np.ndarray      # bending angle (rad)
    x: np.ndarray          # world x position (m)
    z: np.ndarray          # world z position (m)
    iterations: int

    @property
    def tip(self):
        return np.array([self.x[-1], self.z[-1]])


def _cumtrapz(values, s):
    """Cumulative trapezoid of a grid function, 0 at s[0]."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(s))])


def _integrate(u, s):
    th = _cumtrapz(u, s)
    return th, _cumtrapz(np.sin(th), s), _cumtrapz(np.cos(th), s)


def _fixed_point(u0, s, ei, f_x, m_y, max_iter):
    """Relaxed sweeps on the moment balance until the residual meets tol.

    Returns (u, iterations) or None on divergence / iteration budget.
    """
    u = u0.copy()
    for it in range(1, max_iter + 1):
        _, _, z = _integrate(u, s)
        target = (m_y + f_x * (z[-1] - z)) / ei
        resid = np.abs(u - target).max()
        if not np.isfinite(resid):
            return None
        if resid <= ROD_RESID_TOL * max(np.abs(target).max(), 1.0):
            return u, it
        u = ROD_RELAX * target + (1.0 - ROD_RELAX) * u
    return None


def planar_rod_bvp(rod, wrench, max_iter=600):
    """Equilibrium shape of a planar inextensible rod under a tip wrench.

    Shooting by fixed-point iteration on the tip position entering the moment
    arm, under-relaxed; stubborn load combinations fall back to load
    continuation.  Raises ShootingError when no schedule converges within
    max_iter sweeps per load step.
    """
    f_x, m_y = wrench.planar() if isinstance(wrench, TipWrench) else wrench
    ei = rod.bending_stiffness
    s = np.linspace(0.0, rod.length, ROD_GRID)
    total_it = 0
    for n_ramp in (1, 4, 10):
        u = np.zeros(ROD_GRID)
        ok = True
        for k in range(1, n_ramp + 1):
            frac = k / n_ramp
            got = _fixed_point(u, s, ei, frac * f_x, frac * m_y, max_iter)
            if got is None:
                ok = False
                break
            u, it = got
            total_it += it
        if ok:
            th, x, z = _integrate(u, s)
            return PlanarRodSolution(s, u, th, x, z, total_it)
    raise ShootingError(f"no equilibrium for f_x={f_x} N, m_y={m_y} N m (load too large)")


def planar_reconstruction_error(sol, rod, radii, anchors, p):
    """Reconstruct one rod shape from noiseless string lengths; return errors.

    String lengths along the true shape use the solver's own cumulative
    trapezoid rule so measurement generation and the linear sensing model
    agree to quadrature accuracy.  Returns (position error %, |tip angle
    error| rad).
    """
    length = rod.length
    basis = ModalBasis(y=tuple(range(p)), length=length)
    s, theta = sol.s, sol.theta     # theta is the solver's cumulative trapezoid of u
    ell = [a * length - r * length * np.interp(a * length, s, theta)
           for r, a in zip(radii, anchors)]
    jac = np.stack([exact_row(ConstantPitch(r * length), basis, 0.0, a * length)
                    for r, a in zip(radii, anchors)])
    c = np.linalg.solve(jac, np.asarray(ell) - np.asarray(anchors) * length)

    th_rec = float(basis.integral(0.0, length)[1] @ c)   # exact tip angle
    u_rec = curvature(basis, c, s)[:, 1]
    _, x_r, z_r = _integrate(u_rec, s)
    e_pos = float(np.hypot(x_r[-1] - sol.x[-1], z_r[-1] - sol.z[-1]) / length * 100.0)
    return e_pos, abs(th_rec - theta[-1])


def convergence_study(rod=None, n_levels=10, p_list=(1, 2, 3, 4)):
    """Reconstruction error versus string count over a grid of tip wrenches.

    Wrenches are the Cartesian product of n_levels forces in +-CONVERGENCE_F_MAX
    and n_levels moments in +-CONVERGENCE_M_MAX.  String sets are designed by the
    planar anchor-placement search with the last string pinned at radius
    0.25 L on the end disk.  Returns per-p statistics and the per-case table.
    """
    rod = rod or RodSpec(length=0.3, diameter=0.004, elastic_modulus=60e9)
    designs = {p: optimal_planar_anchors(p) for p in p_list}
    forces = np.linspace(-CONVERGENCE_F_MAX, CONVERGENCE_F_MAX, n_levels)
    moments = np.linspace(-CONVERGENCE_M_MAX, CONVERGENCE_M_MAX, n_levels)
    rows = []
    for f_x in forces:
        for m_y in moments:
            sol = planar_rod_bvp(rod, (f_x, m_y))
            rec = {"f_x": f_x, "m_y": m_y}
            for p in p_list:
                radii, anchors = designs[p]
                e_pos, e_rot = planar_reconstruction_error(sol, rod, radii, anchors, p)
                rec[f"e_p_{p}"] = e_pos
                rec[f"e_rot_{p}"] = e_rot
            rows.append(rec)
    stats = {}
    for p in p_list:
        ep = np.array([r[f"e_p_{p}"] for r in rows])
        er = np.array([r[f"e_rot_{p}"] for r in rows])
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
