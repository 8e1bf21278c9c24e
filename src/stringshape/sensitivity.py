"""Noise amplification indices, admissible-workspace sampling, and the
measurement-to-twist sensitivity map used for routing design.

The per-matrix index is aleph(A) = sigma_min(A)^2 / sigma_max(A), whose
reciprocal bounds error amplification in A x = b.  For pose sensitivity the
index is evaluated on the map from measured length changes to the scaled body
twist at an arc length of interest, B = S J_xc J_lc^+ with S = diag(c_l I3, I3);
the routing-design tables are reproduced by aleph(B), and the length-per-twist
Jacobian itself is pinv(B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modal import curvature
from .routing import tangential_margin
from .sensing import SIGMA_RATIO_TOL, aleph_sv, body_jacobian, config_jacobian


def noise_amp(a):
    """sigma_min^2 / sigma_max; zero for an exactly rank-deficient matrix."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return float(aleph_sv(np.linalg.svd(a, compute_uv=False)))


def twist_scaling(c_l):
    """Row scaling that expresses angular twist rows as edge-point velocities."""
    s = np.ones(6)
    s[:3] = c_l
    return s


def length_twist_map(array, basis, c, s, c_l):
    """B (6, p): measured length changes -> scaled body twist at arc length s."""
    j_lc = config_jacobian(array, basis, c)
    j_xc = body_jacobian(basis, c, s)
    return (twist_scaling(c_l)[:, None] * j_xc) @ np.linalg.pinv(j_lc, rcond=SIGMA_RATIO_TOL)


def full_map_jacobian(array, basis, c, s, c_l):
    """J_lxi (p, 6): length change produced by a unit scaled twist at s."""
    return np.linalg.pinv(length_twist_map(array, basis, c, s, c_l), rcond=SIGMA_RATIO_TOL)


def map_rank_limited(p, m):
    """B = S J_xc J_lc^+ (6 x p) has rank at most m; when m < min(p, 6) its
    smallest singular value, and so its index, is exactly 0."""
    return m < min(p, 6)


def full_map_index(array, basis, c, s, c_l):
    """aleph of the length->twist map at one configuration and arc length."""
    if map_rank_limited(array.p, basis.m):
        return 0.0
    return noise_amp(length_twist_map(array, basis, c, s, c_l))


@dataclass(frozen=True)
class DiskGeometry:
    height: float          # h_d, disk thickness (m)
    radius: float          # r_d, disk radius (m)
    subsegment_length: float  # L_s, spacing between disks (m)

    def __post_init__(self):
        if self.height <= 0 or self.radius < 0 or self.subsegment_length <= 0:
            raise ValueError("disk geometry values must be positive (radius >= 0)")
        if self.height >= self.subsegment_length:
            raise ValueError("disks must be thinner than the subsegment")


def disk_collision_radius(height, radius, subsegment_length):
    """Largest radius of curvature rho* at which adjacent disk rims touch.

    Solves 2 (rho - r_d) tan(L_s / (2 rho)) = h_d by a downward bracket scan
    followed by bisection; the largest root is the first collision reached as
    curvature grows from zero.
    """
    h_d, r_d, l_s = height, radius, subsegment_length
    if h_d >= l_s:
        raise ValueError("disks must be thinner than the subsegment")

    def resid(rho):
        return 2.0 * (rho - r_d) * np.tan(l_s / (2.0 * rho)) - h_d

    lo = l_s / np.pi + 1e-9
    hi = 1e6 * l_s
    # Scan from large rho downward for the first sign change (largest root).
    grid = np.geomspace(hi, lo, 400)
    vals = np.array([resid(r) for r in grid])
    idx = np.nonzero(vals <= 0.0)[0]
    if vals[0] <= 0.0 or len(idx) == 0:
        raise ValueError("geometrically impossible disk parameters (no collision root)")
    a, b = grid[idx[0]], grid[idx[0] - 1]   # resid(a) <= 0 < resid(b), a < b
    for _ in range(200):
        mid = 0.5 * (a + b)
        r = resid(mid)
        if abs(r) <= COLLISION_TOL:
            return float(mid)
        if r > 0.0:
            b = mid
        else:
            a = mid
    return float(0.5 * (a + b))


# Arc-length points on which a configuration is checked for admissibility,
# and the residual (m) at which disk_collision_radius stops bisecting.
ADMISSIBLE_GRID = 200
COLLISION_TOL = 1e-12


@dataclass(frozen=True)
class ConstraintSet:
    """Admissibility constraints on a configuration.

    strain_max is per-axis allowable material strain; together with the
    backbone diameter it bounds each curvature component.  Disk geometry adds
    a bending-curvature cap at 1/rho*.  bend_limit/twist_limit are per-
    subsegment angle caps (rad) applied as pointwise curvature bounds
    angle/L_s.  realizability enforces cusp-free paths for the array in use.
    """

    strain_max: tuple | None = None           # (eps_x, eps_y, eps_z)
    backbone_diameter: float | None = None
    disk: DiskGeometry | None = None
    realizability: bool = True
    bend_limit: float | None = None           # rad per subsegment
    twist_limit: float | None = None          # rad per subsegment
    subsegment_length: float | None = None
    axis_cap: tuple | None = None             # direct per-axis curvature bounds (1/m)

    def _subseg(self):
        if self.subsegment_length is not None:
            return self.subsegment_length
        if self.disk is not None:
            return self.disk.subsegment_length
        return None

    def axis_bounds(self):
        """Per-axis curvature bounds (u_x, u_y, u_z) from all active constraints."""
        bounds = np.full(3, np.inf)
        if self.axis_cap is not None:
            bounds = np.minimum(bounds, np.asarray(self.axis_cap, dtype=float))
        if self.strain_max is not None:
            if self.backbone_diameter is None:
                raise ValueError("strain limits need a backbone diameter")
            bounds = np.minimum(bounds, np.asarray(self.strain_max, dtype=float)
                                / (self.backbone_diameter / 2.0))
        if self.disk is not None:
            rho = disk_collision_radius(self.disk.height, self.disk.radius,
                                        self.disk.subsegment_length)
            bounds[:2] = np.minimum(bounds[:2], 1.0 / rho)
        l_s = self._subseg()
        if self.bend_limit is not None:
            if l_s is None:
                raise ValueError("bend limit needs a subsegment length")
            bounds[:2] = np.minimum(bounds[:2], self.bend_limit / l_s)
        if self.twist_limit is not None:
            if l_s is None:
                raise ValueError("twist limit needs a subsegment length")
            bounds[2] = min(bounds[2], self.twist_limit / l_s)
        return bounds

    def admissible(self, basis, c, paths=()):
        """Check a configuration on ADMISSIBLE_GRID uniform arc lengths."""
        s = np.linspace(0.0, basis.length, ADMISSIBLE_GRID)
        u = np.atleast_2d(curvature(basis, c, s))
        bounds = self.axis_bounds()
        for axis in range(3):
            if np.isfinite(bounds[axis]) and np.abs(u[:, axis]).max() > bounds[axis] + 1e-12:
                return False
        if self.disk is not None or self.bend_limit is not None:
            # bending magnitude cap applies to the combined x/y curvature
            xy_cap = min(bounds[0], bounds[1])
            if np.hypot(u[:, 0], u[:, 1]).max() > xy_cap + 1e-12:
                return False
        if self.realizability:
            for path in paths:
                if tangential_margin(path.radial(s), u).min() <= 0.0:
                    return False
        return True


@dataclass
class WorkspaceSamples:
    configs: np.ndarray

    def __len__(self):
        return len(self.configs)


def sample_admissible(basis, constraints, n_target, seed, paths=(), box_scale=1.0,
                      min_acceptance=1e-4):
    """Rejection-sample admissible configurations, reproducible for a seed.

    Coefficients are drawn uniformly in a per-axis box at the curvature bound
    (Chebyshev columns are bounded by one, so coefficient and curvature scales
    are commensurate), optionally shrunk by box_scale, then filtered through
    the full constraint check.
    """
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    bounds = constraints.axis_bounds()
    if not np.all(np.isfinite(bounds)):
        finite = bounds[np.isfinite(bounds)]
        if len(finite) == 0:
            raise ValueError("constraints impose no curvature bound to sample within")
        bounds = np.where(np.isfinite(bounds), bounds, finite.max())
    half = np.concatenate([
        np.full(len(basis.x), bounds[0]),
        np.full(len(basis.y), bounds[1]),
        np.full(len(basis.z), bounds[2]),
    ]) * box_scale
    rng = np.random.default_rng(seed)
    out = np.empty((n_target, basis.m))
    accepted = 0
    attempts = 0
    max_attempts = max(int(n_target / min_acceptance), 10 * n_target)
    while accepted < n_target:
        if attempts >= max_attempts:
            raise RuntimeError(
                f"workspace acceptance rate below {min_acceptance:g}; "
                "rescale the sampling box")
        c = rng.uniform(-half, half)
        attempts += 1
        if constraints.admissible(basis, c, paths=paths):
            out[accepted] = c
            accepted += 1
    return WorkspaceSamples(out)


def global_index(array, basis, samples, s, c_l):
    """Mean of the full-map index over workspace samples (ordered reduction)."""
    configs = samples.configs if isinstance(samples, WorkspaceSamples) else np.asarray(samples)
    if len(configs) == 0:
        raise ValueError("need at least one workspace sample")
    vals = [full_map_index(array, basis, c, s, c_l) for c in configs]
    return float(np.mean(vals))

