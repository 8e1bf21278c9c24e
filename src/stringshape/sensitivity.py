"""Noise amplification indices, admissible-workspace sampling, and the
measurement-to-twist sensitivity map used for routing design.

The per-matrix index is aleph(A) = sigma_min(A)^2 / sigma_max(A), whose
reciprocal bounds error amplification in A x = b.  For pose sensitivity the
index is evaluated on the map from measured length changes to the scaled body
twist at an arc length of interest, B = S J_xc J_lc^+ with S = diag(c_l I3, I3);
the routing-design tables are reproduced by aleph(B), and the length-per-twist
Jacobian itself is pinv(B).  A configuration whose J_lc fails the rank test
(sensing.full_rank) cannot be solved for c, and its index is 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sensing import (SIGMA_RATIO_TOL, _cusp_grid, _margins, aleph_sv, body_jacobian,
                      config_jacobian, full_rank)


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
    """B (6, p): measured length changes -> scaled body twist at arc length s;
    (S, 6, p) for a stack c (S, m), whose J_xc come from one Magnus pass and
    J_lc from one string table."""
    j_xc = body_jacobian(basis, c, s)
    j_lc = config_jacobian(array, basis, c)
    return (twist_scaling(c_l)[:, None] * j_xc) @ np.linalg.pinv(j_lc, rcond=SIGMA_RATIO_TOL)


def map_rank_limited(p, m):
    """B = S J_xc J_lc^+ (6 x p) has rank at most m; when m < min(p, 6) its
    smallest singular value, and so its index, is exactly 0."""
    return m < min(p, 6)


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


# Arc-length points of the curvature-bound check, the residual (m) at which
# disk_collision_radius stops bisecting, and the candidates per sampler block.
ADMISSIBLE_GRID = 200
COLLISION_TOL = 1e-12
SAMPLE_BLOCK = 256
# Slack of admissible's end-point pre-check, relative to sum_i |c_i| |Phi_i|
# at the end point.  The pre-check and the full-grid check form the same
# curvature by different matrix products; each is within gamma_m = m eps / (1
# - m eps) of that sum of the exact value, so the two differ by at most 2
# gamma_m of it (2.4e-15 at the soft truth basis's m = 11).  1e-9 leaves five
# decades, so the pre-check never rejects what the full grid would accept.
END_SLACK = 1e-9


@dataclass(frozen=True)
class ConstraintSet:
    """Admissibility constraints on a configuration.

    strain_max is per-axis allowable material strain; together with the
    backbone diameter it bounds each curvature component.  Disk geometry adds
    a bending-curvature cap at 1/rho*.  bend_limit/twist_limit are per-
    subsegment angle caps (rad) applied as pointwise curvature bounds
    angle/L_s.  Realizability is the caller's choice: admissible applies the
    cusp rule to the strings it is given.
    """

    strain_max: tuple | None = None           # (eps_x, eps_y, eps_z)
    backbone_diameter: float | None = None
    disk: DiskGeometry | None = None
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

    def grids(self, basis, strings=()):
        """What admissible needs that does not depend on c: the axis bounds,
        Phi on the ADMISSIBLE_GRID points with its rows flattened and
        transposed, and the strings' cusp grid (None without strings)."""
        phi = basis.matrix(np.linspace(0.0, basis.length, ADMISSIBLE_GRID))
        return (self.axis_bounds(), phi.reshape(-1, basis.m).T,
                _cusp_grid(strings, basis) if strings else None)

    def admissible(self, basis, c, strings=(), grids=None):
        """Whether c (m,), or each row of a stack c (k, m), keeps within the bounds
        on ADMISSIBLE_GRID arc lengths and passes the cusp rule for each string.
        grids is grids(basis, strings), for a caller that checks many stacks.

        The check runs in stages, each only on the candidates the one before
        passed: the bounds at the grid's end points s = 0 and s = L, where every
        Chebyshev column reaches |T_n| = 1, each widened by END_SLACK times
        sum_i |c_i| |Phi_i| there; the bounds on the whole grid; the cusp rule.
        The slack is far above the round-off by which the end-point product can
        differ from the full grid's, so the first stage rejects only what the
        full grid rejects: the result is the one-stage check's, and no sample
        drawn by sample_admissible depends on the stages."""
        bounds, phi_t, cusp_grid = grids or self.grids(basis, strings)
        c = basis.check_stack(c)
        stack = np.atleast_2d(c)
        ends = phi_t.reshape(basis.m, ADMISSIBLE_GRID, 3)[:, [0, -1]].reshape(basis.m, 6)
        ok = self._within(stack @ ends, bounds, END_SLACK * (np.abs(stack) @ np.abs(ends)))
        if ok.any():
            ok[ok] = self._within(stack[ok] @ phi_t, bounds)
        if cusp_grid is not None and ok.any():
            # the cusp rule only for the candidates within the bounds
            ok[ok] = np.all(_margins(cusp_grid, stack[ok]) > 0.0, axis=1)
        return ok if c.ndim == 2 else bool(ok[0])

    def _within(self, u, bounds, slack=None):
        """Per row of curvatures u (k, 3 n) at n arc lengths: whether each axis
        keeps within its bound and, with a disk or a bend limit, the x/y
        magnitude within the smaller x/y bound.  slack (k, 3 n), where given,
        widens each axis bound by its entry and the magnitude bound by the sum
        of its x and y entries."""
        u = u.reshape(len(u), -1, 3)
        axis_limit, bend_limit = bounds + 1e-12, min(bounds[:2]) + 1e-12
        if slack is not None:
            slack = slack.reshape(u.shape)
            axis_limit = axis_limit + slack
            bend_limit = bend_limit + slack[..., 0] + slack[..., 1]
        ok = np.all(np.abs(u) <= axis_limit, axis=(1, 2))
        if self.disk is not None or self.bend_limit is not None:
            # bending magnitude cap applies to the combined x/y curvature
            ok &= np.all(np.hypot(u[..., 0], u[..., 1]) <= bend_limit, axis=1)
        return ok


@dataclass
class WorkspaceSamples:
    configs: np.ndarray
    attempts: int   # candidates drawn up to and including the last one accepted

    def __len__(self):
        return len(self.configs)


def sample_admissible(basis, constraints, n_target, seed, strings=(), box_scale=1.0,
                      min_acceptance=1e-4):
    """Rejection-sample admissible configurations, reproducible for a seed.

    Coefficients are drawn uniformly in a per-axis box at the curvature bound
    (Chebyshev columns are bounded by one, so coefficient and curvature scales
    are commensurate), optionally shrunk by box_scale, then filtered through
    the full constraint check with the given strings, SAMPLE_BLOCK candidates
    at a time; a block draws the same stream as single candidates, so the
    first n_target admissible draws, and the attempts they took, do not
    depend on the block size.
    """
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    grids = constraints.grids(basis, strings)
    bounds = grids[0]
    finite = np.isfinite(bounds)
    if not finite.any():
        raise ValueError("constraints impose no curvature bound to sample within")
    bounds = np.where(finite, bounds, bounds[finite].max())
    half = np.repeat(bounds, [len(basis.x), len(basis.y), len(basis.z)]) * box_scale
    rng = np.random.default_rng(seed)
    kept, accepted, attempts = [], 0, 0
    max_attempts = max(int(n_target / min_acceptance), 10 * n_target)
    while accepted < n_target:
        if attempts >= max_attempts:
            raise RuntimeError(
                f"workspace acceptance rate below {min_acceptance:g}; "
                "rescale the sampling box")
        c = rng.uniform(-half, half, size=(min(SAMPLE_BLOCK, max_attempts - attempts), basis.m))
        hits = np.flatnonzero(constraints.admissible(basis, c, strings, grids))
        kept.append(c[hits])
        need = n_target - accepted
        attempts += len(c) if len(hits) < need else int(hits[need - 1]) + 1
        accepted += len(hits)
    return WorkspaceSamples(np.concatenate(kept)[:n_target], attempts)


def global_index(array, basis, samples, s, c_l):
    """Mean of aleph(B) over workspace samples (ordered reduction), the slow
    reference of the routing search.  It follows the search's one rank rule:
    a sample whose J_lc fails full_rank scores 0, and where
    map_rank_limited(p, m) holds every sample does."""
    configs = samples.configs if isinstance(samples, WorkspaceSamples) else np.asarray(samples)
    if len(configs) == 0:
        raise ValueError("need at least one workspace sample")
    if map_rank_limited(array.p, basis.m):
        return 0.0
    b = length_twist_map(array, basis, configs, s, c_l)
    full = full_rank(np.linalg.svd(config_jacobian(array, basis, configs), compute_uv=False))
    return float(np.mean(full * aleph_sv(np.linalg.svd(b, compute_uv=False))))

