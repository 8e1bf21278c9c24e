"""Routing-design search: planar anchor-placement landscapes with peak
refinement, and brute-force enumeration over discrete anchors and helix twist
rates ranked by the workspace-averaged sensitivity index.
"""

from __future__ import annotations

import functools
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .modal import ModalBasis
from .routing import Helical, Mount, StringSpec
from .sensing import (SIGMA_RATIO_TOL, SensorArray, aleph_gram, aleph_sv, body_jacobian,
                      body_jacobian_multi, span_integrals)
from .sensitivity import map_rank_limited, twist_scaling

PLANAR_REFERENCE_RADIUS = 0.25   # fixed end-anchored tendon, radius in units of L
PLANAR_GRID_STEP = 0.004
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def improvement_beta(candidate, baseline):
    """Signed percent improvement of an index over a baseline design."""
    if baseline <= 0.0:
        raise ValueError("baseline index must be positive")
    return 100.0 * (candidate - baseline) / baseline


# ---------------------------------------------------------------------------
# Planar case: p strings on the degree-(p-1) y-basis, normalized L = 1.
# ---------------------------------------------------------------------------

def planar_basis():
    return ModalBasis(y=(0, 1, 2), length=1.0)


def planar_config_jacobian(radii, anchors):
    """Constant J_lc (p, p) for p planar constant-pitch strings on the
    degree-(p-1) y-basis (rows -r_i * int phi over [0, a_i]); stacked anchors
    (..., p) give stacked Jacobians (..., p, p)."""
    radii = np.asarray(radii, dtype=float)
    basis = ModalBasis(y=tuple(range(len(radii))), length=1.0)
    return -radii[:, None] * basis.integral(0.0, anchors)[..., 1, :]


def planar_config_index(jac):
    """aleph(J_lc) of stacked planar J_lc (..., p, p) from the eigenvalues of
    J_lc^T J_lc.  Against the singular values of J_lc this agrees within
    about 1e-14 relative at the landscape peaks and costs about half as much
    on the 249 x 249 anchor grid."""
    return aleph_gram(np.linalg.eigvalsh(np.swapaxes(jac, -1, -2) @ jac))


def planar_full_index(jac, gram_samples):
    """Mean aleph of the length->twist map over samples for planar J_lc (..., 3, 3).

    gram_samples holds (S J_xc)^T (S J_xc) per workspace sample.  The squared
    singular values of B = S J_xc J_lc^-1 are the eigenvalues of
    K = J_lc^-T gram J_lc^-1.  J_lc that fail the rank test of the search
    kernel (SIGMA_RATIO_TOL) score 0; the identity stands in for them so that
    the batched inverse exists.  Forming K squares cond(J_lc): against the
    SVD of W = J_lc^-T (S J_xc)^T, about 3 times dearer, the index differs by
    at most 5.1e-9, near cond(J_lc) 1e9 where the index is below 3.2e-8
    (landscape maximum about 0.15), and by 5.5e-14 at cond(J_lc) below 6e3.
    """
    sv = np.linalg.svd(jac, compute_uv=False)
    full = sv[..., -1] > SIGMA_RATIO_TOL * sv[..., 0]
    inv = np.linalg.inv(np.where(full[..., None, None], jac, np.eye(3)))[..., None, :, :]
    k = np.swapaxes(inv, -1, -2) @ gram_samples @ inv
    return full * aleph_gram(np.linalg.eigvalsh(k)).mean(axis=-1)


def planar_sample_grams(samples, c_l):
    """(S J_xc(L))^T (S J_xc(L)) per workspace configuration."""
    basis = planar_basis()
    configs = getattr(samples, "configs", samples)
    jxc = twist_scaling(c_l)[:, None] * np.array([body_jacobian(basis, c, basis.length)
                                                  for c in configs])
    return np.swapaxes(jxc, -1, -2) @ jxc


@dataclass(frozen=True)
class Peak:
    anchors: tuple
    value: float


def _local_maxima(values):
    """Indices of strict interior local maxima on a 2-D grid."""
    v = values
    core = v[1:-1, 1:-1]
    mask = np.ones_like(core, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            mask &= core > v[1 + di:v.shape[0] - 1 + di, 1 + dj:v.shape[1] - 1 + dj]
    ii, jj = np.nonzero(mask)
    return list(zip(ii + 1, jj + 1))


# Coordinate sweeps of the golden-section refinement, and the bracket width
# (units of L) at which each line search stops.
GOLDEN_ROUNDS = 3
GOLDEN_TOL = 1e-5


def _golden_refine(radii, index, x0, grid_step):
    """Coordinate-wise golden-section ascent of the landscape from the grid
    point x0, over brackets of two grid steps kept inside the grid.  Returns
    the anchors of the strings off the end disk and the index there."""
    def fn(x):
        return float(index(planar_config_jacobian(radii, [*x, 1.0])))

    lo, hi, span = grid_step, 1.0 - grid_step, 2 * grid_step
    x = np.array(x0, dtype=float)
    for _ in range(GOLDEN_ROUNDS):
        for k in range(len(x)):
            a = max(lo, x[k] - span)
            b = min(hi, x[k] + span)

            def g(t):
                y = x.copy()
                y[k] = t
                return fn(y)

            c1 = b - GOLDEN * (b - a)
            c2 = a + GOLDEN * (b - a)
            f1, f2 = g(c1), g(c2)
            while b - a > GOLDEN_TOL:
                if f1 < f2:
                    a, c1, f1 = c1, c2, f2
                    c2 = a + GOLDEN * (b - a)
                    f2 = g(c2)
                else:
                    b, c2, f2 = c2, c1, f1
                    c1 = b - GOLDEN * (b - a)
                    f1 = g(c1)
            x[k] = 0.5 * (a + b)
        span *= 0.25
    return x, fn(x)


def planar_landscape(radii, index, grid_step):
    """index(J_lc) over the anchor placements of p planar strings.

    Radii and anchors are in units of L.  Every string but the last sits on
    axis = arange(grid_step, 1, grid_step); the last is pinned at L.  Returns
    axis and the values, of shape (len(axis),) * (p - 1).
    """
    axis = np.arange(grid_step, 1.0, grid_step)
    grids = np.meshgrid(*[axis] * (len(radii) - 1), indexing="ij")
    anchors = np.stack([*grids, np.ones_like(grids[0])], axis=-1)
    return axis, index(planar_config_jacobian(radii, anchors))


def planar_peak_search(radii, index, grid_step=PLANAR_GRID_STEP):
    """All local maxima of the landscape of three planar strings, refined,
    highest first.  index is planar_config_index or planar_full_index bound
    to the sample Grams of planar_sample_grams."""
    axis, values = planar_landscape(radii, index, grid_step)
    peaks = []
    for i, j in _local_maxima(values):
        x, v = _golden_refine(radii, index, (axis[i], axis[j]), grid_step)
        peaks.append(Peak(anchors=(float(x[0]), float(x[1])), value=v))
    peaks.sort(key=lambda p: -p.value)
    return peaks


def optimal_planar_anchors(p):
    """Anchor set maximizing aleph(J_lc) for p <= 4 strings, the last pinned
    at (0.25, L).

    Used by the reconstruction convergence study; the radii alternate
    +-0.25 (row signs do not affect singular values).  Returns (radii,
    anchors) in units of L.
    """
    if p > 4:
        raise ValueError(f"optimal_planar_anchors supports p <= 4 strings, got {p}: "
                         "its anchor grid steps are tuned for p <= 4 only")
    radii = PLANAR_REFERENCE_RADIUS * (-1.0) ** np.arange(p)[::-1]
    if p == 1:
        return radii, np.array([1.0])
    grid_step = {2: 0.002, 3: 0.01, 4: 0.04}[p]
    axis, values = planar_landscape(radii, planar_config_index, grid_step)
    best = axis[list(np.unravel_index(np.argmax(values), values.shape))]
    refined, _ = _golden_refine(radii, planar_config_index, best, grid_step)
    return radii, np.append(refined, 1.0)


# ---------------------------------------------------------------------------
# Brute-force search over discrete anchors and shared helix twist rates.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DesignedString:
    """String whose anchor disk the search picks; a Helical path takes the
    design's shared twist rate in place of its own omega."""

    path: object
    mount: Mount = Mount.BASE

    def path_at(self, omega):
        if isinstance(self.path, Helical):
            return replace(self.path, omega=omega)
        return self.path


@dataclass(frozen=True)
class DesignSpace:
    """Enumeration of routing designs for a fixed robot skeleton.

    Designed strings take their anchors from anchor_disks (disk index k sits
    at arc length k*L/n_disks); the helix twist rate is shared by all designed
    strings and swept over twist_rates, with omega = n_omega * hole_angle
    per subsegment length.  Fixed strings (e.g. actuation tendons) and
    composite channels are appended after the designed strings.
    """

    basis: ModalBasis
    designed: tuple
    fixed: tuple = ()
    composites: tuple = ()
    anchor_disks: tuple = ()
    n_disks: int = 10
    twist_rates: tuple = (0,)
    hole_angle: float = 2.0 * np.pi / 32.0
    s_objectives: tuple = ()
    c_l: float = 1.0
    epsilon: float = 1e-7

    @property
    def size(self):
        return len(self.anchor_disks) ** len(self.designed) * len(self.twist_rates)

    def omega_of(self, n_omega):
        return n_omega * self.hole_angle / (self.basis.length / self.n_disks)

    def array_for(self, anchors, n_omega):
        """SensorArray for one candidate design (anchors are disk indices)."""
        length = self.basis.length
        specs = []
        for disk, ds in zip(anchors, self.designed):
            specs.append(StringSpec(path=ds.path_at(self.omega_of(n_omega)),
                                    s_anchor=disk * length / self.n_disks,
                                    mount=ds.mount))
        specs.extend(self.fixed)
        return SensorArray(strings=tuple(specs), composites=self.composites)


@dataclass
class SearchResult:
    anchors: np.ndarray        # (n_designs, n_designed) disk indices
    n_omega: np.ndarray        # (n_designs,)
    aleph_config: np.ndarray   # (n_designs,) straight-configuration index
    aleph_g: np.ndarray        # (n_designs, n_objectives); 0 where aleph_config < epsilon
    singular: np.ndarray       # (n_designs,) bool
    s_objectives: tuple
    order: np.ndarray          # ranking by the last objective

    def best(self, objective_index=-1):
        """Index of the non-singular design with the largest index at the
        given objective (by default the last one, by which the search ranks)."""
        return int(np.argmax(np.where(self.singular, -np.inf, self.aleph_g[:, objective_index])))


def _cumulative_rows(space, c):
    """J_lc rows of every string variant at configuration c.

    Designed strings get the span_integrals rows from the origin to every
    disk edge k*L/n_disks in one call; tip-mounted strings read
    row[end] - row[anchor].
    Fixed strings take config_jacobian's row over their own span, wherever
    they are anchored.  Returns (designed_rows[n_omega][string][disk] -> (m,),
    fixed_rows (k, m)).
    """
    basis = space.basis
    disk_edges = np.arange(space.n_disks + 1) * basis.length / space.n_disks
    designed = np.zeros((len(space.twist_rates), len(space.designed),
                         len(disk_edges), basis.m))
    for iw, n_om in enumerate(space.twist_rates):
        omega = space.omega_of(n_om)
        for i, dstr in enumerate(space.designed):
            at_disks = span_integrals(dstr.path_at(omega), basis, c, 0.0, disk_edges)[1]
            if dstr.mount is Mount.TIP:
                at_disks = at_disks[-1] - at_disks
            designed[iw, i] = at_disks
    fixed = np.zeros((len(space.fixed), basis.m))
    for k, spec in enumerate(space.fixed):
        lo, hi = spec.span(basis.length)
        fixed[k] = span_integrals(spec.path, basis, c, lo, [hi])[1][0]
    return designed, fixed


def _evaluate_chunk(payload):
    """Evaluate one contiguous block of designs; pure function of its inputs.

    channels is a SensorArray of the space: every design shares its string
    count and composites, so its reduce folds the per-string rows of any of
    them.  Row sample 0 is the straight configuration and samples 1..S the
    workspace; jxc holds the scaled body Jacobians as (objective, S, 6, m).

    Screen first, score second: the singular values of J_lc at sample 0
    screen every design, and only the designs that pass are evaluated on the
    workspace.  Designs singular at the straight configuration are not
    scored and carry aleph_g = 0.  Per (survivor, sample) the singular values
    of J_lc drive the workspace-mean screen.  Where J_lc has full column
    rank, B = S J_xc J_lc^+ satisfies B B^T = W^T W with W = A^-T (S J_xc)^T,
    A being J_lc itself (p = m) or its R factor (p > m), so aleph(B) comes
    from one inverse and the singular values of the m x 6 W.  Rank-deficient
    samples keep the truncated pseudo-inverse.  Where map_rank_limited(p, m)
    holds, every index is 0 by the shape of B alone.
    """
    (space, channels, anc, iws, des_rows, fix_rows, jxc) = payload
    m = space.basis.m
    n_designed = len(space.designed)

    def jlc_at(des, fix, designs):
        """J_lc (n_designs, n_samples, p, m) of the given designs from the
        cumulative rows of n_samples row samples."""
        anc_d, iws_d = anc[designs], iws[designs]
        # rows are string-major for the folding
        rows = np.zeros((n_designed + len(space.fixed), len(anc_d), len(des), m))
        for i in range(n_designed):
            rows[i] = des[:, iws_d, i, anc_d[:, i], :].transpose(1, 0, 2)
        rows[n_designed:] = fix.transpose(1, 0, 2)[:, None]
        return np.moveaxis(channels.reduce(rows), 0, -2)

    straight = jlc_at(des_rows[:1], fix_rows[:1], slice(None))[:, 0]
    a0 = aleph_sv(np.linalg.svd(straight, compute_uv=False))
    bad = a0 < space.epsilon
    keep = np.flatnonzero(~bad)
    ag = np.zeros((len(anc), len(space.s_objectives)))
    jlc = jlc_at(des_rows[1:], fix_rows[1:], keep)      # (n_keep, S, p, m)
    p = jlc.shape[-2]
    sv = np.linalg.svd(jlc, compute_uv=False)
    bad[keep] = aleph_sv(sv).mean(axis=1) < space.epsilon
    if map_rank_limited(p, m):
        return a0, ag, bad
    full = sv[..., -1] > SIGMA_RATIO_TOL * sv[..., 0]
    # the identity stands in for rank-deficient J_lc so that the batched inverse exists
    square = np.linalg.qr(jlc, mode="r") if p > m else jlc
    inv_t = np.swapaxes(np.linalg.inv(np.where(full[..., None, None], square, np.eye(m))), -1, -2)
    deficient = np.nonzero(~full)
    if len(deficient[0]):
        u_m, s_m, vt_m = np.linalg.svd(jlc[deficient], full_matrices=False)
        inv_s = np.divide(1.0, s_m, out=np.zeros_like(s_m),
                          where=s_m > SIGMA_RATIO_TOL * s_m[..., :1])
        pinv = np.einsum("...ji,...j,...kj->...ik", vt_m, inv_s, u_m)
    for k in range(len(space.s_objectives)):
        val = aleph_sv(np.linalg.svd(inv_t @ np.swapaxes(jxc[k], -1, -2), compute_uv=False))
        if len(deficient[0]):
            b = jxc[k][deficient[1]] @ pinv
            val[deficient] = aleph_sv(np.linalg.svd(b, compute_uv=False))
        ag[keep, k] = val.mean(axis=1)
    return a0, ag, bad


# Designs per evaluated block (and per worker task), and the largest space
# brute_force_search accepts.
DESIGN_CHUNK = 400
MAX_DESIGNS = 1_000_000


@functools.lru_cache(maxsize=1)
def _enumeration(anchor_disks, n_designed, twist_rates):
    """Disk indices (n_designs, n_designed), twist-rate index and n_omega of
    every design in lexicographic order, read-only.  Searches of one space
    share them instead of allocating them per call; one entry is kept, since
    at MAX_DESIGNS the anchors alone take 32 MB."""
    combos = np.array(list(itertools.product(*[anchor_disks] * n_designed,
                                             range(len(twist_rates)))))
    anchors, iw = combos[:, :-1], combos[:, -1]
    n_omega = np.array(twist_rates)[iw]
    for a in (anchors, iw, n_omega):
        a.setflags(write=False)
    return anchors, iw, n_omega


def brute_force_search(space, samples, jobs=1):
    """Evaluate every design in the space and rank by the last objective.

    A design is marked singular when aleph(J_lc) falls below space.epsilon at
    the straight configuration or in the workspace mean (the filter the
    routing studies use).  The straight screen runs first: designs it marks
    are not scored and carry aleph_g = 0.  Every other design gets the
    workspace-averaged length->twist index at each objective arc length.
    anchors and n_omega are shared, read-only arrays (see _enumeration).
    Evaluation order is the lexicographic enumeration of candidate tuples;
    blocks of DESIGN_CHUNK designs may be evaluated by up to jobs worker
    processes, with a deterministic ordered merge, so results do not depend
    on the worker count.
    """
    if space.size > MAX_DESIGNS:
        raise ValueError(f"design space size {space.size} exceeds {MAX_DESIGNS}")
    if not space.s_objectives:
        raise ValueError("design space has no objective arc lengths (s_objectives is empty)")
    configs = getattr(samples, "configs", np.asarray(samples))
    if len(configs) == 0:
        raise ValueError("empty workspace sample set")
    basis = space.basis
    m = basis.m
    anchors, iw, n_omega = _enumeration(tuple(space.anchor_disks), len(space.designed),
                                        tuple(space.twist_rates))
    n_designs = len(anchors)
    channels = space.array_for(anchors[0], space.twist_rates[0])
    if channels.p < m:
        raise ValueError("fewer measurement channels than basis columns")

    scale = twist_scaling(space.c_l)

    # Design-independent: body Jacobians at the objective arc lengths, kept
    # by position so that a repeated arc length is one more column.
    jxc = np.array([body_jacobian_multi(basis, c, space.s_objectives)
                    for c in configs])                  # (S, n_objectives, 6, m)
    jxc = scale[:, None] * np.moveaxis(jxc, 1, 0)

    # Cumulative rows for every string variant; row sample 0 is the straight
    # configuration of the singular screen, then the workspace samples.
    rows = [_cumulative_rows(space, c) for c in [np.zeros(m), *configs]]
    des_rows = np.array([d for d, _ in rows])   # (1 + S, n_omega, n_designed, n_disks+1, m)
    fix_rows = np.array([f for _, f in rows])   # (1 + S, n_fixed, m)

    payloads = [
        (space, channels, anchors[c0:c0 + DESIGN_CHUNK], iw[c0:c0 + DESIGN_CHUNK],
         des_rows, fix_rows, jxc)
        for c0 in range(0, n_designs, DESIGN_CHUNK)
    ]
    workers = min(jobs, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_evaluate_chunk, payloads))
    else:
        results = [_evaluate_chunk(pl) for pl in payloads]

    aleph_cfg = np.concatenate([r[0] for r in results])
    aleph_g = np.concatenate([r[1] for r in results])
    singular = np.concatenate([r[2] for r in results])

    key = np.where(singular, -np.inf, aleph_g[:, -1])
    order = np.argsort(-key, kind="stable")
    return SearchResult(anchors=anchors, n_omega=n_omega,
                        aleph_config=aleph_cfg, aleph_g=aleph_g, singular=singular,
                        s_objectives=tuple(space.s_objectives), order=order)
