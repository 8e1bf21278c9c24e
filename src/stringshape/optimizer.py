"""Routing-design search: planar anchor-placement landscapes with peak
refinement, and brute-force enumeration over discrete anchors and helix twist
rates ranked by the workspace-averaged sensitivity index.
"""

from __future__ import annotations

import functools
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .modal import ModalBasis
from .routing import Helical, Mount, StringSpec
from .sensing import (SensorArray, aleph_gram, aleph_sv, body_jacobian, body_jacobian_multi,
                      full_rank, span_integrals)
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
    K = J_lc^-T gram J_lc^-1.  J_lc that fail the rank test (full_rank)
    score 0, the one rank rule of the search kernel; the identity stands in
    for them so that the batched inverse exists.  Forming K squares
    cond(J_lc): against the SVD of W = J_lc^-T (S J_xc)^T, about 3 times
    dearer, the index differs by at most 5.1e-9, near cond(J_lc) 1e9 where
    the index is below 3.2e-8 (landscape maximum about 0.15), and by 5.5e-14
    at cond(J_lc) below 6e3.
    """
    full = full_rank(np.linalg.svd(jac, compute_uv=False))
    inv = np.linalg.inv(np.where(full[..., None, None], jac, np.eye(3)))[..., None, :, :]
    k = np.swapaxes(inv, -1, -2) @ gram_samples @ inv
    return full * aleph_gram(np.linalg.eigvalsh(k)).mean(axis=-1)


def planar_sample_grams(samples, c_l):
    """(S J_xc(L))^T (S J_xc(L)) per workspace configuration."""
    basis = planar_basis()
    configs = getattr(samples, "configs", samples)
    jxc = twist_scaling(c_l)[:, None] * body_jacobian(basis, configs, basis.length)
    return np.swapaxes(jxc, -1, -2) @ jxc


@dataclass(frozen=True)
class Peak:
    anchors: tuple
    value: float


def _local_maxima(values):
    """Indices (n, 2) of strict interior local maxima on a 2-D grid."""
    v = values
    core = v[1:-1, 1:-1]
    mask = np.ones_like(core, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            mask &= core > v[1 + di:v.shape[0] - 1 + di, 1 + dj:v.shape[1] - 1 + dj]
    return np.argwhere(mask) + 1


# Coordinate sweeps of the golden-section refinement, and the bracket width
# (units of L) at which each line search stops.
GOLDEN_ROUNDS = 3
GOLDEN_TOL = 1e-5


def _golden_refine(radii, index, x0, grid_step):
    """Coordinate-wise golden-section ascent of the landscape from each grid
    point of x0 (n, d), over brackets of two grid steps kept inside the grid.

    The starts move in lockstep: each step makes one index call on the rows
    whose bracket is still open, and each row takes the bracket updates of a
    run from its start alone (a bracket clipped at the grid edge closes in
    fewer steps).  Returns the anchors (n, d) of the strings off the end disk
    and the index there (n,).
    """
    def fn(x):
        return index(planar_config_jacobian(radii, np.column_stack([x, np.ones(len(x))])))

    lo, hi, span = grid_step, 1.0 - grid_step, 2 * grid_step
    x = np.array(x0, dtype=float)
    for _ in range(GOLDEN_ROUNDS):
        for k in range(x.shape[1]):
            def g(rows, t):
                y = x[rows]
                y[:, k] = t
                return fn(y)

            a = np.maximum(lo, x[:, k] - span)
            b = np.minimum(hi, x[:, k] + span)
            c1 = b - GOLDEN * (b - a)
            c2 = a + GOLDEN * (b - a)
            f1, f2 = np.split(g(np.tile(np.arange(len(x)), 2), np.concatenate([c1, c2])), 2)
            rows = np.flatnonzero(b - a > GOLDEN_TOL)
            while len(rows):
                # up: the maximum lies right of c1, so a moves to c1 and c2
                # is the new point; otherwise b moves to c2 and c1 is new
                up = f1[rows] < f2[rows]
                a_r = np.where(up, c1[rows], a[rows])
                b_r = np.where(up, b[rows], c2[rows])
                t = np.where(up, a_r + GOLDEN * (b_r - a_r), b_r - GOLDEN * (b_r - a_r))
                f_t = g(rows, t)
                c1[rows], c2[rows] = np.where(up, c2[rows], t), np.where(up, t, c1[rows])
                f1[rows], f2[rows] = np.where(up, f2[rows], f_t), np.where(up, f_t, f1[rows])
                a[rows], b[rows] = a_r, b_r
                rows = rows[b_r - a_r > GOLDEN_TOL]
            x[:, k] = 0.5 * (a + b)
        span *= 0.25
    return x, fn(x)


# Grid rows' worth of anchor placements per index call.  A workspace index
# holds a few (points, samples, 3, 3) temporaries: 14 MB each for the whole
# 99 x 99 grid of 20 samples, 1.1 MB for 8 rows of it.
LANDSCAPE_BLOCK = 8


def planar_landscape(radii, index, grid_step):
    """index(J_lc) over the anchor placements of p planar strings.

    Radii and anchors are in units of L.  Every string but the last sits on
    axis = arange(grid_step, 1, grid_step); the last is pinned at L.  Returns
    axis and the values, of shape (len(axis),) * (p - 1).

    index must not change under J_lc -> P D J_lc, P a row permutation and D
    a diagonal of signs (true of any function of the singular values).  Two
    free strings of equal |r| that swap anchors do just that to J_lc, so
    index is called only on the representatives, the placements whose
    anchors do not decrease within each group of free strings of equal |r|,
    and every other placement takes the value of its sorted representative.
    The representatives go to index in C order, LANDSCAPE_BLOCK full grid
    rows' worth of points per call.
    """
    radii = np.asarray(radii, dtype=float)
    axis = np.arange(grid_step, 1.0, grid_step)
    n, d = len(axis), len(radii) - 1
    anchors = np.ix_(*[axis] * d)
    ids = np.ix_(*[np.arange(n)] * d)
    # the comparators (a, b) of a bubble sort of the anchor indices within
    # each group of free strings of equal |r|
    free = np.abs(radii[:-1])
    swaps = []
    for r in dict.fromkeys(free.tolist()):
        group = np.flatnonzero(free == r)
        swaps += [(group[j], group[j + 1])
                  for top in range(len(group) - 1, 0, -1) for j in range(top)]
    rep = np.ones((n,) * d, dtype=bool)
    for a, b in swaps:
        rep &= ids[a] <= ids[b]
    points = [np.broadcast_to(g, rep.shape)[rep] for g in anchors]
    points = np.column_stack([*points, np.ones(len(points[0]))])
    block = LANDSCAPE_BLOCK * n ** (d - 1)
    values = np.zeros(rep.shape)
    values[rep] = np.concatenate([index(planar_config_jacobian(radii, points[i:i + block]))
                                  for i in range(0, len(points), block)])
    # the comparators in reverse order carry each representative's value to
    # every placement that the sort takes to it
    for a, b in reversed(swaps):
        values = np.where(ids[a] > ids[b], values.swapaxes(a, b), values)
    return axis, values


def planar_peak_search(radii, index, grid_step=PLANAR_GRID_STEP):
    """All local maxima of the landscape of three planar strings, refined in
    one lockstep run, highest first.  index is planar_config_index or
    planar_full_index bound to the sample Grams of planar_sample_grams."""
    axis, values = planar_landscape(radii, index, grid_step)
    x, v = _golden_refine(radii, index, axis[_local_maxima(values)], grid_step)
    peaks = [Peak(anchors=(float(a_1), float(a_2)), value=float(val))
             for (a_1, a_2), val in zip(x, v)]
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
    # every permutation of the strings off the end disk takes the value of
    # its increasing representative, which argmax meets first; equal anchors
    # leave J_lc singular and score 0
    best = axis[list(np.unravel_index(np.argmax(values), values.shape))]
    refined, _ = _golden_refine(radii, planar_config_index, best[None], grid_step)
    return radii, np.append(refined[0], 1.0)


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
    n_scored: int              # designs the kernel evaluated, one per mirror orbit

    @property
    def order(self):
        """Design indices ranked by the last objective, singular designs
        last (see _ranking); derived on read, as best() is."""
        return _ranking(self.aleph_g[:, -1], self.singular)

    def best(self, objective_index=-1):
        """Index of the non-singular design ranked first at the given
        objective (by default the last one, by which the search ranks): the
        first argmax, as in order."""
        return int(np.argmax(np.where(self.singular, -np.inf,
                                      self.aleph_g[:, objective_index])))


def _cumulative_rows(space, c):
    """J_lc rows of every string variant at configuration c (m,), or at
    every row of a stack (n, m), with one span_integrals call per variant.

    Designed strings get the span_integrals rows from the origin to every
    disk edge k*L/n_disks; tip-mounted strings read row[end] - row[anchor].
    Fixed strings take config_jacobian's row over their own span, wherever
    they are anchored.  Returns (designed_rows (..., n_omega, n_designed,
    n_disks + 1, m), fixed_rows (..., n_fixed, m)); each row of a stack
    equals its own (m,) call bit for bit.
    """
    basis = space.basis
    lead = c.shape[:-1]
    disk_edges = np.arange(space.n_disks + 1) * basis.length / space.n_disks
    designed = np.zeros(lead + (len(space.twist_rates), len(space.designed),
                                len(disk_edges), basis.m))
    for iw, n_om in enumerate(space.twist_rates):
        omega = space.omega_of(n_om)
        for i, dstr in enumerate(space.designed):
            at_disks = span_integrals(dstr.path_at(omega), basis, c, 0.0, disk_edges)[1]
            if dstr.mount is Mount.TIP:
                at_disks = at_disks[..., -1:, :] - at_disks
            designed[..., iw, i, :, :] = at_disks
    fixed = np.zeros(lead + (len(space.fixed), basis.m))
    for k, spec in enumerate(space.fixed):
        lo, hi = spec.span(basis.length)
        fixed[..., k, :] = span_integrals(spec.path, basis, c, lo, [hi])[1][..., 0, :]
    return designed, fixed


# The kernel takes the graded Gram where kappa(A) kappa(S J_xc) is at most
# this.  Per (design, sample), against the singular values of W, the Gram's
# relative error on the soft preset stays within C eps kappa(A) kappa(S J_xc)
# with C = 9.2 (3@7; 4.5 at 3@5, 6.2 at 200@777), so within 6e-10 here, below
# the 1e-9 to which the search is held; 86-91% of the samples take the Gram.
# At 1e6 (92-98%) single samples reach 2.1e-9.  The stiff preset's S J_xc is
# graded over about 700 only, so its Gram loses what a plain Gram loses,
# about eps kappa(B)^2: up to 1.1e-9 per sample at 24@3, which the guard does
# not bound, and 8.3e-11 in the workspace means.
GRAM_COND_MAX = 3e5


def _evaluate_chunk(payload):
    """Evaluate one contiguous block of designs; pure function of its inputs.

    channels is a SensorArray of the space: every design shares its string
    count and composites, so its reduce folds the per-string rows of any of
    them.  jxc holds the scaled body Jacobians X = S J_xc as (objective, S,
    6, m), graded and kappa their graded rows and condition numbers (see
    _graded_rows).  The cumulative rows come in 1 + S row samples, sample 0
    the straight configuration and samples 1..S the workspace, or in one row
    sample, the straight one, where J_lc does not depend on c (a
    linear-class space).

    Screen first, score second: the singular values of J_lc at sample 0
    screen every design, and only the designs that pass are evaluated on the
    workspace.  Designs singular at the straight configuration are not
    scored and carry aleph_g = 0.  Per (survivor, sample) the singular values
    of J_lc drive the workspace-mean screen; a constant J_lc has the straight
    index at every sample, so it passes that screen and serves every sample
    with its straight singular values and one inverse.  The one rank rule: a
    (design, sample) whose J_lc fails full_rank cannot be solved for c and
    scores 0, whatever m.  Where map_rank_limited(p, m) holds, every index
    is 0 by the shape of B alone.

    Where J_lc has full column rank, B = S J_xc J_lc^+ has the singular
    values of X A^-1, A being J_lc itself (p = m) or its R factor (p > m),
    and so of b = graded A^-1, graded = U^T X with U the left singular
    vectors of X.  aleph(B) comes from the eigenvalues of b b^T (at most
    6 x 6), whose rows stay graded by the singular values of X.  Where
    kappa(A) kappa(X) exceeds GRAM_COND_MAX, or is infinite, it comes from
    the singular values of W = A^-T X^T instead.
    """
    (space, channels, anc, iws, des_rows, fix_rows, jxc, graded, kappa) = payload
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
    sv = np.linalg.svd(straight, compute_uv=False)
    a0 = aleph_sv(sv)
    bad = a0 < space.epsilon
    keep = np.flatnonzero(~bad)
    ag = np.zeros((len(anc), len(space.s_objectives)))
    if len(des_rows) == 1:
        # one J_lc per design serves all samples: (n_keep, 1, p, m)
        jlc, sv = straight[keep][:, None], sv[keep][:, None]
    else:
        jlc = jlc_at(des_rows[1:], fix_rows[1:], keep)      # (n_keep, S, p, m)
        sv = np.linalg.svd(jlc, compute_uv=False)
        bad[keep] = aleph_sv(sv).mean(axis=1) < space.epsilon
    p = jlc.shape[-2]
    if map_rank_limited(p, m):
        return a0, ag, bad
    full = full_rank(sv)
    # the identity stands in for rank-deficient J_lc so that the batched inverse exists
    square = np.linalg.qr(jlc, mode="r") if p > m else jlc
    inv = np.linalg.inv(np.where(full[..., None, None], square, np.eye(m)))
    kappa_a = np.divide(sv[..., 0], sv[..., -1], out=np.full(sv.shape[:-1], np.inf), where=full)
    shape = (len(keep), jxc.shape[1])
    inv_at = np.broadcast_to(inv, shape + (m, m))
    for k in range(len(space.s_objectives)):
        # kappa is infinite at straight samples, where X has a zero singular value
        gram = np.broadcast_to(kappa_a * kappa[k] <= GRAM_COND_MAX, shape)
        svd = ~gram
        val = np.empty(shape)
        b = graded[k] @ inv
        val[gram] = aleph_gram(np.linalg.eigvalsh((b @ np.swapaxes(b, -1, -2))[gram]))
        x_at = np.broadcast_to(jxc[k], shape + jxc.shape[-2:])[svd]
        w = np.swapaxes(inv_at[svd], -1, -2) @ np.swapaxes(x_at, -1, -2)
        val[svd] = aleph_sv(np.linalg.svd(w, compute_uv=False))
        ag[keep, k] = (full * val).mean(axis=1)
    return a0, ag, bad


def _graded_rows(jxc):
    """Graded rows U^T X, X = S J_xc (..., 6, m) with left singular vectors
    U, cut to its first min(6, m) rows, and kappa(X) = sigma_max / sigma_min
    (...,), infinite where sigma_min is 0.  The rows of U^T X are graded by
    the singular values of X, whose smallest lies near 6e-5 of the largest
    on the soft preset (the tip hardly moves along z at small bends)."""
    u, sx, _ = np.linalg.svd(jxc, full_matrices=False)
    kappa = np.divide(sx[..., 0], sx[..., -1], out=np.full(sx.shape[:-1], np.inf),
                      where=sx[..., -1] > 0.0)
    return np.swapaxes(u, -1, -2) @ jxc, kappa


# Design-samples per evaluated block (and per worker task): a block of n
# designs on S workspace samples holds a few (n, S, p, m) and (n, S, m, 6)
# temporaries, so max(1, BLOCK_DESIGN_SAMPLES // S) designs per block bound
# each worker's working set at any S (about 0.6 MB per 8 x 8 array): 400
# designs at 3 samples, 50 at 24, 6 at 200.
BLOCK_DESIGN_SAMPLES = 1200

# The largest space brute_force_search accepts.
MAX_DESIGNS = 1_000_000


def default_jobs():
    """The CPUs this process may run on: its affinity set where the platform
    has one, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Designed strings whose cumulative row tables agree up to one sign within
# this fraction of the larger table's maximum are twins.  The mirrored strings
# of the stiff preset (45/225 and 135/315 degrees) differ by 3.5e-18 m, 2.8e-16
# of that maximum: one ulp of cos/sin, not zero, so exact equality finds no
# twin.  1e-14 leaves a factor of 36; the closest pair of soft strings lies
# 0.71 apart.
TWIN_RTOL = 1e-14


def _twin_groups(channels, des_rows):
    """Groups of two or more twin designed strings, as lists of indices.

    Two designed strings are twins when neither is a composite member and
    their cumulative row tables des_rows[..., i, :, :] agree up to one sign,
    within TWIN_RTOL, at every row sample, twist rate and disk.  Swapping
    the anchors of twins maps J_lc to P D J_lc, a row permutation times a
    diagonal of signs, which no index sees.
    """
    direct = set(channels.direct_indices)
    groups = []
    for i in range(des_rows.shape[2]):
        if i not in direct:
            continue
        table = des_rows[:, :, i]
        for group in groups:
            lead = des_rows[:, :, group[0]]
            tol = TWIN_RTOL * max(np.abs(table).max(), np.abs(lead).max())
            if min(np.abs(table - lead).max(), np.abs(table + lead).max()) <= tol:
                group.append(i)
                break
        else:
            groups.append([i])
    return [g for g in groups if len(g) > 1]


def _orbit_representatives(shape, groups):
    """Index of each design's representative, in enumeration order.

    shape is the enumeration's (n_anchor_disks,) * n_designed + (n_twist,),
    in C order.  The representative of a design sorts the anchor positions
    (indices into anchor_disks, not disk values) within each twin group, so
    they do not decrease there.
    """
    pos = np.array(np.unravel_index(np.arange(np.prod(shape)), shape))
    for group in groups:
        pos[group] = np.sort(pos[group], axis=0)
    return np.ravel_multi_index(pos, shape)


def _ranking(values, singular):
    """Design indices by descending value, singular designs last.  The sort
    is stable, so equal values, as the members of a mirror orbit share, go
    by design index."""
    return np.argsort(-np.where(singular, -np.inf, values), kind="stable")


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


def brute_force_search(space, samples, jobs=None):
    """Evaluate every design in the space and rank by the last objective.

    A design is marked singular when aleph(J_lc) falls below space.epsilon at
    the straight configuration or in the workspace mean (the filter the
    routing studies use).  The straight screen runs first: designs it marks
    are not scored and carry aleph_g = 0.  Every other design gets the
    workspace-averaged length->twist index at each objective arc length.
    The kernel takes each string variant's cumulative rows at 1 + S row
    samples (the straight configuration, then the S workspace samples), or
    at the straight one alone where every channel's J_lc is constant
    (SensorArray.is_linear_class), as on torsion-free constant-pitch spaces;
    one span_integrals call per string variant serves all of them.  The
    body Jacobians X = S J_xc at the objective arc lengths do not depend on
    the design either: their SVD is taken once, and the kernel gets X, its
    graded rows U^T X and kappa(X) (see _graded_rows and _evaluate_chunk).

    Designs that differ by swapping the anchors of twin strings (see
    _twin_groups) form a mirror orbit and share every index.  The kernel
    scores one representative per orbit, the design whose anchor positions
    do not decrease within each twin group, and every other member takes
    its aleph_config, aleph_g and singular; n_scored counts the
    representatives.  A space without twins scores every design and copies
    nothing.  Tied values are therefore exactly equal: order ranks designs
    by the last objective with a stable sort, ties by design index, and
    best() takes the first argmax.  anchors and n_omega are shared,
    read-only arrays (see _enumeration).

    Evaluation order is the lexicographic enumeration of candidate tuples,
    in blocks of max(1, BLOCK_DESIGN_SAMPLES // S) representatives.  Up to
    jobs threads (by default default_jobs(), never more than there are
    blocks) evaluate the blocks; the kernel is a pure function of its block,
    and nearly all of its time is batched LAPACK calls, which release the
    GIL.  The merge is ordered, so results do not depend on the thread
    count; jobs=1 runs every block in the calling thread.  An exception in
    any block propagates.
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
    channels = space.array_for(anchors[0], space.twist_rates[0])
    if channels.p < m:
        raise ValueError("fewer measurement channels than basis columns")

    scale = twist_scaling(space.c_l)

    # Design-independent: body Jacobians at the objective arc lengths, kept
    # by position so that a repeated arc length is one more column.
    jxc = body_jacobian_multi(basis, configs, space.s_objectives)   # (S, n_objectives, 6, m)
    jxc = scale[:, None] * np.moveaxis(jxc, 1, 0)
    graded, kappa = _graded_rows(jxc)

    # Cumulative rows for every string variant; row sample 0 is the straight
    # configuration of the singular screen, then the workspace samples.  A
    # linear-class space has one J_lc for every c: its straight rows serve all.
    row_configs = np.zeros((1, m))
    if not channels.is_linear_class(basis):
        row_configs = np.concatenate([row_configs, configs])
    # (1 or 1 + S, n_omega, n_designed, n_disks+1, m) and (1 or 1 + S, n_fixed, m)
    des_rows, fix_rows = _cumulative_rows(space, row_configs)

    groups = _twin_groups(channels, des_rows)
    if groups:
        shape = (len(space.anchor_disks),) * len(space.designed) + (len(space.twist_rates),)
        rep = _orbit_representatives(shape, groups)
        scored = np.flatnonzero(rep == np.arange(len(rep)))
        anc_s, iw_s = anchors[scored], iw[scored]
    else:
        anc_s, iw_s = anchors, iw
    block = max(1, BLOCK_DESIGN_SAMPLES // len(configs))
    payloads = [
        (space, channels, anc_s[c0:c0 + block], iw_s[c0:c0 + block], des_rows, fix_rows,
         jxc, graded, kappa)
        for c0 in range(0, len(anc_s), block)
    ]
    workers = min(default_jobs() if jobs is None else jobs, len(payloads))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_evaluate_chunk, payloads))
    else:
        results = [_evaluate_chunk(pl) for pl in payloads]

    aleph_cfg = np.concatenate([r[0] for r in results])
    aleph_g = np.concatenate([r[1] for r in results])
    singular = np.concatenate([r[2] for r in results])
    if groups:
        # every design reads its representative's slot
        slot = np.searchsorted(scored, rep)
        aleph_cfg, aleph_g, singular = aleph_cfg[slot], aleph_g[slot], singular[slot]

    return SearchResult(anchors=anchors, n_omega=n_omega,
                        aleph_config=aleph_cfg, aleph_g=aleph_g, singular=singular,
                        s_objectives=tuple(space.s_objectives), n_scored=len(anc_s))
