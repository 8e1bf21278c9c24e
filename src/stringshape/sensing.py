"""String/tendon length models, sensing Jacobians, and shape reconstruction.

Measurements are path lengths (or length changes) of strings routed along the
backbone; a sensor array may also expose composite channels that sum several
member strings with signs, as happens for capstan-coupled actuation tendon
pairs.  Reconstruction solves lengths(c) = measured for the modal coefficients:
exactly for linear-class arrays (constant-pitch paths, torsion-free basis,
where the configuration-space Jacobian is constant) and by damped Gauss-Newton
otherwise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import liegroup
from .liegroup import E3
from .routing import ConstantPitch, cross, path_velocity, tangential_margin


class NotRealizableError(ValueError):
    """A string path develops a cusp at this configuration; for a stack of
    configurations, row names the first one with a cusp."""

    def __init__(self, margin, string_index=None, row=None):
        self.margin = margin
        self.string_index = string_index
        self.row = row
        where = "" if string_index is None else f" (string {string_index})"
        super().__init__(f"string path not realizable{where}: min tangential rate {margin:.3e} <= 0")


class SingularDesignError(RuntimeError):
    """Configuration-space Jacobian is rank deficient for this array."""


class SolverError(RuntimeError):
    """Iterative reconstruction failed; carries the best iterate found."""

    def __init__(self, message, best_c=None, residual_norm=None):
        super().__init__(message)
        self.best_c = best_c
        self.residual_norm = residual_norm


class Reference(Enum):
    ABSOLUTE = "absolute"
    DELTA_FROM_STRAIGHT = "delta_from_straight"


@dataclass(frozen=True)
class Composite:
    """Signed sum of member string length(-change)s read as one channel."""

    members: tuple
    signs: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "signs", tuple(self.signs))
        if len(self.members) != len(self.signs) or not self.members:
            raise ValueError("members and signs must be non-empty and equal length")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")


@dataclass(frozen=True)
class SensorArray:
    strings: tuple
    composites: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "strings", tuple(self.strings))
        object.__setattr__(self, "composites", tuple(self.composites))
        consumed = [i for comp in self.composites for i in comp.members]
        if len(consumed) != len(set(consumed)):
            raise ValueError("composite members must be disjoint")
        if any(i < 0 or i >= len(self.strings) for i in consumed):
            raise ValueError("composite member index out of range")
        if self.p < 1:
            raise ValueError("array must expose at least one channel")

    @property
    def _consumed(self):
        return {i for comp in self.composites for i in comp.members}

    @property
    def direct_indices(self):
        """Strings that appear as their own measurement channel, in order."""
        consumed = self._consumed
        return tuple(i for i in range(len(self.strings)) if i not in consumed)

    @property
    def p(self):
        """Number of measurement channels."""
        return len(self.direct_indices) + len(self.composites)

    def reduce(self, per_string, axis=0):
        """Fold per-string values or rows, strings along axis, into measurement
        channels along that axis: direct strings in order, then the
        composites."""
        per_string = np.asarray(per_string, dtype=float)
        lead = (slice(None),) * (axis % per_string.ndim)
        direct = self.direct_indices
        out = np.empty(per_string.shape[:len(lead)] + (len(direct) + len(self.composites),)
                       + per_string.shape[len(lead) + 1:])
        out[lead + (slice(len(direct)),)] = per_string[lead + (direct,)]
        for k, comp in enumerate(self.composites, len(direct)):
            out[lead + (k,)] = sum(sgn * per_string[lead + (i,)]
                                   for sgn, i in zip(comp.signs, comp.members))
        return out

    def is_linear_class(self, basis):
        """Constant J_lc: every path constant-pitch and no torsion columns."""
        return all(has_exact_row(s.path, basis) for s in self.strings)


# Singular values below this fraction of the largest count as zero.  It is the
# one rank rule: full_rank is the rank test of every J_lc (solve_shape,
# global_index, and the one aleph(B) routine of the search kernel and
# planar_full_index), and the sensitivity maps' pseudo-inverses truncate at it.
SIGMA_RATIO_TOL = 1e-12


def full_rank(sv):
    """Whether a matrix passes the rank test sigma_min > SIGMA_RATIO_TOL *
    sigma_max, from its singular values sorted descending along the last
    axis; an all-zero matrix fails it, and so do NaN singular values."""
    sv = np.asarray(sv)
    return sv[..., -1] > SIGMA_RATIO_TOL * sv[..., 0]


# Both index helpers divide by 1 where the largest value is 0: the smallest
# is 0 there too, so the index is 0 without a warning or a branch.

def aleph_sv(sv):
    """Noise amplification index sigma_min^2 / sigma_max from singular values
    sorted descending along the last axis; 0 where sigma_max is 0."""
    sv = np.asarray(sv)
    top = sv[..., 0]
    safe_top = top + (top == 0)
    return sv[..., -1] ** 2 / safe_top


def aleph_gram(lam):
    """The same index from the Gram eigenvalues sigma^2 sorted ascending along
    the last axis; negative round-off is clipped to zero."""
    lam = np.maximum(lam, 0.0)
    top = lam[..., -1]
    return lam[..., 0] / np.sqrt(top + (top == 0))


def has_exact_row(path, basis):
    """Constant-pitch paths on a torsion-free basis integrate in closed form:
    the tangential rate is 1 + r_y u_x - r_x u_y, affine in c."""
    return isinstance(path, ConstantPitch) and not basis.has_torsion


def exact_row(path, basis, lo, hi):
    """Constant J_lc row r_y int Phi_x - r_x int Phi_y of a constant-pitch
    string over [lo, hi]; the string length is hi - lo + row @ c.  An array
    of upper bounds hi gives stacked rows (..., m)."""
    integ = basis.integral(lo, hi)
    return path.r_y * integ[..., 0, :] - path.r_x * integ[..., 1, :]


# String integrals without a closed form use the 3-node Gauss-Legendre rule on
# panels no wider than L / PANELS_PER_LENGTH, exact to degree 5 per panel;
# its nodes and weights on [0, 1] are written in closed form.
PANELS_PER_LENGTH = 10
_GRID_STEPS = np.arange(PANELS_PER_LENGTH + 1)
_GL_NODES = 0.5 + 0.5 * np.sqrt(0.6) * np.array([-1.0, 0.0, 1.0])
_GL_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0
# The cusp rule checks the tangential rate on this many uniform points per span.
REALIZABILITY_GRID = 80


def _span_edges(lo, bounds, length, breakpoints):
    """Panel edges from lo through increasing bounds >= lo: lo, then per bound
    the L/PANELS_PER_LENGTH grid points and the path's breakpoints strictly
    inside the gap from the previous edge and the bound itself, so an anchor
    anywhere is an edge and no panel spans a jump of r'.  Returns the edges
    and, per bound, the index of the panel ending there."""
    tol = 1e-12 * length
    grid = np.sort(np.concatenate([_GRID_STEPS * length / PANELS_PER_LENGTH, breakpoints]))
    grid = grid[np.diff(grid, prepend=-np.inf) > tol]   # a breakpoint on the grid is one edge
    pieces, last, n_panels, prev = [[lo]], [], 0, lo
    for b in bounds:
        if not b >= prev:   # NaN fails it too
            raise ValueError("bounds must not decrease from lo")
        inside = grid[(grid > prev + tol) & (grid < b - tol)]
        pieces += [inside, [b]]
        n_panels += len(inside) + 1
        last.append(n_panels - 1)
        prev = b
    return np.concatenate(pieces), last


def _gauss_legendre(edges):
    """Nodes and weights of the 3-node rule on the panels between consecutive
    edges, three per panel in panel order."""
    width = edges[1:] - edges[:-1]
    return ((edges[:-1, None] + width[:, None] * _GL_NODES).ravel(),
            (width[:, None] * _GL_WEIGHTS).ravel())


def _panel_sums(phi, r, dr, weights, c):
    """Per-panel Gauss-Legendre sums of the speed |w'| (..., n) and of the J_lc
    row integrand (r x w'/|w'|)^T Phi (..., n, m) at c (m,), or a stack (k, m),
    from Phi (3n, 3, m), r, r' (3n, 3) and the weights (3n,) at the nodes of n
    panels, three per panel in panel order."""
    # one (3, m) @ (m, 1) product per node and configuration, so that each
    # row of a stack equals its own (m,) call bit for bit
    w = path_velocity(r, dr, (phi @ c[..., None, :, None])[..., 0])
    speed = np.linalg.norm(w, axis=-1)
    integrand = np.einsum("...ni,nij->...nj", cross(r, w / speed[..., None]), phi)
    integrand *= weights[:, None]
    lead = speed.shape[:-1]
    return ((weights * speed).reshape(lead + (-1, 3)).sum(axis=-1),
            integrand.reshape(lead + (-1, 3, phi.shape[-1])).sum(axis=-2))


def _cusp_grid(strings, basis):
    """r (n_strings, REALIZABILITY_GRID, 3) on uniform points of each string's
    span, and Phi there with its rows flattened and transposed, (m, ...)."""
    s = np.array([np.linspace(*spec.span(basis.length), REALIZABILITY_GRID) for spec in strings])
    r = np.array([spec.path.radial(s_i) for spec, s_i in zip(strings, s)])
    return r, basis.matrix(s).reshape(-1, basis.m).T


def _margins(cusp_grid, c):
    """The cusp rule: each string's smallest tangential rate (w')^T e3 on its
    _cusp_grid at c (m,) or a stack (k, m), (n_strings,) or (k, n_strings);
    a string is realizable where it is positive."""
    r, phi_t = cusp_grid
    return tangential_margin(r, (c @ phi_t).reshape(c.shape[:-1] + r.shape)).min(axis=-1)


def _check_realizable(cusp_grid, c):
    """Raise NotRealizableError for the first string that fails the cusp rule
    on its _cusp_grid, in the first such row of a stack."""
    margins = _margins(cusp_grid, c)
    bad = np.argwhere(~(margins > 0.0))   # NaN fails it too
    if len(bad):
        at = tuple(bad[0])
        raise NotRealizableError(float(margins[at]), string_index=int(at[-1]),
                                 row=int(at[0]) if c.ndim == 2 else None)


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


class StringTable:
    """Lengths and J_lc rows, d(length)/dc, of string spans on a basis.  A
    span (path, lo, bounds) integrates its path over [lo, b] for each of one
    or more increasing bounds b >= lo; the table gives the values at every
    bound of every span, in order.

    What does not depend on c is built once, and is read-only:

    - the rows exact_row and straight lengths b - lo of the spans with exact
      rows (has_exact_row), whose lengths are b - lo + row @ c;
    - for every other span, Phi, r, r' and the weights at the Gauss-Legendre
      nodes of its _span_edges panels, all spans in one array, and each
      panel's (span, slot) in a zero-padded spans x panels layout.
      np.add.accumulate along the padded slots gives each bound the running
      sum of its span's _panel_sums up to it, so a bound's values equal the
      ones it gives alone wherever the bounds below it lie on the panel grid.

    Each span's values equal those of a table of that span alone, and each
    row of a stack those of its own (m,) call, bit for bit.
    """

    def __init__(self, spans, basis):
        self.m = basis.m
        at_exact, rows, base, nodes, slots = [], [np.zeros((0, basis.m))], [[]], [], []
        for path, lo, bounds in spans:
            bounds = np.atleast_1d(np.asarray(bounds, dtype=float))
            at_exact += [has_exact_row(path, basis)] * len(bounds)
            if at_exact[-1]:
                rows.append(exact_row(path, basis, lo, bounds))
                base.append(bounds - lo)
            else:
                edges, last = _span_edges(lo, bounds, basis.length, path.breakpoints)
                s, weights = _gauss_legendre(edges)
                nodes.append((s, weights, path.radial(s), path.radial_deriv(s)))
                slots.append(last)
        at_exact = np.array(at_exact, dtype=bool)
        self.exact_at, self.paneled_at = np.flatnonzero(at_exact), np.flatnonzero(~at_exact)
        self.exact_rows, self.exact_base = np.concatenate(rows)[:, None], np.concatenate(base)
        _read_only(self.exact_at, self.paneled_at, self.exact_rows, self.exact_base)
        if slots:
            s, self.weights, self.r, self.dr = map(np.concatenate, zip(*nodes))
            self.phi = basis.matrix(s)
            # a span's last bound ends its last panel
            n_panels = [last[-1] + 1 for last in slots]
            self.panel_span = np.repeat(np.arange(len(slots)), n_panels)
            self.panel_slot = np.concatenate([np.arange(n) for n in n_panels])
            self.bound_span = np.repeat(np.arange(len(slots)), [len(last) for last in slots])
            self.bound_slot = np.concatenate(slots)
            _read_only(self.phi, self.weights, self.r, self.dr, self.panel_span,
                       self.panel_slot, self.bound_span, self.bound_slot)

    def integrals(self, c):
        """Lengths (..., n_bounds) and J_lc rows (..., n_bounds, m) at every
        bound of every span, at c (m,) or a stack (k, m)."""
        lead = c.shape[:-1]
        ells = np.zeros(lead + (len(self.exact_at) + len(self.paneled_at),))
        rows = np.zeros(ells.shape + (self.m,))
        # one (1, m) @ (m, 1) product per exact bound, as a one-bound span takes
        ells[..., self.exact_at] = (self.exact_base
                                    + (self.exact_rows @ c[..., None, :, None])[..., 0, 0])
        rows[..., self.exact_at, :] = self.exact_rows[:, 0]
        if len(self.paneled_at):
            speeds, panel_rows = _panel_sums(self.phi, self.r, self.dr, self.weights, c)
            padded = np.zeros(lead + (self.bound_span[-1] + 1, self.bound_slot.max() + 1,
                                      self.m + 1))
            padded[..., self.panel_span, self.panel_slot, :] = np.concatenate(
                [speeds[..., None], panel_rows], axis=-1)
            total = np.add.accumulate(padded, axis=-2)[..., self.bound_span, self.bound_slot, :]
            ells[..., self.paneled_at], rows[..., self.paneled_at, :] = total[..., 0], total[..., 1:]
        return ells, rows


class _SensingContext(StringTable):
    """The StringTable of a sensor array's strings, one bound per string
    (its span), built once per (array, basis) by _string_table and read by
    every call and configuration that evaluates the array; on first use it
    also holds the cusp grid and the straight measure."""

    def __init__(self, array, basis):
        self.array, self.basis = array, basis
        super().__init__([(spec.path, *spec.span(basis.length)) for spec in array.strings], basis)

    @functools.cached_property
    def cusp_grid(self):
        """The _cusp_grid of the array's strings."""
        return _read_only(*_cusp_grid(self.array.strings, self.basis))

    @functools.cached_property
    def straight(self):
        """Channel lengths (p,) and J_lc (p, m) at the straight configuration."""
        return _read_only(*self.measure(np.zeros(self.m)))

    def measure(self, c):
        """Absolute channel lengths (..., p) and J_lc (..., p, m) at c (m,) or a stack (k, m)."""
        ells, rows = self.integrals(c)
        return self.array.reduce(ells, axis=-1), self.array.reduce(rows, axis=-2)


# Two tables are kept: a reconstruction study reads its truth lengths on one
# basis and solves on another, and the stream's set-up and the spatial study
# alternate the two; a search's designs, each read once or twice in a row,
# then evict one another and hold at most two tables.
@functools.lru_cache(maxsize=2)
def _string_table(array, basis):
    """The one _SensingContext of a (frozen, hashable) array and basis."""
    return _SensingContext(array, basis)


def lengths(array, basis, c, reference=Reference.DELTA_FROM_STRAIGHT):
    """Measurement vector (p,) for configuration c, or (k, p) for a stack
    (k, m), from the array's string table; NotRealizableError where a string
    path has a cusp on its span."""
    c = basis.check_stack(c)
    table = _string_table(array, basis)
    _check_realizable(table.cusp_grid, c)
    vals = table.measure(c)[0]
    if reference is Reference.DELTA_FROM_STRAIGHT:
        vals = vals - table.straight[0]
    return vals


def config_jacobian(array, basis, c):
    """J_lc (p, m): sensitivity of measurement channels to modal coefficients;
    (k, p, m) for a stack c (k, m).  No cusp check: searches average it over
    configurations strings cannot follow."""
    return _string_table(array, basis).measure(basis.check_stack(c))[1]


def linear_model(array, basis):
    """(lengths_at_straight, constant J_lc) for a linear-class array.

    For such arrays lengths(c) = lengths(0) + J_lc @ c holds exactly; the
    Jacobian rows are exact basis integrals rather than quadrature.
    """
    if not array.is_linear_class(basis):
        raise ValueError("array is not linear-class (needs constant pitch and no torsion)")
    return tuple(a.copy() for a in _string_table(array, basis).straight)


def _magnus_grid(length, s_query, n_steps):
    """Steps reaching every arc length in s_query: the n_steps uniform steps of
    h = length / n_steps over [0, length], each of width h itself, cut at the
    largest query.  A query within 1e-9 h of a node is that node; any other
    gets a step of its own from the node below it, so no query moves another's
    result.  Returns each step's start, width and starting edge, and each
    query's edge (edge 0 is s = 0; step i ends at edge i + 1).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    s = np.atleast_1d(np.asarray(s_query, dtype=float))
    if not np.all((s >= -1e-12) & (s <= length + 1e-12)):   # NaN fails it too
        raise ValueError("query arc length outside [0, L]")
    s = np.clip(s, 0.0, length)
    h = length / n_steps
    k = np.rint(s / h)
    on_node = np.abs(k * h - s) <= 1e-9 * h
    node = np.where(on_node, k, np.floor(s / h)).astype(int)   # at or below each query
    n_whole = node.max(initial=0)
    off = np.flatnonzero(~on_node)
    source = np.concatenate([np.arange(n_whole), node[off]])
    starts = source * h
    widths = np.concatenate([np.full(n_whole, h), s[off] - starts[n_whole:]])
    return starts, widths, source, np.where(on_node, node, n_whole + np.cumsum(~on_node))


def _magnus_steps(basis, c, starts, widths):
    """For a stack c (S, m): the twists eta = [Phi c; e3] (S, n, 2, 6) at both
    Gauss-Legendre points of every step, from one basis.matrix call; their
    derivatives d eta / dc (n, 2, 6, m), the same for every configuration;
    and the Magnus element Psi of every step (S, n, 6)."""
    n = len(starts)
    s = starts[:, None] + liegroup.GL_POINTS * widths[:, None]
    deta = np.zeros((n, 2, 6, basis.m))
    deta[:, :, :3] = basis.matrix(s.ravel()).reshape(n, 2, 3, basis.m)
    eta = (deta @ c[:, None, None, :, None])[..., 0]
    eta[..., 3:] = E3
    return eta, deta, liegroup.magnus_element(eta[..., 0, :], eta[..., 1, :], widths)


def body_jacobian(basis, c, s, n_steps=100):
    """J_xc (6, m): body twist of the frame at arc length s per unit dc;
    (S, 6, m) for a stack c (S, m)."""
    return body_jacobian_multi(basis, c, [s], n_steps)[..., 0, :, :]


def body_jacobian_multi(basis, c, s_list, n_steps=100):
    """J_xc (k, 6, m) at the arc lengths s_list, or (S, k, 6, m) for a stack
    c (S, m), in one pass over the Magnus grid of _magnus_grid for the whole
    stack: Ad(exp(-Psi)) chains with dexp(Psi) of the exact dPsi/dc, one
    batched product per step."""
    c = basis.check_stack(c)
    starts, widths, source, at = _magnus_grid(basis.length, s_list, n_steps)
    eta, deta, psi = _magnus_steps(basis, np.atleast_2d(c), starts, widths)
    gain = liegroup.dexp_se3(psi, liegroup.magnus_element_diff(
        eta[..., 0, :], eta[..., 1, :], deta[:, 0], deta[:, 1], widths))
    # Ad(exp(-Psi)) = [[R^T, 0], [hat(-R^T p) R^T, R^T]] for exp(Psi) = (R, p)
    step = liegroup.exp_se3(psi)
    rot_t = np.swapaxes(step[..., :3, :3], -1, -2)
    back = np.zeros(psi.shape[:-1] + (6, 6))
    back[..., :3, :3] = back[..., 3:, 3:] = rot_t
    back[..., 3:, :3] = liegroup.hat(-(rot_t @ step[..., :3, 3:])[..., 0]) @ rot_t
    jac = np.zeros((len(psi), len(widths) + 1, 6, basis.m))
    for i, src in enumerate(source):
        jac[:, i + 1] = back[:, i] @ jac[:, src] + gain[:, i]
    return jac[:, at] if c.ndim == 2 else jac[0, at]


# Residual norm, per unit L, below which a no-descent exit is round-off: soft
# same-basis round trips (L = 0.293 m) end at or below 2.3e-16 m.
STAGNATION_TOL = 1e-9
# Gauss-Newton iteration cap, and the coefficient step norm at which it has
# converged.
SOLVE_MAX_ITER = 100
SOLVE_STEP_TOL = 1e-10


@dataclass
class ShapeSolution:
    c: np.ndarray
    iterations: int
    residual_norm: float
    aleph_config: float
    linear: bool
    status: str = "converged"   # or "stagnated"


def _solve_step(jac, rhs, where):
    """The least-squares solution of jac @ x = rhs and the aleph of jac,
    from one SVD; SingularDesignError where jac fails full_rank."""
    u, sv, vt = np.linalg.svd(jac, full_matrices=False)
    if not full_rank(sv):
        raise SingularDesignError(f"configuration-space Jacobian is singular{where} "
                                  f"(singular values {sv[-1]:.2e} to {sv[0]:.2e})")
    return vt.T @ ((u.T @ rhs) / sv), float(aleph_sv(sv))


def solve_shape(array, basis, measured, reference=Reference.DELTA_FROM_STRAIGHT,
                initial=None):
    """Recover modal coefficients from a measurement vector.

    Linear-class arrays are solved through the constant-Jacobian model in one
    least-squares step; everything else runs damped Gauss-Newton with a
    backtracking line search on the residual norm.  A run where no step lowers
    the residual returns the best iterate, "stagnated" if its residual norm
    exceeds STAGNATION_TOL * L.
    """
    measured = np.asarray(measured, dtype=float)
    if measured.shape != (array.p,):
        raise ValueError(f"expected {array.p} measurements, got {measured.shape}")
    if array.p < basis.m:
        raise ValueError(f"underdetermined: p={array.p} channels < m={basis.m} coefficients")

    table = _string_table(array, basis)
    if array.is_linear_class(basis):
        base, jac = table.straight
        rhs = measured - base if reference is Reference.ABSOLUTE else measured
        c, aleph = _solve_step(jac, rhs, "")
        resid = jac @ c - rhs
        return ShapeSolution(c, 1, float(np.linalg.norm(resid)), aleph, True)

    c = np.zeros(basis.m) if initial is None else basis.check_coeffs(np.asarray(initial, dtype=float)).copy()

    # the array's string table, cusp grid and straight lengths serve every
    # iterate and every call
    cusp_grid = table.cusp_grid
    straight = table.straight[0] if reference is Reference.DELTA_FROM_STRAIGHT else 0.0

    def residual(cc):
        _check_realizable(cusp_grid, cc)
        ell, j_lc = table.measure(cc)
        return ell - straight - measured, j_lc

    res, jac = residual(c)
    rnorm = np.linalg.norm(res)
    best_c, best_r = c.copy(), rnorm
    for it in range(1, SOLVE_MAX_ITER + 1):
        step, aleph = _solve_step(jac, -res, f" at iterate {it}")
        # Backtracking: halve until the residual norm decreases (<= 20 times).
        alpha = 1.0
        for _ in range(20):
            trial = c + alpha * step
            try:
                res_t, jac_t = residual(trial)
            except NotRealizableError:
                alpha *= 0.5
                continue
            rn_t = np.linalg.norm(res_t)
            if rn_t < rnorm:
                break
            alpha *= 0.5
        else:
            # No descent: the best point seen, stagnated unless at round-off.
            status = "stagnated" if best_r > STAGNATION_TOL * basis.length else "converged"
            return ShapeSolution(best_c, it, float(best_r), aleph, False, status)
        c, res, jac, rnorm = trial, res_t, jac_t, rn_t
        if rnorm < best_r:
            best_c, best_r = c.copy(), rnorm
        if np.linalg.norm(alpha * step) <= SOLVE_STEP_TOL:
            return ShapeSolution(c, it, float(rnorm), aleph, False)
    raise SolverError(f"no convergence after {SOLVE_MAX_ITER} iterations "
                      f"(residual {best_r:.3e})", best_c=best_c, residual_norm=float(best_r))


def forward_kinematics(basis, c, s_query, n_steps=100):
    """Poses (k, 4, 4) at the arc lengths s_query, or (S, k, 4, 4) for a stack
    c (S, m), base frame at identity, as the product of exp(Psi) over the
    Magnus grid of _magnus_grid, one batched product per step."""
    c = basis.check_stack(c)
    starts, widths, source, at = _magnus_grid(basis.length, s_query, n_steps)
    step = liegroup.exp_se3(_magnus_steps(basis, np.atleast_2d(c), starts, widths)[2])
    poses = np.zeros((len(step), len(widths) + 1, 4, 4))
    poses[:, 0] = np.eye(4)
    for i, src in enumerate(source):
        poses[:, i + 1] = poses[:, src] @ step[:, i]
    return poses[:, at] if c.ndim == 2 else poses[0, at]
