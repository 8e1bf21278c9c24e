"""Chebyshev modal curvature basis: evaluation and exact arc-length integrals.

The curvature field is u(s) = Phi(s) @ c with Phi block-diagonal over the
x/y/z bending-and-torsion axes.  Polynomials of the first kind are evaluated
on the shifted coordinate x(s) = (2s - L)/L by the three-term recursion, which
is exact at the interval endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _shift(s, length):
    s = np.asarray(s, dtype=float)
    if not np.all((s >= -1e-12) & (s <= length + 1e-12)):   # NaN fails it too
        raise ValueError(f"arc length outside [0, {length}]")
    return np.clip(2.0 * s / length - 1.0, -1.0, 1.0)


def _cheb_all(x, n_max):
    """Values of T_0..T_n_max at x (x may be an array); shape (..., n_max+1)."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (n_max + 1,))
    out[..., 0] = 1.0
    if n_max >= 1:
        out[..., 1] = x
    for n in range(2, n_max + 1):
        out[..., n] = 2.0 * x * out[..., n - 1] - out[..., n - 2]
    return out


def _cheb_antideriv(x, n_max):
    """Antiderivatives F_n(x) of T_n up to n_max, shape (..., n_max+1), each
    up to a constant that cancels in differences: int T_0 = T_1, int T_1 =
    T_2/4 and int T_n = (T_{n+1}/(n+1) - T_{n-1}/(n-1))/2 for n >= 2."""
    t = _cheb_all(x, n_max + 1)
    out = t[..., 1:] / (2.0 * np.arange(1, n_max + 2))   # T_{n+1} / (2(n+1))
    out[..., 0] = t[..., 1]
    out[..., 2:] -= t[..., 1:-2] / (2.0 * np.arange(1, n_max))
    return out


@dataclass(frozen=True)
class ModalBasis:
    """Per-axis Chebyshev degree lists; empty lists drop an axis (e.g. torsion)."""

    x: tuple = ()
    y: tuple = ()
    z: tuple = ()
    length: float = 1.0

    def __post_init__(self):
        for axis in (self.x, self.y, self.z):
            degs = list(axis)
            if degs != sorted(degs) or len(set(degs)) != len(degs) or any(d < 0 for d in degs):
                raise ValueError("axis degrees must be strictly increasing and >= 0")
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "y", tuple(self.y))
        object.__setattr__(self, "z", tuple(self.z))
        if self.m < 1:
            raise ValueError("basis needs at least one column")
        if self.length <= 0:
            raise ValueError("length must be positive")

    @property
    def m(self):
        return len(self.x) + len(self.y) + len(self.z)

    @property
    def has_torsion(self):
        return len(self.z) > 0

    def _columns(self, table, x):
        """Phi's layout (..., 3, m) of the per-degree values table(x, n_max)."""
        per_degree = table(x, max([0, *self.x, *self.y, *self.z]))
        out = np.zeros(per_degree.shape[:-1] + (3, self.m))
        col = 0
        for row, degs in enumerate((self.x, self.y, self.z)):
            for d in degs:
                out[..., row, col] = per_degree[..., d]
                col += 1
        return out

    def matrix(self, s):
        """Phi(s): shape (3, m) for scalar s, (..., 3, m) for an array of s."""
        return self._columns(_cheb_all, _shift(s, self.length))

    def integral(self, s_from, s_to):
        """Exact entrywise integral of Phi over [s_from, s_to]: shape (3, m), or
        (..., 3, m) for an array of upper bounds s_to."""
        if not np.all(np.less_equal(s_from, s_to)):   # NaN fails it too
            raise ValueError("need 0 <= s_from <= s_to <= length")
        hi = self._columns(_cheb_antideriv, _shift(s_to, self.length))
        lo = self._columns(_cheb_antideriv, _shift(s_from, self.length))
        return 0.5 * self.length * (hi - lo)   # ds/dx = L/2

    def check_coeffs(self, c):
        c = np.asarray(c, dtype=float)
        if c.shape != (self.m,):
            raise ValueError(f"expected {self.m} coefficients, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        return c

    def check_stack(self, c):
        """Finite coefficients c (m,), or a stack of them (k, m)."""
        c = np.asarray(c, dtype=float)
        if c.ndim not in (1, 2) or c.shape[-1] != self.m or not np.all(np.isfinite(c)):
            raise ValueError(f"expected finite coefficients of shape ({self.m},) or (k, {self.m}), "
                             f"got shape {c.shape}")
        return c


def curvature(basis, c, s):
    """u(s) = Phi(s) @ c; (3,) for scalar s, (n, 3) for arrays; a stack c (k, m) adds axis 0."""
    c = basis.check_stack(c)
    phi = basis.matrix(s)
    return (c @ phi.reshape(-1, basis.m).T).reshape(c.shape[:-1] + phi.shape[:-1])


def identity_basis(length):
    """Constant-curvature basis: Phi(s) = I3 for all s."""
    return ModalBasis(x=(0,), y=(0,), z=(0,), length=length)
