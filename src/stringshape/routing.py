"""String routing paths in the backbone cross-section frame.

A routing path r(s) = [r_x(s), r_y(s), 0] lives in the moving frame; together
with the curvature field it defines the local path-velocity vector
w'(s) = e3 - r(s) x u(s) + r'(s), whose tangential component must stay
positive for the string to be physically routable (no cusps).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Mount(Enum):
    """Which end carries the encoder: integration runs over the string span."""

    BASE = "base"   # span [0, s_anchor]
    TIP = "tip"     # span [s_anchor, L]


@dataclass(frozen=True)
class ConstantPitch:
    r_x: float
    r_y: float = 0.0

    breakpoints = ()   # arc lengths where r' jumps: none

    def radial(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.zeros((len(s), 3))
        out[:, 0] = self.r_x
        out[:, 1] = self.r_y
        return out

    def radial_deriv(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return np.zeros((len(s), 3))


@dataclass(frozen=True)
class Helical:
    """r(s) = r_s [cos(omega s + alpha), sin(omega s + alpha), 0]."""

    r_s: float
    omega: float
    alpha: float = 0.0

    breakpoints = ()

    def __post_init__(self):
        if self.r_s <= 0:
            raise ValueError("helical radius must be positive")

    def radial(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        ang = self.omega * s + self.alpha
        return np.stack([self.r_s * np.cos(ang), self.r_s * np.sin(ang), np.zeros_like(s)], axis=1)

    def radial_deriv(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        ang = self.omega * s + self.alpha
        ro = self.r_s * self.omega
        return np.stack([-ro * np.sin(ang), ro * np.cos(ang), np.zeros_like(s)], axis=1)


@dataclass(frozen=True)
class Tabulated:
    """Sampled (s, r_x, r_y) path, linear between the samples and constant
    beyond them; r' jumps at the samples, its breakpoints."""

    s_samples: tuple
    r_x_samples: tuple
    r_y_samples: tuple

    def __post_init__(self):
        s, _, _ = np.asarray([self.s_samples, self.r_x_samples, self.r_y_samples], dtype=float)
        if len(s) < 2 or np.any(np.diff(s) <= 0):
            raise ValueError("need at least two strictly increasing sample points")

    def radial(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        sx = np.asarray(self.s_samples, dtype=float)
        rx = np.interp(s, sx, np.asarray(self.r_x_samples, dtype=float))
        ry = np.interp(s, sx, np.asarray(self.r_y_samples, dtype=float))
        return np.stack([rx, ry, np.zeros_like(s)], axis=1)

    @property
    def breakpoints(self):
        return self.s_samples

    def radial_deriv(self, s):
        """The exact slope of the piece that holds each s, the piece to its
        right at an inner sample, and zero outside the samples."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        sx = np.asarray(self.s_samples, dtype=float)
        slopes = np.diff([self.r_x_samples, self.r_y_samples], axis=1) / np.diff(sx)
        piece = np.clip(np.searchsorted(sx, s, side="right") - 1, 0, len(sx) - 2)
        out = np.zeros((len(s), 3))
        out[:, :2] = np.where(((s >= sx[0]) & (s <= sx[-1]))[:, None], slopes[:, piece].T, 0.0)
        return out


@dataclass(frozen=True)
class StringSpec:
    path: object
    s_anchor: float
    mount: Mount = Mount.BASE

    def span(self, length):
        """Integration interval along the backbone for this string."""
        if not (0.0 <= self.s_anchor <= length + 1e-12):
            raise ValueError("anchor outside [0, L]")
        if self.mount is Mount.BASE:
            return 0.0, self.s_anchor
        return self.s_anchor, length


def path_velocity(r, dr, u):
    """w' = e3 - r x u + r' from evaluated radial offsets r, their derivatives
    dr and curvatures u, each (..., 3) and broadcast together."""
    w = dr - np.cross(r, u)
    w[..., 2] += 1.0
    return w


def tangential_margin(r, u):
    """(w')^T e3 = r_y u_x - r_x u_y + 1 from evaluated r and u, each (..., 3)."""
    return r[..., 1] * u[..., 0] - r[..., 0] * u[..., 1] + 1.0
