"""Small-matrix SO(3)/SE(3) kernel and a 4th-order Magnus integrator.

Twists are 6-vectors ordered [angular; linear].  Poses are 4x4 homogeneous
matrices.  The backbone frame field T(s) satisfies T'(s) = T(s) @ hat6(eta(s))
with eta(s) = [u(s); e3], where u is the local curvature and e3 the unit
tangent, so the integrator below is written for right-multiplied systems.
"""

from __future__ import annotations

import numpy as np

E3 = np.array([0.0, 0.0, 1.0])

# Switch point for the small-rotation Taylor branches of exp/Rodrigues.  The
# 4-term series is exact to double precision below this angle, and the trig
# branch above it avoids the 1-cos cancellation via the half-angle form.
SMALL_ANGLE = 1e-4


def hat(v):
    """3-vector -> skew-symmetric matrix, hat(v) @ w == cross(v, w)."""
    v = np.asarray(v, dtype=float)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def hat6(t):
    """Twist -> 4x4 se(3) matrix (angular block top-left, linear top-right)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros((4, 4))
    out[:3, :3] = hat(t[:3])
    out[:3, 3] = t[3:]
    return out


def ad(t):
    """Adjoint representation of a twist: ad(a) @ b is the se(3) bracket [a, b].

    The blocks [[hat(w), 0], [hat(v), hat(w)]] are written out: assembling
    them from hat() takes twice as long, and the Magnus body-Jacobian loop
    calls ad three times per step.
    """
    wx, wy, wz, vx, vy, vz = np.asarray(t, dtype=float).tolist()
    return np.array([
        [0.0, -wz, wy, 0.0, 0.0, 0.0],
        [wz, 0.0, -wx, 0.0, 0.0, 0.0],
        [-wy, wx, 0.0, 0.0, 0.0, 0.0],
        [0.0, -vz, vy, 0.0, -wz, wy],
        [vz, 0.0, -vx, wz, 0.0, -wx],
        [-vy, vx, 0.0, -wy, wx, 0.0],
    ])


def _rot_coeffs(theta):
    """(sin t/t, (1-cos t)/t^2, (t-sin t)/t^3) with Taylor branches near zero."""
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        a = 1.0 - t2 / 6.0 * (1.0 - t2 / 20.0 * (1.0 - t2 / 42.0))
        b = 0.5 * (1.0 - t2 / 12.0 * (1.0 - t2 / 30.0 * (1.0 - t2 / 56.0)))
        c = (1.0 - t2 / 20.0 * (1.0 - t2 / 42.0 * (1.0 - t2 / 72.0))) / 6.0
        return a, b, c
    s = np.sin(theta)
    half = np.sin(0.5 * theta)
    b = 2.0 * half * half / (theta * theta)   # (1-cos)/theta^2 without cancellation
    return s / theta, b, (theta - s) / theta**3


def exp_se3(psi):
    """Exponential map se(3) -> SE(3), returned as a 4x4 homogeneous matrix."""
    psi = np.asarray(psi, dtype=float)
    w, v = psi[:3], psi[3:]
    theta = np.linalg.norm(w)
    a, b, c = _rot_coeffs(theta)
    wh = hat(w)
    wh2 = wh @ wh
    rot = np.eye(3) + a * wh + b * wh2
    vmat = np.eye(3) + b * wh + c * wh2
    out = np.eye(4)
    out[:3, :3] = rot
    out[:3, 3] = vmat @ v
    return out


def inv_pose(pose):
    """Inverse of a homogeneous transform without a general 4x4 solve."""
    rot = pose[:3, :3]
    out = np.eye(4)
    out[:3, :3] = rot.T
    out[:3, 3] = -rot.T @ pose[:3, 3]
    return out


def adjoint(pose):
    """Ad(T): transforms twists between frames, [omega; v] ordering."""
    rot = pose[:3, :3]
    out = np.zeros((6, 6))
    out[:3, :3] = rot
    out[3:, 3:] = rot
    out[3:, :3] = hat(pose[:3, 3]) @ rot
    return out


# The dexp series stops once a term falls below DEXP_TOL relative to the
# accumulated norm, or after DEXP_MAX_TERMS terms.
DEXP_TOL = 1e-17
DEXP_MAX_TERMS = 60


def dexp_se3(psi, dpsi):
    """Right-trivialized differential of exp at psi applied to dpsi.

    Evaluates sum_k (-1)^k/(k+1)! ad(psi)^k @ dpsi, so that
    d/de exp(psi + e*dpsi)|_0 = exp_se3(psi) @ hat6(dexp_se3(psi, dpsi)).
    Accepts dpsi of shape (6,) or (6, k); the series is summed until the
    next term falls below DEXP_TOL relative to the accumulated norm.
    """
    dpsi = np.asarray(dpsi, dtype=float)
    a = ad(psi)
    term = dpsi.copy()
    out = dpsi.copy()
    scale = max(np.abs(out).max(), 1.0)
    for k in range(1, DEXP_MAX_TERMS):
        term = (a @ term) / -(k + 1)
        out = out + term
        tmax = np.abs(term).max()
        scale = max(scale, np.abs(out).max())
        if tmax < DEXP_TOL * scale:
            break
    return out


# The two Gauss-Legendre points of a step, as fractions of its width.
GL_POINTS = np.array([0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0])
_BRACKET = np.sqrt(3.0) / 12.0


def magnus_element(eta1, eta2, h):
    """Psi = (h/2)(eta1 + eta2) + (sqrt(3) h^2/12)[eta1, eta2] for one step of h.

    eta1 and eta2 are the twists at the lower and upper Gauss-Legendre points
    of the step.  The bracket order follows the right-multiplied convention of
    the backbone ODE; the reversed order drops the scheme to second order.
    """
    return 0.5 * h * (eta1 + eta2) + (_BRACKET * h * h) * (ad(eta1) @ eta2)


def magnus_element_diff(eta1, eta2, deta1, deta2, h):
    """Differential of magnus_element: dPsi for twist variations deta1 and
    deta2 at the two points, each of shape (6,) or (6, k)."""
    return 0.5 * h * (deta1 + deta2) + (_BRACKET * h * h) * (
        ad(eta1) @ deta2 - ad(eta2) @ deta1)


def magnus_step(curvature_fn, s0, h):
    """4th-order Magnus element Psi for one step of T' = T hat6([u; e3]),
    with eta_j = [u; e3] sampled at the Gauss-Legendre points of [s0, s0+h]."""
    if h <= 0:
        raise ValueError("step size must be positive")
    e1, e2 = (np.concatenate([np.asarray(curvature_fn(s0 + g * h), dtype=float), E3])
              for g in GL_POINTS)
    return magnus_element(e1, e2, h)


def integrate_backbone(curvature_fn, length, n_steps):
    """Product-of-exponentials integration of the backbone frame field.

    Returns an (n_steps+1, 4, 4) array of poses on the uniform arc-length grid
    covering [0, length], with poses[0] the identity.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    h = length / n_steps
    out = np.tile(np.eye(4), (n_steps + 1, 1, 1))
    for i in range(n_steps):
        out[i + 1] = out[i] @ exp_se3(magnus_step(curvature_fn, i * h, h))
    return out
