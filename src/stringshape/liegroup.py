"""Small-matrix SO(3)/SE(3) kernel and a 4th-order Magnus integrator.

Twists are 6-vectors ordered [angular; linear].  Poses are 4x4 homogeneous
matrices.  The backbone frame field T(s) satisfies T'(s) = T(s) @ hat6(eta(s))
with eta(s) = [u(s); e3], where u is the local curvature and e3 the unit
tangent, so the integrator below is written for right-multiplied systems.

hat, ad, exp_se3, dexp_se3 and the Magnus element work over leading axes: a
stack of vectors (..., 3) or twists (..., 6) gives the stack of results, and
one vector gives one result.
"""

from __future__ import annotations

from math import factorial

import numpy as np

E3 = np.array([0.0, 0.0, 1.0])

# Switch point for the small-rotation Taylor branches of exp/Rodrigues.  The
# 4-term series is exact to double precision below this angle, and the trig
# branch above it avoids the 1-cos cancellation via the half-angle form.
SMALL_ANGLE = 1e-4
# Switch point for the Taylor branch of the Q-block coefficients of dexp_se3.
# Their trig forms cancel terms of order theta down to order theta^3..theta^5
# and lose about eps/theta relative to the block (3e-15 at theta = 0.01,
# 2e-16 at 0.3); the 6-term series is exact to double precision below this
# angle (1e-17 at 0.3).
DEXP_SMALL_ANGLE = 0.3


def hat(v):
    """3-vector -> skew-symmetric matrix, hat(v) @ w == cross(v, w); (..., 3) -> (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2] = -v[..., 2], v[..., 1]
    out[..., 1, 0], out[..., 1, 2] = v[..., 2], -v[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -v[..., 1], v[..., 0]
    return out


def hat6(t):
    """Twist -> 4x4 se(3) matrix (angular block top-left, linear top-right)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros((4, 4))
    out[:3, :3] = hat(t[:3])
    out[:3, 3] = t[3:]
    return out


def ad(t):
    """Adjoint representation of a twist, [[hat(w), 0], [hat(v), hat(w)]]:
    ad(a) @ b is the se(3) bracket [a, b]; (..., 6) -> (..., 6, 6)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape[:-1] + (6, 6))
    out[..., :3, :3] = out[..., 3:, 3:] = hat(t[..., :3])
    out[..., 3:, :3] = hat(t[..., 3:])
    return out


def _angle(w):
    """|w| over the last axis, (..., 3) -> (...)."""
    return np.sqrt(np.vecdot(w, w))


def _rot_coeffs(theta):
    """(sin t/t, (1-cos t)/t^2, (t-sin t)/t^3) with Taylor branches near zero."""
    t2 = theta * theta
    small = theta < SMALL_ANGLE
    t = np.where(small, 1.0, theta)   # keeps the unused trig branch finite
    s = np.sin(t)
    half = np.sin(0.5 * t)
    b = 2.0 * half * half / (t * t)   # (1-cos)/theta^2 without cancellation
    return (np.where(small, 1.0 - t2 / 6.0 * (1.0 - t2 / 20.0 * (1.0 - t2 / 42.0)), s / t),
            np.where(small, 0.5 * (1.0 - t2 / 12.0 * (1.0 - t2 / 30.0 * (1.0 - t2 / 56.0))), b),
            np.where(small, (1.0 - t2 / 20.0 * (1.0 - t2 / 42.0 * (1.0 - t2 / 72.0))) / 6.0,
                     (t - s) / t**3))


# Taylor coefficients in theta^2 of the three _dexp_coeffs, six terms each.
_DEXP_SERIES = np.array([
    [(-1) ** n / factorial(2 * n + 3) for n in range(6)],
    [(-1) ** n / factorial(2 * n + 4) for n in range(6)],
    [(-1) ** n * (n + 1) / factorial(2 * n + 5) for n in range(6)],
])


def _dexp_coeffs(theta):
    """(t - sin t)/t^3, (t^2 + 2 cos t - 2)/(2 t^4) and (2t - 3 sin t + t cos t)/(2 t^5),
    from their series below DEXP_SMALL_ANGLE."""
    small = theta < DEXP_SMALL_ANGLE
    t = np.where(small, 1.0, theta)   # keeps the unused trig branch finite
    t2 = t * t
    b = 2.0 * np.sin(0.5 * t) ** 2 / t2
    c1 = (t - np.sin(t)) / (t * t2)
    trig = (c1, (0.5 - b) / t2, (3.0 * c1 - b) / (2.0 * t2))
    x2 = theta * theta
    return tuple(np.where(small, np.polyval(row[::-1], x2), f)
                 for row, f in zip(_DEXP_SERIES, trig))


def exp_se3(psi):
    """Exponential map se(3) -> SE(3) as homogeneous matrices, (..., 6) -> (..., 4, 4)."""
    psi = np.asarray(psi, dtype=float)
    w, v = psi[..., :3], psi[..., 3:]
    a, b, c = (x[..., None, None] for x in _rot_coeffs(_angle(w)))
    wh = hat(w)
    wh2 = wh @ wh
    out = np.zeros(psi.shape[:-1] + (4, 4))
    out[..., :3, :3] = np.eye(3) + a * wh + b * wh2
    vmat = np.eye(3) + b * wh + c * wh2
    out[..., :3, 3] = (vmat @ v[..., None])[..., 0]
    out[..., 3, 3] = 1.0
    return out


def inv_pose(pose):
    """Inverse of a homogeneous transform without a general 4x4 solve."""
    rot = pose[:3, :3]
    out = np.eye(4)
    out[:3, :3] = rot.T
    out[:3, 3] = -rot.T @ pose[:3, 3]
    return out


def dexp_se3(psi, dpsi):
    """Right-trivialized differential of exp at psi applied to dpsi.

    d/de exp(psi + e*dpsi)|_0 = exp_se3(psi) @ hat6(dexp_se3(psi, dpsi)).
    The operator is sum_k (-1)^k/(k+1)! ad(psi)^k, the SE(3) right Jacobian
    J_l(-psi) = [[J, 0], [Q, J]] (Barfoot & Furgale 2014), summed in closed
    form: with W = hat(w) and V = hat(v) of psi = [w; v] and theta = |w|,
    J = I - b W + c1 W^2 and
    Q = -V/2 + c1 (WV + VW - WVW) - c2 (WWV + VWW - 3 WVW) + c3 (WVWW + WWVW),
    b = (1 - cos theta)/theta^2 and c1, c2, c3 from _dexp_coeffs.  psi is
    (..., 6); dpsi is (..., 6), or (..., 6, k) for k directions at once.
    """
    psi = np.asarray(psi, dtype=float)
    dpsi = np.asarray(dpsi, dtype=float)
    w, v = hat(psi[..., :3]), hat(psi[..., 3:])
    theta = _angle(psi[..., :3])
    b = _rot_coeffs(theta)[1][..., None, None]
    c1, c2, c3 = (x[..., None, None] for x in _dexp_coeffs(theta))
    ww, wv, vw = w @ w, w @ v, v @ w
    wvw = wv @ w
    jac = np.zeros(psi.shape[:-1] + (6, 6))
    jac[..., :3, :3] = jac[..., 3:, 3:] = np.eye(3) - b * w + c1 * ww
    jac[..., 3:, :3] = (-0.5 * v + c1 * (wv + vw - wvw) - c2 * (w @ wv + vw @ w - 3.0 * wvw)
                        + c3 * (wvw @ w + w @ wvw))
    if dpsi.ndim == psi.ndim:
        return (jac @ dpsi[..., None])[..., 0]
    return jac @ dpsi


# The two Gauss-Legendre points of a step, as fractions of its width.
GL_POINTS = np.array([0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0])
_BRACKET = np.sqrt(3.0) / 12.0


def magnus_element(eta1, eta2, h):
    """Psi = (h/2)(eta1 + eta2) + (sqrt(3) h^2/12)[eta1, eta2] for one step of h.

    eta1 and eta2 are the twists at the lower and upper Gauss-Legendre points
    of the step, (..., 6), and h broadcasts against their leading axes.  The
    bracket order follows the right-multiplied convention of the backbone
    ODE; the reversed order drops the scheme to second order.
    """
    h = np.asarray(h, dtype=float)[..., None]
    return 0.5 * h * (eta1 + eta2) + (_BRACKET * h * h) * (ad(eta1) @ eta2[..., None])[..., 0]


def magnus_element_diff(eta1, eta2, deta1, deta2, h):
    """Differential of magnus_element: dPsi (..., 6, k) for twist variations
    deta1 and deta2 (..., 6, k) at the two points."""
    h = np.asarray(h, dtype=float)[..., None, None]
    return 0.5 * h * (deta1 + deta2) + (_BRACKET * h * h) * (
        ad(eta1) @ deta2 - ad(eta2) @ deta1)


def magnus_step(curvature_fn, s0, h):
    """4th-order Magnus element Psi for one step of T' = T hat6([u; e3]),
    with eta_j = [u; e3] sampled at the Gauss-Legendre points of [s0, s0+h].

    The slow reference: one curvature callback per point and one step per
    call.  The differential tests and the benchmark's truth pose use it; the
    library's poses and Jacobians take every step of a stack at once in
    sensing.forward_kinematics and sensing.body_jacobian_multi."""
    if h <= 0:
        raise ValueError("step size must be positive")
    e1, e2 = (np.concatenate([np.asarray(curvature_fn(s0 + g * h), dtype=float), E3])
              for g in GL_POINTS)
    return magnus_element(e1, e2, h)


def integrate_backbone(curvature_fn, length, n_steps):
    """Product-of-exponentials integration of the backbone frame field.

    Returns an (n_steps+1, 4, 4) array of poses on the uniform arc-length grid
    covering [0, length], with poses[0] the identity.  The slow reference
    integrator, step by step through magnus_step; no library path calls it.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    h = length / n_steps
    out = np.tile(np.eye(4), (n_steps + 1, 1, 1))
    for i in range(n_steps):
        out[i + 1] = out[i] @ exp_se3(magnus_step(curvature_fn, i * h, h))
    return out
