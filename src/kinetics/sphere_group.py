"""Unit-3-sphere machinery: embedding, stereographic chart, group structure.

Points are 4-vectors ``theta`` with the first component as the quaternion
scalar part, identity ``e = (1, 0, 0, 0)``. The chart maps
``theta -> (theta1, theta2, theta3) / (1 - theta4)`` and excludes
``p = (0, 0, 0, 1)``; with the lower hemisphere embedding, physical
velocities keep ``1 - theta4 >= 1`` and never approach the excluded point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ChartSingularity, SpeedExceedsLambda, frozen_array, require_positive,
                     require_vector3)

CHART_GUARD = 1e-9
_SPHERE_TOL = 1e-12


@dataclass(frozen=True)
class SpherePoint:
    """Point on the unit 3-sphere; |theta| = 1 within 1e-12."""

    theta: np.ndarray

    def __post_init__(self) -> None:
        theta = frozen_array(self, "theta", self.theta, (4,))
        norm_sq = float(theta @ theta)
        if abs(norm_sq - 1.0) > 4.0 * _SPHERE_TOL:
            raise ValueError(f"|theta|^2 = {norm_sq!r} is not 1 within tolerance")


@dataclass(frozen=True)
class ChartCoords:
    """Stereographic image of a sphere point."""

    vstar: np.ndarray

    def __post_init__(self) -> None:
        frozen_array(self, "vstar", self.vstar, (3,))


@dataclass(frozen=True)
class PureQuaternion:
    """Generator of a one-parameter subgroup; the zero vector is allowed."""

    xi: np.ndarray

    def __post_init__(self) -> None:
        frozen_array(self, "xi", self.xi, (3,))


IDENTITY = SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]))


def _hemisphere_sign(hemisphere: str) -> float:
    if hemisphere == "upper":
        return 1.0
    if hemisphere == "lower":
        return -1.0
    raise ValueError(f"hemisphere must be 'upper' or 'lower', got {hemisphere!r}")


def embed(v, lam: float, hemisphere: str = "lower") -> SpherePoint:
    """Scale a velocity onto the sphere: theta = (v/lam, +-sqrt(1 - |v/lam|^2))."""
    require_positive("lambda", lam)
    sign = _hemisphere_sign(hemisphere)
    v = require_vector3("v", v)
    scaled = v / lam
    rho_sq = float(scaled @ scaled)
    if not rho_sq < 1.0:
        raise SpeedExceedsLambda(f"|v| = {math.sqrt(rho_sq) * lam:g} must be below lambda = {lam:g}")
    theta4 = sign * math.sqrt(1.0 - rho_sq)
    return SpherePoint(np.array([scaled[0], scaled[1], scaled[2], theta4]))


def project_chart(point: SpherePoint) -> ChartCoords:
    """Stereographic projection away from the excluded point (0, 0, 0, 1)."""
    theta = point.theta
    denom = 1.0 - theta[3]
    if denom <= CHART_GUARD:
        raise ChartSingularity(f"1 - theta4 = {denom!r} is inside the guard {CHART_GUARD}")
    return ChartCoords(theta[:3] / denom)


def unproject_chart(coords: ChartCoords) -> SpherePoint:
    """Inverse projection: with s = |v*|^2, theta = (2 v*, s - 1) / (s + 1)."""
    vstar = coords.vstar
    s = float(vstar @ vstar)
    return SpherePoint(np.array([
        2.0 * vstar[0], 2.0 * vstar[1], 2.0 * vstar[2], s - 1.0,
    ]) / (s + 1.0))


def chart_jacobian(v, lam: float, hemisphere: str = "lower") -> tuple[np.ndarray, float]:
    """Derivative matrix and determinant of velocity -> chart coordinates.

    Entry [i, j] is d(vstar_j)/d(v_i); the matrix is symmetric. Closed form:
    I/(lam D) - sign * v v^T / (lam^3 D^2 q) with q = sqrt(1 - |v/lam|^2)
    and D = 1 - sign * q.
    """
    require_positive("lambda", lam)
    sign = _hemisphere_sign(hemisphere)
    v = require_vector3("v", v)
    rho_sq = float(v @ v) / lam**2
    if not rho_sq < 1.0:
        raise SpeedExceedsLambda(f"|v| must be below lambda = {lam:g}")
    q = math.sqrt(1.0 - rho_sq)
    denom = 1.0 - sign * q
    if denom <= CHART_GUARD:
        raise ChartSingularity(f"1 - theta4 = {denom!r} is inside the guard {CHART_GUARD}")
    matrix = np.eye(3) / (lam * denom) - sign * np.outer(v, v) / (lam**3 * denom**2 * q)
    return matrix, float(np.linalg.det(matrix))


def quaternion_multiply(a: SpherePoint, b: SpherePoint) -> SpherePoint:
    """Hamilton product with the first component as scalar part."""
    w1, x1, y1, z1 = a.theta
    w2, x2, y2, z2 = b.theta
    prod = np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 + y1 * w2 + z1 * x2 - x1 * z2,
        w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2,
    ])
    return SpherePoint(prod / math.sqrt(float(prod @ prod)))


def exp_subgroup(u: PureQuaternion, tau: float) -> SpherePoint:
    """One-parameter subgroup G(tau) = (cos(|u| tau), sin(|u| tau) u/|u|)."""
    xi = u.xi
    with np.errstate(over="ignore"):  # |xi|^2 past the float range is rescaled below
        speed = math.sqrt(float(xi @ xi))
    if speed == math.inf:  # |xi| past ~1e154; power-of-two scaling is exact
        scaled = xi * 2.0**-600
        speed = math.sqrt(float(scaled @ scaled)) * 2.0**600
    angle = speed * tau  # NaN for an infinite tau even at speed 0
    if speed == math.inf:  # |xi| past the float range; the scaled speed is >= 2**424
        xi, speed = scaled, math.sqrt(float(scaled @ scaled))
        angle = (speed * tau) * 2.0**600
    if not math.isfinite(angle):
        raise ValueError(f"tau must be finite with |u| tau finite, got tau = {tau!r}")
    if speed == 0.0:
        return IDENTITY
    direction = xi / speed
    s = math.sin(angle)
    return SpherePoint(np.array([
        math.cos(angle), s * direction[0], s * direction[1], s * direction[2],
    ]))


def match_generator(force, mass: float, lam: float, hemisphere: str = "lower") -> PureQuaternion:
    """Generator whose orbit leaves the identity with chart velocity J F / m.

    J is the chart determinant evaluated at the rest velocity v = 0; for the
    upper hemisphere that point maps to the excluded projection point, so the
    construction raises ChartSingularity there.
    """
    require_positive("mass", mass)
    force = require_vector3("force", force)
    _, det = chart_jacobian(np.zeros(3), lam, hemisphere)
    target = det * force / mass
    # the orbit of u leaves the identity with chart velocity (u3, u1, u2)
    return PureQuaternion(np.array([target[1], target[2], target[0]]))


def pushforward_derivative(g, u: PureQuaternion) -> float:
    """Central-difference d/dtau of g(chart(G(tau))) at tau = 0.

    The step is 1e-5 / max(1, |u|), so the truncation error stays O(1e-10)
    for smooth fields; ValueError if |u| is past the float range.
    """
    speed = math.hypot(*u.xi)  # no overflow, so |u| past 1e154 still gives a step
    if speed == math.inf:
        raise ValueError("|xi| is past the float range, so no step resolves the orbit")
    step = 1e-5 / max(1.0, speed)
    plus = g(project_chart(exp_subgroup(u, step)).vstar)
    minus = g(project_chart(exp_subgroup(u, -step)).vstar)
    return (plus - minus) / (2.0 * step)


def transport_relation_residual(f, generator: PureQuaternion, theta_of_t,
                                c_of_v, times, probe: ChartCoords) -> float:
    """Max over sampled times of |f(probe, t) + theta'(t) f(orbit(t), t) - C(probe)|.

    A diagnostic evaluator: theta' comes from central differences with step
    1e-6 * max(1, |t|), and nothing is asserted about the result.
    """
    c_probe = float(c_of_v(probe.vstar))
    worst = 0.0
    for t in times:
        t = float(t)
        h = 1e-6 * max(1.0, abs(t))
        theta_rate = (float(theta_of_t(t + h)) - float(theta_of_t(t - h))) / (2.0 * h)
        orbit = project_chart(exp_subgroup(generator, float(theta_of_t(t))))
        residual = float(f(probe.vstar, t)) + theta_rate * float(f(orbit.vstar, t)) - c_probe
        worst = max(worst, abs(residual))
    return worst
