"""Closed-form binary inelastic hard-sphere collisions.

The two admissible impact rules differ only in the factor applied to the
normal relative velocity: the reflective rule reverses it (scaled by the
restitution coefficient), the passing rule shrinks it without reversing.
Both exchange impulse strictly along the center line ``n``, so momentum is
conserved exactly and the tangential relative velocity is untouched.

Convention: ``n`` is the unit center-to-center direction pointing from body
1 to body 2. Callers must pass a unit vector; nothing is renormalized
silently, since that would mask upstream bugs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (NonFiniteEstimate, NonUnitNormal, frozen_array, require_member,
                     require_positive, require_restitution, require_vector3)

UNIT_NORMAL_TOL = 1e-9


class CollisionBranch(enum.Enum):
    """Impact rule selector; no default, callers must choose."""

    REFLECTIVE = "reflective"
    PASSING = "passing"

    def normal_factor(self, epsilon: float) -> float:
        """Factor multiplying the normal relative velocity in the impulse."""
        return 1.0 + epsilon if self is CollisionBranch.REFLECTIVE else 1.0 - epsilon


@dataclass(frozen=True)
class CollisionEvent:
    """Outcome of collide(v1, v2, n, ...): outgoing velocities and energy bookkeeping.

    ``w1 - v1 == lambda1 * n`` and ``w2 - v2 == lambda2 * n`` hold by
    construction; ``delta_e`` is the actual kinetic-energy deficit
    KE(pre) - KE(post).
    """

    w1: np.ndarray
    w2: np.ndarray
    lambda1: float
    lambda2: float
    delta_e: float

    def __post_init__(self) -> None:
        frozen_array(self, "w1", self.w1)
        frozen_array(self, "w2", self.w2)


def _validate_normal(n: np.ndarray) -> np.ndarray:
    n = require_vector3("n", n)
    norm = math.hypot(*n)  # no overflow, so the message names the true |n|
    if not abs(norm - 1.0) <= UNIT_NORMAL_TOL:  # NaN fails too
        raise NonUnitNormal(f"|n| = {norm!r} deviates from 1 beyond {UNIT_NORMAL_TOL}")
    return n


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis of (..., 3) arrays.

    Bit-equal to ``np.sum(a * b, axis=-1)``, which adds x, y and z in turn to
    0.0 (so a row of -0.0 products gives +0.0), without the per-row cost of a
    reduction over a length-3 axis.
    """
    p = a * b
    s = 0.0 + p[..., 0]
    s += p[..., 1]
    s += p[..., 2]
    return s


def _impulse(v1, v2, n, epsilon: float, branch: CollisionBranch, m1: float, m2: float):
    """Impulse coefficients of shape (..., 1): w1 = v1 + c1 n, w2 = v2 - c2 n."""
    factor = branch.normal_factor(epsilon)
    gn = _dot3(v2 - v1, n)[..., None]
    m_total = m1 + m2
    return (factor * m2 / m_total) * gn, (factor * m1 / m_total) * gn


def transform_velocities(v1, v2, n, epsilon: float, branch: CollisionBranch,
                         m1: float, m2: float):
    """Unvalidated, broadcastable collision rule on (..., 3) velocity arrays.

    The impulse per unit reduced mass is ``factor * ((v2 - v1) . n)`` along
    ``n``; epsilon is taken as given, which also serves the inverse map at
    restitution 1/epsilon.
    """
    v1 = np.asarray(v1, dtype=np.float64)
    v2 = np.asarray(v2, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    c1, c2 = _impulse(v1, v2, n, epsilon, branch, m1, m2)
    return v1 + c1 * n, v2 - c2 * n


def collide(v1, v2, n, epsilon: float, branch: CollisionBranch,
            m1: float, m2: float) -> CollisionEvent:
    """Apply the selected impact rule to one pair and book the energy deficit.

    An outcome that overflows or is NaN raises NonFiniteEstimate, a numerical failure.
    """
    n = _validate_normal(n)
    epsilon = require_restitution("epsilon", epsilon)
    require_member("branch", branch, CollisionBranch)
    v1 = require_vector3("v1", v1)
    v2 = require_vector3("v2", v2)
    m1, m2 = require_positive("m1", m1), require_positive("m2", m2)
    c1, c2 = _impulse(v1, v2, n, epsilon, branch, m1, m2)
    lambda1, lambda2 = c1.item(), -c2.item()
    w1 = v1 + lambda1 * n
    w2 = v2 + lambda2 * n
    ke_pre = 0.5 * m1 * float(v1 @ v1) + 0.5 * m2 * float(v2 @ v2)
    ke_post = 0.5 * m1 * float(w1 @ w1) + 0.5 * m2 * float(w2 @ w2)
    delta_e = ke_pre - ke_post
    if not np.all(np.isfinite([*w1, *w2, lambda1, lambda2, delta_e])):
        raise NonFiniteEstimate(f"collision is not finite: lambda1 = {lambda1!r}, "
                                f"lambda2 = {lambda2!r}, delta_e = {delta_e!r}")
    return CollisionEvent(w1=w1, w2=w2, lambda1=lambda1, lambda2=lambda2, delta_e=delta_e)


def inverse_collide(w1, w2, n, epsilon: float, branch: CollisionBranch,
                    m1: float, m2: float):
    """Pre-collision pair that the given impact maps onto (w1, w2).

    The inverse of either rule is the same rule at restitution 1/epsilon, so
    it is singular as epsilon -> 0, which the (0, 1] rule excludes.
    """
    epsilon = require_restitution("epsilon", epsilon)
    require_member("branch", branch, CollisionBranch)
    n = _validate_normal(n)
    w1 = require_vector3("w1", w1)
    w2 = require_vector3("w2", w2)
    m1, m2 = require_positive("m1", m1), require_positive("m2", m2)
    return transform_velocities(w1, w2, n, 1.0 / epsilon, branch, m1, m2)


def energy_loss_formula(v1, v2, epsilon: float, m1: float, m2: float) -> float:
    """Published energy-loss expression: (1/2)(1-eps^2) mu |v1-v2|^2.

    Uses the full relative speed |v1 - v2|, not its normal component; the
    claim-audit module quantifies how far this sits from the deficit the
    impact rules actually produce for oblique geometries.
    """
    epsilon = require_restitution("epsilon", epsilon)
    v1 = require_vector3("v1", v1)
    v2 = require_vector3("v2", v2)
    m1, m2 = require_positive("m1", m1), require_positive("m2", m2)
    mu = m1 * m2 / (m1 + m2)
    g = v1 - v2
    return 0.5 * (1.0 - epsilon**2) * mu * float(g @ g)


def actual_energy_loss(v1, v2, n, epsilon: float, m1: float, m2: float) -> float:
    """Kinetic-energy deficit the impact rules actually produce.

    Both branches lose (1/2)(1-eps^2) mu ((v2-v1).n)^2; only the normal
    component of the relative velocity dissipates.
    """
    epsilon = require_restitution("epsilon", epsilon)
    n = _validate_normal(n)
    v1 = require_vector3("v1", v1)
    v2 = require_vector3("v2", v2)
    m1, m2 = require_positive("m1", m1), require_positive("m2", m2)
    mu = m1 * m2 / (m1 + m2)
    gn = float((v2 - v1) @ n)
    return 0.5 * (1.0 - epsilon**2) * mu * gn * gn


def jacobian_analytic(epsilon: float, branch: CollisionBranch) -> float:
    """|det| of the 6x6 pair-velocity map at fixed n; equals epsilon."""
    return abs(jacobian_signed(epsilon, branch))


def jacobian_signed(epsilon: float, branch: CollisionBranch) -> float:
    """Signed determinant: -epsilon for the reflective rule, +epsilon for passing.

    Only the 2x2 block acting on the two normal velocity components is
    non-trivial; its determinant is 1 - factor.
    """
    epsilon = require_restitution("epsilon", epsilon)
    return 1.0 - require_member("branch", branch, CollisionBranch).normal_factor(epsilon)


def jacobian_numeric(v1, v2, n, epsilon: float, branch: CollisionBranch,
                     m1: float, m2: float) -> float:
    """|det| of the pair-velocity map by central finite differences.

    The step is 1e-5 * max(1, |v|_inf), balancing truncation against
    round-off for 64-bit floats.
    """
    n = _validate_normal(n)
    epsilon = require_restitution("epsilon", epsilon)
    require_member("branch", branch, CollisionBranch)
    v1 = require_vector3("v1", v1)
    v2 = require_vector3("v2", v2)
    m1, m2 = require_positive("m1", m1), require_positive("m2", m2)
    x0 = np.concatenate([v1, v2])
    h = 1e-5 * max(1.0, float(np.max(np.abs(x0))))
    # the 12 stencil points x0 +- h e_i, as (sign, i, coordinate), mapped in one call
    x = np.tile(x0, (2, 6, 1))
    diagonal = np.arange(6)
    x[0, diagonal, diagonal] += h
    x[1, diagonal, diagonal] -= h
    w1, w2 = transform_velocities(x[..., :3], x[..., 3:], n, epsilon, branch, m1, m2)
    w = np.concatenate([w1, w2], axis=-1)
    jac = ((w[0] - w[1]) / (2.0 * h)).T
    return abs(float(np.linalg.det(jac)))
