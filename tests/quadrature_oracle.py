"""Deterministic product-grid quadrature of the collision integrand.

Coarse by design: an independent check on the sign and magnitude of the
Monte Carlo estimator in ``kinetics.collision_operator``, not a precision
evaluator.
"""

import numpy as np

from kinetics.collision_operator import QuadratureSpec, pre_collision_pair
from kinetics.distribution import DiscreteDistribution, interpolate, interpolate_many


def _angle_grid(n_cos: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint product rule on (cos theta, phi); weights sum to 4 pi."""
    cos_t = -1.0 + (np.arange(n_cos) + 0.5) * (2.0 / n_cos)
    phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    cos_g, phi_g = np.meshgrid(cos_t, phi, indexing="ij")
    sin_g = np.sqrt(1.0 - cos_g**2)
    directions = np.stack([sin_g * np.cos(phi_g), sin_g * np.sin(phi_g), cos_g],
                          axis=-1).reshape(-1, 3)
    weights = np.full(directions.shape[0], (2.0 / n_cos) * (2.0 * np.pi / n_phi))
    return directions, weights


def brute_force_rate(f: DiscreteDistribution, v, spec: QuadratureSpec,
                     v1_nodes_per_axis: int = 8, n_cos: int = 8, n_phi: int = 8) -> float:
    """Product-grid rate at one probe: partner nodes times direction midpoints.

    All directions go through ``pre_collision_pair`` and ``interpolate_many``
    at once; each direction's row is summed and the rows are added in order.
    """
    v = np.asarray(v, dtype=np.float64).reshape(3)
    vmax = f.grid.vmax
    ax = np.linspace(-vmax, vmax, v1_nodes_per_axis)
    h3 = (ax[1] - ax[0]) ** 3
    v1 = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    directions, weights = _angle_grid(n_cos, n_phi)
    gain = spec.normalization.gain_factor(spec.epsilon)
    f_probe = interpolate(f, v)
    f_v1 = interpolate_many(f, v1)
    pre_a, pre_b = pre_collision_pair(v, v1[None, :, :], directions[:, None, :],
                                      spec.epsilon, spec.branch)
    gn = np.abs(np.stack([(v[None, :] - v1) @ n for n in directions]))
    contrib = (gain * interpolate_many(f, pre_a) * interpolate_many(f, pre_b)
               - f_probe * f_v1) * gn
    total = 0.0
    for w, row in zip(weights, contrib):
        total += w * float(np.sum(row)) * h3
    return spec.cross_section * total


def brute_force_density_rate(f: DiscreteDistribution, spec: QuadratureSpec,
                             nodes_per_axis: int = 8, n_cos: int = 8,
                             n_phi: int = 8) -> float:
    """Volume sum of the product-grid rate over a coarse probe grid."""
    vmax = f.grid.vmax
    ax = np.linspace(-vmax, vmax, nodes_per_axis)
    h3 = (ax[1] - ax[0]) ** 3
    probes = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    total = 0.0
    for probe in probes:
        total += brute_force_rate(f, probe, spec, nodes_per_axis, n_cos, n_phi) * h3
    return total
