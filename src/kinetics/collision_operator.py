"""Monte Carlo evaluation of the binary-collision rate of change of f.

The rate at a probe velocity v is the integral over partner velocities and
impact directions of ``(G f'f1' - f f1) * (1/4) d^2 |(v - v1) . n|`` where
the primed values are taken at the pre-collision pair that maps onto
(v, v1). Two gain weightings G are supported: the restitution-weighted form
(G = eps) and the standard granular one (G = 1/eps^2); they coincide at
eps = 1.

Partners are drawn uniformly over the grid hull and directions uniformly on
the full sphere, so the estimator weight is hull_volume * 4 pi. Streams are
counter-based and keyed per probe, which makes results independent of how
probes are scheduled across workers.
"""

from __future__ import annotations

import enum
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .collision_kernel import CollisionBranch
from .distribution import DiscreteDistribution, interpolate, interpolate_many
from .errors import InvalidRestitution, NonFiniteEstimate, SingularRestitution

_CHUNK = 1 << 15


class GainNormalization(enum.Enum):
    """Weight applied to the gain term; explicit selection required."""

    RESTITUTION_WEIGHTED = "restitution_weighted"
    STANDARD_GRANULAR = "standard_granular"

    def gain_factor(self, epsilon: float) -> float:
        if self is GainNormalization.RESTITUTION_WEIGHTED:
            return epsilon
        return 1.0 / (epsilon * epsilon)


@dataclass(frozen=True)
class QuadratureSpec:
    """Sampling budget plus the physical parameters of the collision kernel."""

    samples: int
    seed: int
    diameter: float
    mass: float
    epsilon: float
    branch: CollisionBranch
    normalization: GainNormalization = GainNormalization.RESTITUTION_WEIGHTED

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if not self.diameter > 0.0:
            raise ValueError(f"diameter must be positive, got {self.diameter}")
        if not self.mass > 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.epsilon <= 0.0:
            raise SingularRestitution(
                f"the gain term is singular at restitution {self.epsilon!r}")
        if self.epsilon > 1.0:
            raise InvalidRestitution(
                f"restitution must lie in (0, 1], got {self.epsilon!r}")

    @property
    def cross_section(self) -> float:
        return 0.25 * self.diameter**2


@dataclass(frozen=True)
class RateEstimate:
    """Monte Carlo mean and standard error, in units of f per second."""

    value: float
    std_error: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.value) and np.isfinite(self.std_error)):
            raise ValueError("rate estimate must be finite")
        if self.std_error < 0.0:
            raise ValueError("standard error must be nonnegative")


@dataclass(frozen=True)
class MomentRates:
    density: RateEstimate
    momentum: tuple[RateEstimate, RateEstimate, RateEstimate]
    energy: RateEstimate


def _estimate(value: float, std_error: float) -> RateEstimate:
    """RateEstimate, or NonFiniteEstimate (a numerical failure) on overflow or NaN."""
    if not (np.isfinite(value) and np.isfinite(std_error)):
        raise NonFiniteEstimate(
            f"rate estimate is not finite: {value!r} +/- {std_error!r}")
    return RateEstimate(value=value, std_error=std_error)


def _workers(threads: int, tasks: int) -> int:
    return min(threads, tasks, os.cpu_count() or 1)


def _unit_sphere(generator: np.random.Generator, count: int) -> np.ndarray:
    raw = generator.standard_normal((count, 3))
    norm = np.sqrt(np.sum(raw * raw, axis=1, keepdims=True))
    return raw / np.maximum(norm, 1e-300)


def _chunk_sizes(total: int) -> list[int]:
    sizes = [_CHUNK] * (total // _CHUNK)
    if total % _CHUNK:
        sizes.append(total % _CHUNK)
    return sizes


def _mean_and_sem(sums: list[float], sq_sums: list[float], total: int) -> tuple[float, float]:
    mean = float(np.sum(sums)) / total
    if total < 2:
        return mean, 0.0
    var = (float(np.sum(sq_sums)) - total * mean * mean) / (total - 1)
    return mean, float(np.sqrt(max(var, 0.0) / total))


def pre_collision_pair(v, v1, n, epsilon: float, branch: CollisionBranch):
    """Pre-collision velocities of the pair that the impact maps onto (v, v1).

    Single-species closed form of the inverse rule (restitution 1/epsilon);
    broadcastable over (..., 3) arrays.
    """
    factor = 0.5 * branch.normal_factor(1.0 / epsilon)
    gn = np.sum((v1 - v) * n, axis=-1, keepdims=True)
    return v + factor * gn * n, v1 - factor * gn * n


def evaluate_at(f: DiscreteDistribution, v, spec: QuadratureSpec) -> RateEstimate:
    """Collision rate of change of f at one probe velocity, with error bar."""
    v = np.asarray(v, dtype=np.float64).reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError("probe velocity must be finite")
    generator = rng.stream(spec.seed, "operator-node", rng.velocity_label(v))
    vmax = f.grid.vmax
    gain = spec.normalization.gain_factor(spec.epsilon)
    f_probe = interpolate(f, v)
    sums: list[float] = []
    sq_sums: list[float] = []
    for size in _chunk_sizes(spec.samples):
        v1 = generator.uniform(-vmax, vmax, (size, 3))
        n = _unit_sphere(generator, size)
        pre_a, pre_b = pre_collision_pair(v[None, :], v1, n, spec.epsilon, spec.branch)
        gn = np.sum((v[None, :] - v1) * n, axis=1)
        integrand = (gain * interpolate_many(f, pre_a) * interpolate_many(f, pre_b)
                     - f_probe * interpolate_many(f, v1)) * np.abs(gn)
        sums.append(float(np.sum(integrand)))
        sq_sums.append(float(np.sum(integrand * integrand)))
    mean, sem = _mean_and_sem(sums, sq_sums, spec.samples)
    weight = f.grid.hull_volume * 4.0 * np.pi * spec.cross_section
    return _estimate(weight * mean, weight * sem)


def evaluate_field(f: DiscreteDistribution, nodes, spec: QuadratureSpec,
                   threads: int = 1) -> list[RateEstimate]:
    """evaluate_at over many probes; bitwise equal at any worker count."""
    nodes = [np.asarray(node, dtype=np.float64).reshape(3) for node in nodes]
    workers = _workers(threads, len(nodes))
    if workers <= 1:
        return [evaluate_at(f, node, spec) for node in nodes]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda node: evaluate_at(f, node, spec), nodes))


def _moment_chunk(f: DiscreteDistribution, spec: QuadratureSpec, chunk_index: int,
                  size: int) -> np.ndarray:
    """Sums and square-sums of the five weak-form integrands for one chunk."""
    generator = rng.stream(spec.seed, "operator-moments", chunk_index)
    vmax = f.grid.vmax
    v = generator.uniform(-vmax, vmax, (size, 3))
    v1 = generator.uniform(-vmax, vmax, (size, 3))
    n = _unit_sphere(generator, size)
    gn = np.sum((v1 - v) * n, axis=1)
    base = 0.5 * interpolate_many(f, v) * interpolate_many(f, v1) * np.abs(gn)
    ge2 = spec.normalization.gain_factor(spec.epsilon) * spec.epsilon**2
    mass = spec.mass
    mu = 0.5 * mass
    delta_e = 0.5 * (1.0 - spec.epsilon**2) * mu * gn * gn
    pair_ke = 0.5 * mass * (np.sum(v * v, axis=1) + np.sum(v1 * v1, axis=1))
    integrands = np.empty((5, size))
    integrands[0] = base * (2.0 * ge2 - 2.0)
    integrands[1:4] = (base * (ge2 - 1.0) * mass) * (v + v1).T
    integrands[4] = base * ((ge2 - 1.0) * pair_ke - ge2 * delta_e)
    return np.stack([np.sum(integrands, axis=1), np.sum(integrands**2, axis=1)])


def moment_rates(f: DiscreteDistribution, spec: QuadratureSpec,
                 threads: int = 1) -> MomentRates:
    """Collision rates of density, momentum, and energy (weak form, symmetrized).

    Each Monte Carlo sample draws an unordered pair (v, v1) and a direction,
    applies the forward impact, and weighs the change of the invariant; the
    gain weighting enters through the factor G eps^2.
    """
    sizes = _chunk_sizes(spec.samples)
    tasks = list(enumerate(sizes))
    workers = _workers(threads, len(tasks))
    if workers <= 1:
        partials = [_moment_chunk(f, spec, i, s) for i, s in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(lambda t: _moment_chunk(f, spec, t[0], t[1]), tasks))
    weight = f.grid.hull_volume**2 * 4.0 * np.pi * spec.cross_section
    estimates = []
    for component in range(5):
        mean, sem = _mean_and_sem([p[0, component] for p in partials],
                                  [p[1, component] for p in partials], spec.samples)
        estimates.append(_estimate(weight * mean, weight * sem))
    return MomentRates(density=estimates[0],
                       momentum=(estimates[1], estimates[2], estimates[3]),
                       energy=estimates[4])


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
    """Deterministic product-grid quadrature of the same integrand.

    Coarse by design; exists as an independent check on sign and magnitude of
    the Monte Carlo path, not as a precision evaluator.
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
    total = 0.0
    for n, w in zip(directions, weights):
        pre_a, pre_b = pre_collision_pair(v[None, :], v1, n[None, :],
                                          spec.epsilon, spec.branch)
        gn = np.abs((v[None, :] - v1) @ n)
        contrib = (gain * interpolate_many(f, pre_a) * interpolate_many(f, pre_b)
                   - f_probe * f_v1) * gn
        total += w * float(np.sum(contrib)) * h3
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


def write_rate_table(path, nodes, estimates: list[RateEstimate]) -> None:
    """CSV rows vx,vy,vz,rate,std_error with shortest round-trip floats."""
    lines = ["vx,vy,vz,rate,std_error"]
    for node, est in zip(nodes, estimates):
        node = np.asarray(node, dtype=np.float64).reshape(3)
        lines.append(",".join(repr(float(x)) for x in
                              (node[0], node[1], node[2], est.value, est.std_error)))
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
