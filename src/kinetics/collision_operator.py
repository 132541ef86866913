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
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .collision_kernel import (
    CollisionBranch,
    _dot3,
    _validate_inverse_restitution,
    transform_velocities,
)
from .distribution import DiscreteDistribution, interpolate, interpolate_many
from .errors import NonFiniteEstimate, require_count, require_positive, require_vector3

_CHUNK = 1 << 15
_RESCALE_ABOVE = 2.0**500  # past this |deviation|, M2 squares it rescaled by a power of two


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
        require_count("samples", self.samples, 2)  # a standard error needs two samples
        require_positive("diameter", self.diameter)
        require_positive("mass", self.mass)
        _validate_inverse_restitution(self.epsilon)

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


def _map(fn, tasks: list, threads: int) -> list:
    """[fn(task) for task in tasks] on at most min(threads, tasks, cores) workers."""
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(task) for task in tasks]
    state = np.geterr()  # the caller's, which worker threads do not inherit

    def run(task):
        with np.errstate(**state):
            return fn(task)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, tasks))


def _unit_sphere(generator: np.random.Generator, count: int) -> np.ndarray:
    raw = generator.standard_normal((count, 3))
    norm = np.sqrt(_dot3(raw, raw))[:, None]
    return raw / np.maximum(norm, 1e-300)


def _chunk_sizes(total: int) -> list[int]:
    sizes = [_CHUNK] * (total // _CHUNK)
    if total % _CHUNK:
        sizes.append(total % _CHUNK)
    return sizes


def _sum_and_m2(samples: np.ndarray) -> np.ndarray:
    """Sums, M2s (squared deviations from the mean) times 4^-e, and e, along the last axis.

    e is 0 unless the largest |deviation| passes _RESCALE_ABOVE; then it is its frexp exponent.
    """
    sums = np.sum(samples, axis=-1)
    deviations = samples - (sums / samples.shape[-1])[..., None]
    peak = np.max(np.abs(deviations), axis=-1)
    exponents = np.where(peak > _RESCALE_ABOVE, np.frexp(peak)[1], 0)
    if np.any(exponents):
        deviations = np.ldexp(deviations, -exponents[..., None])
    return np.stack([sums, np.sum(deviations * deviations, axis=-1), exponents])


def _mean_and_sem(sizes: list[int], sums: list[float], m2s: list[float],
                  exponents: list[float]) -> tuple[float, float]:
    """Mean and standard error from per-chunk sample counts, sums, M2s and M2 exponents.

    The mean is the sum of the chunk sums over the sample count. The M2s are
    merged in chunk order with the update of Chan, Golub & LeVeque (1979),
    which, unlike sum(x^2) - n mean^2, does not cancel when |mean| dwarfs the
    spread. M2 is carried times 4^-scale, scale the largest exponent so far;
    powers of two are exact, so with all exponents 0 this is the plain update.
    """
    total = sum(sizes)
    mean = float(np.sum(sums)) / total
    count, centre, m2, scale = 0, 0.0, 0.0, 0
    for size, chunk_sum, chunk_m2, exponent in zip(sizes, sums, m2s, map(int, exponents)):
        delta = float(chunk_sum) / size - centre
        common = max(scale, exponent, math.frexp(delta)[1] if abs(delta) > _RESCALE_ABOVE else 0)
        scaled = math.ldexp(delta, -common)
        count += size
        m2 = math.ldexp(m2, 2 * (scale - common)) + (
            math.ldexp(float(chunk_m2), 2 * (exponent - common))
            + scaled * scaled * ((count - size) * size / count))
        centre += delta * (size / count)
        scale = common
    return mean, float(np.ldexp(math.sqrt(m2 / (total - 1) / total), scale))


def _estimates(sizes: list[int], partials: list[np.ndarray],
               weight: float) -> list[RateEstimate]:
    """Weighted RateEstimates, one per component of the per-chunk _sum_and_m2 results.

    A non-finite estimate (overflow or NaN) raises NonFiniteEstimate, a numerical failure.
    """
    stats = np.stack(partials, axis=-1).reshape(3, -1, len(sizes))  # (sum|M2|exp, comp, chunk)
    estimates = []
    for sums, m2s, exponents in zip(*stats):
        mean, sem = _mean_and_sem(sizes, sums, m2s, exponents)
        value, std_error = weight * mean, weight * sem
        if not (np.isfinite(value) and np.isfinite(std_error)):
            raise NonFiniteEstimate(
                f"rate estimate is not finite: {value!r} +/- {std_error!r}")
        estimates.append(RateEstimate(value=value, std_error=std_error))
    return estimates


def pre_collision_pair(v, v1, n, epsilon: float, branch: CollisionBranch):
    """Pre-collision velocities of the pair that the impact maps onto (v, v1).

    The inverse rule is the same rule at restitution 1/epsilon, here for equal
    masses; broadcastable over (..., 3) arrays.
    """
    return transform_velocities(v, v1, n, 1.0 / epsilon, branch, 1.0, 1.0)


def evaluate_at(f: DiscreteDistribution, v, spec: QuadratureSpec) -> RateEstimate:
    """Collision rate of change of f at one probe velocity, with error bar."""
    v = require_vector3("v", v)
    if not np.all(np.isfinite(v)):
        raise ValueError("probe velocity must be finite")
    # keyed by the probe's bit pattern, so equal probes share one stream
    generator = rng.stream(spec.seed, "operator-node", rng.derive_key(0, *v))
    vmax = f.grid.vmax
    gain = spec.normalization.gain_factor(spec.epsilon)
    f_probe = interpolate(f, v)
    sizes = _chunk_sizes(spec.samples)
    stats = []
    for size in sizes:
        v1 = generator.uniform(-vmax, vmax, (size, 3))
        n = _unit_sphere(generator, size)
        # for a probe far past the hull, the integrand is 0 where the f terms vanish
        with np.errstate(over="ignore", invalid="ignore"):
            pre_a, pre_b = pre_collision_pair(v[None, :], v1, n, spec.epsilon, spec.branch)
            gn = _dot3(v[None, :] - v1, n)
            f_terms = (gain * interpolate_many(f, pre_a) * interpolate_many(f, pre_b)
                       - f_probe * interpolate_many(f, v1))
            integrand = np.abs(gn)
            integrand *= f_terms
            integrand[f_terms == 0.0] = 0.0
            stats.append(_sum_and_m2(integrand))
    weight = f.grid.hull_volume * 4.0 * np.pi * spec.cross_section
    return _estimates(sizes, stats, weight)[0]


def evaluate_field(f: DiscreteDistribution, nodes, spec: QuadratureSpec,
                   threads: int = 1) -> list[RateEstimate]:
    """evaluate_at over many probes; bitwise equal at any worker count."""
    return _map(lambda node: evaluate_at(f, node, spec), list(nodes), threads)


def _moment_chunk(f: DiscreteDistribution, spec: QuadratureSpec, weightings: list,
                  chunk_index: int, size: int) -> list[np.ndarray]:
    """Per (epsilon, G) weighting, _sum_and_m2 of the five weak-form integrands of one chunk.

    The draws and lookups depend only on spec's seed, so every weighting shares them.
    """
    generator = rng.stream(spec.seed, "operator-moments", chunk_index)
    vmax = f.grid.vmax
    v = generator.uniform(-vmax, vmax, (size, 3))
    v1 = generator.uniform(-vmax, vmax, (size, 3))
    n = _unit_sphere(generator, size)
    gn = _dot3(v1 - v, n)
    mass, mu = spec.mass, 0.5 * spec.mass
    pair_ke = 0.5 * mass * (_dot3(v, v) + _dot3(v1, v1))
    velocity_sum = (v + v1).T
    stats = []
    base = 0.5 * interpolate_many(f, v) * interpolate_many(f, v1) * np.abs(gn)
    for epsilon, norm in weightings:
        ge2 = norm.gain_factor(epsilon) * epsilon**2
        delta_e = 0.5 * (1.0 - epsilon**2) * mu * gn * gn
        integrands = np.empty((5, size))
        integrands[0] = base * (2.0 * ge2 - 2.0)
        integrands[1:4] = (base * (ge2 - 1.0) * mass) * velocity_sum
        integrands[4] = base * ((ge2 - 1.0) * pair_ke - ge2 * delta_e)
        stats.append(_sum_and_m2(integrands))
    return stats


def moment_rates(f: DiscreteDistribution, spec: QuadratureSpec, threads: int = 1, *,
                 weightings=None) -> list[MomentRates]:
    """Collision rates of density, momentum, and energy (weak form, symmetrized).

    Each Monte Carlo sample draws an unordered pair (v, v1) and a direction,
    applies the forward impact, and weighs the change of the invariant; the
    gain weighting enters through the factor G eps^2.

    Returns one MomentRates per (epsilon, GainNormalization) pair in weightings, all
    from one set of draws, each equal to the call at that replace(spec, ...) alone;
    without weightings, the one pair is spec's own.
    """
    if weightings is None:
        weightings = [(spec.epsilon, spec.normalization)]
    weightings = [(_validate_inverse_restitution(epsilon), norm)  # QuadratureSpec's rule
                  for epsilon, norm in weightings]
    sizes = _chunk_sizes(spec.samples)
    partials = _map(lambda task: _moment_chunk(f, spec, weightings, *task),
                    list(enumerate(sizes)), threads)
    weight = f.grid.hull_volume**2 * 4.0 * np.pi * spec.cross_section
    rates = []
    for stats in zip(*partials):  # one weighting's stats, chunk by chunk
        density, px, py, pz, energy = _estimates(sizes, list(stats), weight)
        rates.append(MomentRates(density=density, momentum=(px, py, pz), energy=energy))
    return rates
