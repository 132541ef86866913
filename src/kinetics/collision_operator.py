"""Monte Carlo evaluation of the binary-collision rate of change of f.

The rate at a probe velocity v is the integral over partner velocities and
impact directions of ``(G f'f1' - f f1) * (1/4) d^2 |(v - v1) . n|`` where
the primed values are taken at the pre-collision pair that maps onto
(v, v1). Two gain weightings G are supported: the restitution-weighted form
(G = eps) and the standard granular one (G = 1/eps^2); they coincide at
eps = 1.

Partners are drawn uniformly over the grid hull and directions uniformly on
the full sphere, so the estimator weight is hull_volume * 4 pi. Each draw maps
uniforms in [0, 1): a velocity is -vmax + 2 vmax u (numpy's uniform), and
_directions takes (u, phi) to z = 1 - 2u at azimuth 2 pi phi, so a sample takes
a fixed 3 uniforms per velocity plus 2 per direction. Streams are counter-based
and keyed per probe, which makes results independent of how probes are
scheduled across workers.

Samples are drawn in chunks of _CHUNK, the one batch: a chunk fixes the
stream order and the per-chunk statistics, and every per-sample step runs over
the whole chunk, so its temporaries stay cache-sized while each numpy call
does enough work between releases of the interpreter lock.
"""

from __future__ import annotations

import enum
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .collision_kernel import CollisionBranch, _dot3, transform_velocities
from .distribution import DiscreteDistribution, interpolate, interpolate_many
from .errors import (NonFiniteEstimate, require_count, require_finite, require_items,
                     require_member, require_nonnegative, require_positive, require_restitution,
                     require_vector3)

# Measured on 2 cores, 2^20 samples and 4 weightings on a 61^3 grid: moment_rates
# took 1.15x the time at 2 threads with 1 << 13 (shorter calls between releases
# of the interpreter lock), and 1.3x at 1 thread with 1 << 15 (twice the temporaries).
_CHUNK = 1 << 14
_RESCALE_ABOVE = 2.0**500  # past this |deviation|, M2 squares it rescaled by a power of two


class GainNormalization(enum.Enum):
    """Weight applied to the gain term; QuadratureSpec defaults to RESTITUTION_WEIGHTED."""

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
        require_count("seed", self.seed, -math.inf)
        require_positive("diameter", self.diameter)
        require_positive("mass", self.mass)
        require_restitution("epsilon", self.epsilon)
        require_member("branch", self.branch, CollisionBranch)
        require_member("normalization", self.normalization, GainNormalization)

    @property
    def cross_section(self) -> float:
        return 0.25 * self.diameter**2


@dataclass(frozen=True)
class RateEstimate:
    """Monte Carlo mean and standard error, in units of f per second."""

    value: float
    std_error: float

    def __post_init__(self) -> None:
        require_finite("value", self.value)
        require_nonnegative("std_error", self.std_error)


@dataclass(frozen=True)
class MomentRates:
    density: RateEstimate
    momentum: tuple[RateEstimate, RateEstimate, RateEstimate]
    energy: RateEstimate


def _map(fn, tasks: list, threads: int) -> list:
    """[fn(task) for task in tasks] on at most min(threads, tasks, cores) workers."""
    require_count("threads", threads, 1)
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(task) for task in tasks]
    state = np.geterr()  # the caller's, which worker threads do not inherit

    def run(task):
        with np.errstate(**state):
            return fn(task)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, tasks))


def _directions(u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(m, 3) rows exactly uniform on the unit sphere: z = 1 - 2u at azimuth 2 pi phi."""
    radius = 2.0 * np.sqrt(u * (1.0 - u))  # sqrt(1 - z^2) without cancellation
    azimuth = 2.0 * np.pi * phi
    n = np.empty((len(u), 3))  # filled in place: the peak is n, radius and azimuth
    np.multiply(radius, np.cos(azimuth, out=n[:, 0]), out=n[:, 0])
    np.multiply(radius, np.sin(azimuth, out=n[:, 1]), out=n[:, 1])
    np.subtract(1.0, np.multiply(2.0, u, out=n[:, 2]), out=n[:, 2])
    return n


def _chunk_sizes(total: int) -> list[int]:
    sizes = [_CHUNK] * (total // _CHUNK)
    if total % _CHUNK:
        sizes.append(total % _CHUNK)
    return sizes


def _exponents(deviations: np.ndarray) -> np.ndarray:
    """The one rescale rule: frexp exponent of max |deviation| past _RESCALE_ABOVE, else 0."""
    peak = np.maximum(np.max(deviations, axis=-1), -np.min(deviations, axis=-1))
    return np.where(peak > _RESCALE_ABOVE, np.frexp(peak)[1], 0)


def _sum_and_m2(samples: np.ndarray) -> np.ndarray:
    """Sums, M2s (squared deviations from the mean) times 4^-e, and e, along the last axis."""
    sums = np.sum(samples, axis=-1)
    deviations = samples - (sums / samples.shape[-1])[..., None]  # the one temporary
    exponents = _exponents(deviations)
    if np.any(exponents):
        np.ldexp(deviations, -exponents[..., None], out=deviations)
    deviations *= deviations
    return np.stack([sums, np.sum(deviations, axis=-1), exponents])


def _mean_and_sem(sizes, sums, m2s, exponents) -> tuple[np.ndarray, np.ndarray]:
    """Means and standard errors from per-chunk counts, sums, M2s and M2 exponents.

    Chunks run along the last axis. The M2s merge by the two-level form of Chan, Golub
    & LeVeque (1979), M2 = sum M2_i + sum n_i (mean_i - mean)^2, which, unlike
    sum(x^2) - n mean^2, does not cancel when |mean| dwarfs the spread. Both sums are
    taken times 4^-scale, scale the largest of the chunk and the gap exponents.
    """
    sizes, exponents = np.asarray(sizes), np.asarray(exponents, dtype=int)
    total = np.sum(sizes)
    mean = np.sum(sums, axis=-1) / total
    gaps = sums / sizes - mean[..., None]
    scale = np.maximum(np.max(exponents, axis=-1), _exponents(gaps))[..., None]
    gaps = np.ldexp(gaps, -scale)
    m2 = np.sum(np.ldexp(m2s, 2 * (exponents - scale)), axis=-1) + np.sum(sizes * gaps**2, axis=-1)
    return mean, np.ldexp(np.sqrt(m2 / (total - 1) / total), scale[..., 0])


def _estimates(sizes: list[int], partials: list[np.ndarray], weight: float) -> list[RateEstimate]:
    """Weighted RateEstimates, one per component of the per-chunk _sum_and_m2 results.

    A non-finite estimate (overflow or NaN) raises NonFiniteEstimate, a numerical failure.
    """
    stats = np.stack(partials, axis=-1).reshape(3, -1, len(sizes))  # (sum|M2|exp, comp, chunk)
    values, errors = ((weight * part).tolist() for part in _mean_and_sem(sizes, *stats))
    finite = np.isfinite(values) & np.isfinite(errors)
    if not finite.all():
        first = int(np.argmin(finite))
        raise NonFiniteEstimate(
            f"rate estimate is not finite: {values[first]!r} +/- {errors[first]!r}")
    return list(map(RateEstimate, values, errors))


def pre_collision_pair(v, v1, n, epsilon: float, branch: CollisionBranch):
    """Pre-collision velocities of the pair that the impact maps onto (v, v1).

    The inverse rule is the same rule at restitution 1/epsilon, here for equal
    masses; broadcastable over (..., 3) arrays.
    """
    return transform_velocities(v, v1, n, 1.0 / epsilon, branch, 1.0, 1.0)


def evaluate_at(f: DiscreteDistribution, v, spec: QuadratureSpec) -> RateEstimate:
    """Collision rate of change of f at one probe velocity, with error bar."""
    v = require_vector3("v", v)
    # keyed by the probe's bit pattern, so equal probes share one stream
    generator = rng.stream(spec.seed, "operator-node", rng.derive_key(0, *v))
    vmax = f.grid.vmax
    gain = spec.normalization.gain_factor(spec.epsilon)
    f_probe = interpolate(f, v)
    sizes = _chunk_sizes(spec.samples)
    stats = []
    for size in sizes:
        v1 = generator.uniform(-vmax, vmax, (size, 3))
        n = _directions(*generator.random((2, size)))
        # for a probe far past the hull, the integrand is 0 where the f terms vanish
        with np.errstate(over="ignore", invalid="ignore"):
            pre_a, pre_b = pre_collision_pair(v[None, :], v1, n, spec.epsilon, spec.branch)
            integrand = np.abs(_dot3(v[None, :] - v1, n))
            f_terms = gain * interpolate_many(f, pre_a)  # G f'f1' - f f1, in place
            f_terms *= interpolate_many(f, pre_b)
            f_terms -= f_probe * interpolate_many(f, v1)
            integrand *= f_terms
            np.copyto(integrand, 0.0, where=f_terms == 0.0)
            stats.append(_sum_and_m2(integrand))
    weight = f.grid.hull_volume * 4.0 * np.pi * spec.cross_section
    return _estimates(sizes, stats, weight)[0]


def evaluate_field(f: DiscreteDistribution, nodes, spec: QuadratureSpec,
                   threads: int = 1) -> list[RateEstimate]:
    """evaluate_at over many probes; bitwise equal at any worker count."""
    return _map(lambda node: evaluate_at(f, node, spec), require_items("nodes", nodes), threads)


def _moment_chunk(f: DiscreteDistribution, spec: QuadratureSpec, weightings: list,
                  chunk_index: int, size: int) -> list[np.ndarray]:
    """Per (epsilon, G) weighting, _sum_and_m2 of the five weak-form integrands of one chunk.

    The draws and lookups depend only on spec's seed, so every weighting shares them:
    gn, the lookup product, the pair energy and v + v1 are computed once per sample,
    the rest per weighting.
    """
    generator = rng.stream(spec.seed, "operator-moments", chunk_index)
    vmax = f.grid.vmax
    v = generator.uniform(-vmax, vmax, (size, 3))
    v1 = generator.uniform(-vmax, vmax, (size, 3))
    gn = _dot3(v1 - v, _directions(*generator.random((2, size))))
    base = 0.5 * interpolate_many(f, v) * interpolate_many(f, v1) * np.abs(gn)
    mass, mu = spec.mass, 0.5 * spec.mass
    pair_ke = 0.5 * mass * (_dot3(v, v) + _dot3(v1, v1))
    v_sum = np.add(v, v1, out=v)  # v and v1 are not read again
    del v, v1
    stats = []
    integrands, scratch = np.empty((5, size)), np.empty(size)  # refilled per weighting
    for epsilon, norm in weightings:
        ge2 = norm.gain_factor(epsilon) * epsilon**2
        np.multiply(base, 2.0 * ge2 - 2.0, out=integrands[0])
        np.multiply(base, ge2 - 1.0, out=scratch)
        scratch *= mass
        np.multiply(scratch, v_sum.T, out=integrands[1:4])
        np.multiply(gn, 0.5 * (1.0 - epsilon**2) * mu, out=scratch)
        scratch *= gn
        scratch *= ge2  # the energy deficit times G eps^2
        np.multiply(pair_ke, ge2 - 1.0, out=integrands[4])
        integrands[4] -= scratch
        integrands[4] *= base
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
    weightings = [(require_restitution("epsilon", epsilon),  # QuadratureSpec's rules
                   require_member("normalization", norm, GainNormalization))
                  for epsilon, norm in require_items("weightings", weightings, 2)]
    sizes = _chunk_sizes(spec.samples)
    partials = _map(lambda task: _moment_chunk(f, spec, weightings, *task),
                    list(enumerate(sizes)), threads)
    weight = f.grid.hull_volume**2 * 4.0 * np.pi * spec.cross_section
    rates = []
    for stats in zip(*partials):  # one weighting's stats, chunk by chunk
        density, px, py, pz, energy = _estimates(sizes, list(stats), weight)
        rates.append(MomentRates(density=density, momentum=(px, py, pz), energy=energy))
    return rates
