"""Chunk-wide estimator against the bodies its rewrites replaced.

``_reference_sum_and_m2`` and ``_reference_evaluate_at`` are the former bodies
of ``collision_operator._sum_and_m2`` and ``evaluate_at``, kept here verbatim
as the reference, except that the lookups call the searchsorted
``_reference_interpolate_many`` and the directions come from
``_reference_unit_sphere``: the direction map of two uniforms, z = 1 - 2u at
azimuth 2 pi phi, written out column by column. Like the current code, each
per-sample step there spans a whole ``_CHUNK``; the current code writes the
lookups, the integrand and M2 differently, so it must give the same bits on
either side of a chunk boundary, for a probe far past the hull, and at any
worker count.
"""

import numpy as np
import pytest

from conftest import UNIT_MASS
from test_interpolation_reference import _reference_interpolate_many
from kinetics import collision_operator, rng
from kinetics.collision_kernel import CollisionBranch, _dot3
from kinetics.collision_operator import (
    GainNormalization,
    QuadratureSpec,
    _CHUNK,
    _chunk_sizes,
    _estimates,
    evaluate_field,
    pre_collision_pair,
)
from kinetics.distribution import VelocityGrid, bimodal, interpolate
from kinetics.errors import require_vector3

_RESCALE_ABOVE = collision_operator._RESCALE_ABOVE


def _reference_unit_sphere(generator: np.random.Generator, count: int) -> np.ndarray:
    u, phi = generator.random((2, count))
    z = 1.0 - 2.0 * u
    r = 2.0 * np.sqrt(u * (1.0 - u))
    n = np.empty((count, 3))
    n[:, 0] = r * np.cos(2.0 * np.pi * phi)
    n[:, 1] = r * np.sin(2.0 * np.pi * phi)
    n[:, 2] = z
    return n


def _reference_sum_and_m2(samples: np.ndarray) -> np.ndarray:
    sums = np.sum(samples, axis=-1)
    deviations = samples - (sums / samples.shape[-1])[..., None]
    peak = np.max(np.abs(deviations), axis=-1)
    exponents = np.where(peak > _RESCALE_ABOVE, np.frexp(peak)[1], 0)
    if np.any(exponents):
        deviations = np.ldexp(deviations, -exponents[..., None])
    return np.stack([sums, np.sum(deviations * deviations, axis=-1), exponents])


def _reference_evaluate_at(f, v, spec):
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
        n = _reference_unit_sphere(generator, size)
        # for a probe far past the hull, the integrand is 0 where the f terms vanish
        with np.errstate(over="ignore", invalid="ignore"):
            pre_a, pre_b = pre_collision_pair(v[None, :], v1, n, spec.epsilon, spec.branch)
            gn = _dot3(v[None, :] - v1, n)
            f_terms = (gain * _reference_interpolate_many(f, pre_a)
                       * _reference_interpolate_many(f, pre_b)
                       - f_probe * _reference_interpolate_many(f, v1))
            integrand = np.abs(gn)
            integrand *= f_terms
            integrand[f_terms == 0.0] = 0.0
            stats.append(_reference_sum_and_m2(integrand))
    weight = f.grid.hull_volume * 4.0 * np.pi * spec.cross_section
    return _estimates(sizes, stats, weight)[0]


def _bits(estimates) -> list[tuple[int, int]]:
    return [tuple(np.array([e.value, e.std_error]).view(np.uint64)) for e in estimates]


# a mode centre, an off-axis point, a hull corner and a probe far past the hull
PROBES = [(2.0, 0.0, 0.0), (0.5, 0.3, -0.1), (6.0, -6.0, 6.0), (1e200, 0.0, 0.0)]


@pytest.mark.parametrize("samples", [2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 17])
@pytest.mark.parametrize("branch", list(CollisionBranch))
def test_evaluate_at_matches_whole_chunk_reference(samples, branch):
    f = bimodal(VelocityGrid(vmax=6.0, nodes_per_axis=41), 0.5, (2, 0, 0), 1.0,
                0.5, (-2, 0, 0), 1.0, UNIT_MASS)
    spec = QuadratureSpec(samples=samples, seed=5, diameter=1.0, mass=UNIT_MASS,
                          epsilon=0.9, branch=branch,
                          normalization=GainNormalization.STANDARD_GRANULAR)
    reference = _bits(_reference_evaluate_at(f, probe, spec) for probe in PROBES)
    for threads in (1, 2):
        assert _bits(evaluate_field(f, PROBES, spec, threads=threads)) == reference


def test_sum_and_m2_matches_reference_on_rows_that_rescale():
    generator = np.random.default_rng(17)
    rows = generator.standard_normal((6, 2 * _CHUNK))
    rows[1] *= 1e300  # past the rescale threshold
    rows[2] = 3.0  # no spread
    rows[3, ::7] = -0.0
    rows[4, 5] = np.inf
    rows[5, 9] = np.nan
    with np.errstate(all="ignore"):
        got = collision_operator._sum_and_m2(rows)
        want = _reference_sum_and_m2(rows)
        got_row = collision_operator._sum_and_m2(rows[1])
        want_row = _reference_sum_and_m2(rows[1])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    np.testing.assert_array_equal(got_row.view(np.uint64), want_row.view(np.uint64))
