"""Velocity-grid distributions: builds, interpolation, and their moments."""

import math
import re
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from conftest import UNIT_MASS
from kinetics.constants import BOLTZMANN
from kinetics.distribution import (
    DiscreteDistribution,
    VelocityGrid,
    bimodal,
    interpolate,
    interpolate_many,
    maxwellian,
)
from kinetics.errors import UnderResolved

GRID = VelocityGrid(vmax=6.5, nodes_per_axis=53)


class Moments(NamedTuple):
    density: float
    momentum: np.ndarray
    kinetic_energy: float


def moments(f: DiscreteDistribution, mass: float) -> Moments:
    """Node-weight sums: density, momentum, kinetic energy per volume."""
    h3 = f.grid.spacing**3
    ax = f.grid.axis
    density = float(np.sum(f.values)) * h3
    px = float(np.sum(f.values * ax[:, None, None]))
    py = float(np.sum(f.values * ax[None, :, None]))
    pz = float(np.sum(f.values * ax[None, None, :]))
    momentum = mass * h3 * np.array([px, py, pz])
    sq = (ax**2)[:, None, None] + (ax**2)[None, :, None] + (ax**2)[None, None, :]
    kinetic = 0.5 * mass * h3 * float(np.sum(f.values * sq))
    return Moments(density=density, momentum=momentum, kinetic_energy=kinetic)


def test_maxwellian_density_and_momentum_moments():
    f = maxwellian(GRID, density=1.0, bulk_velocity=(0.5, 0.0, 0.0),
                   temperature=1.0, mass=UNIT_MASS)
    m = moments(f, UNIT_MASS)
    assert m.density == pytest.approx(1.0, abs=1e-6)
    np.testing.assert_allclose(m.momentum, UNIT_MASS * np.array([0.5, 0.0, 0.0]),
                               atol=1e-6 * UNIT_MASS)


def test_maxwellian_energy_moment_equipartition():
    f = maxwellian(GRID, density=1.0, bulk_velocity=(0.0, 0.0, 0.0),
                   temperature=1.0, mass=UNIT_MASS)
    m = moments(f, UNIT_MASS)
    assert m.kinetic_energy == pytest.approx(1.5 * BOLTZMANN, rel=1e-5)


def test_maxwellian_is_symmetric_at_zero_drift():
    f = maxwellian(GRID, density=1.0, bulk_velocity=(0.0, 0.0, 0.0),
                   temperature=1.0, mass=UNIT_MASS)
    np.testing.assert_array_equal(f.values, f.values[::-1, ::-1, ::-1])


def test_maxwellian_truncation_error_decreases_with_refinement():
    errors = []
    for vmax, nodes in ((5.0, 41), (6.0, 49), (7.0, 57)):
        grid = VelocityGrid(vmax=vmax, nodes_per_axis=nodes)
        f = maxwellian(grid, density=1.0, bulk_velocity=(0.0, 0.0, 0.0),
                       temperature=1.0, mass=UNIT_MASS)
        errors.append(abs(moments(f, UNIT_MASS).density - 1.0))
    assert errors[0] > errors[1] > errors[2]


def test_maxwellian_resolution_preconditions():
    with pytest.raises(UnderResolved):
        maxwellian(VelocityGrid(vmax=6.0, nodes_per_axis=9), 1.0, (0, 0, 0), 1.0,
                   UNIT_MASS)
    with pytest.raises(UnderResolved):
        maxwellian(VelocityGrid(vmax=3.0, nodes_per_axis=41), 1.0, (0, 0, 0), 1.0,
                   UNIT_MASS)
    with pytest.raises(UnderResolved):
        # drift pushes the required extent past vmax
        maxwellian(VelocityGrid(vmax=5.0, nodes_per_axis=41), 1.0, (2.0, 0, 0), 1.0,
                   UNIT_MASS)


def test_maxwellian_invalid_parameters():
    for kwargs in ({"density": 0.0}, {"temperature": -1.0}, {"mass": 0.0}):
        full = {"density": 1.0, "bulk_velocity": (0, 0, 0), "temperature": 1.0,
                "mass": UNIT_MASS}
        full.update(kwargs)
        with pytest.raises(ValueError):
            maxwellian(GRID, **full)


def test_bimodal_mirrored_modes_cancel_momentum():
    f = bimodal(GRID, 0.5, (1.5, 0, 0), 1.0, 0.5, (-1.5, 0, 0), 1.0, UNIT_MASS)
    m = moments(f, UNIT_MASS)
    np.testing.assert_allclose(m.momentum, 0.0, atol=1e-9 * UNIT_MASS)


def test_bimodal_zero_density_mode_degenerates():
    f_single = maxwellian(GRID, 0.7, (1.0, 0, 0), 1.0, UNIT_MASS)
    f_degenerate = bimodal(GRID, 0.7, (1.0, 0, 0), 1.0, 0.0, (9.0, 9.0, 9.0), 1.0,
                           UNIT_MASS)
    np.testing.assert_array_equal(f_degenerate.values, f_single.values)


@pytest.mark.parametrize("mode", [1, 2])
def test_bimodal_rejects_a_negative_mode_density_by_name(mode):
    for bad in (-0.5, math.nan):  # NaN is named too, not left to the finiteness check
        density1, density2 = (bad, 0.5) if mode == 1 else (0.5, bad)
        with pytest.raises(ValueError,
                           match=f"^density{mode} must be nonnegative and finite, "
                                 f"got {re.escape(str(bad))}$"):
            bimodal(GRID, density1, (1.0, 0, 0), 1.0, density2, (-1.0, 0, 0), 1.0, UNIT_MASS)


@pytest.mark.parametrize("mode", [1, 2])
def test_bimodal_checks_a_zero_density_mode_by_name(mode):
    # a skipped mode's velocity shape and temperature are still checked
    def build(u, temperature):
        other = ((0.0, u, temperature), (1.0, (0, 0, 0), 1.0))
        (d1, u1, t1), (d2, u2, t2) = other if mode == 1 else other[::-1]
        return bimodal(GRID, d1, u1, t1, d2, u2, t2, UNIT_MASS)

    with pytest.raises(ValueError, match=rf"^u{mode} must have shape \(3,\), got \(1, 2\)$"):
        build([[1, 2]], 1.0)
    for bad in (math.nan, 0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match=f"^temperature{mode} must be positive and finite"):
            build((0, 0, 0), bad)
    with pytest.raises(ValueError, match=f"^temperature{mode} must be positive and finite"):
        build([[1, 2]], math.nan)  # temperature first, as for a mode with density


def test_bimodal_moments_are_mode_sums():
    f = bimodal(GRID, 0.6, (1.0, 0, 0), 1.0, 0.4, (-0.5, 0.5, 0), 1.3, UNIT_MASS)
    m = moments(f, UNIT_MASS)
    assert m.density == pytest.approx(1.0, abs=1e-6)
    expected_momentum = UNIT_MASS * (0.6 * np.array([1.0, 0, 0])
                                     + 0.4 * np.array([-0.5, 0.5, 0]))
    np.testing.assert_allclose(m.momentum, expected_momentum, atol=1e-6 * UNIT_MASS)


GAUSSIAN_BUILDS = {
    "maxwellian": lambda grid: maxwellian(grid, 1.0, (0.5, 0, 0), 1.0, UNIT_MASS),
    "bimodal": lambda grid: bimodal(grid, 0.5, (1.5, 0, 0), 1.0, 0.5, (-1.5, 0, 0), 1.0,
                                    UNIT_MASS),
}


# peak grids a build may hold: the grid it hands over, adopted without a copy, plus
# bimodal's one-mode temporary; validation allocates no full-size mask
GAUSSIAN_BUILD_PEAK_GRIDS = {"maxwellian": 1.1, "bimodal": 2.1}


@pytest.mark.parametrize("kind", sorted(GAUSSIAN_BUILDS))
def test_gaussian_build_peak_memory_is_the_grids_it_builds(kind):
    # numpy reports its buffers to tracemalloc
    grid = VelocityGrid(vmax=8.0, nodes_per_axis=101)
    grid_bytes = 8 * grid.nodes_per_axis**3
    grid.axis  # cached before tracing
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        GAUSSIAN_BUILDS[kind](grid)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= GAUSSIAN_BUILD_PEAK_GRIDS[kind] * grid_bytes, (
        f"peak {peak / grid_bytes:.2f} grids")


def test_moments_zero_distribution():
    f = DiscreteDistribution(GRID, np.zeros((53, 53, 53)))
    m = moments(f, UNIT_MASS)
    assert m.density == 0.0
    assert np.all(m.momentum == 0.0)
    assert m.kinetic_energy == 0.0


def test_moments_linear_in_f():
    f = maxwellian(GRID, 1.0, (0.3, -0.2, 0.1), 1.0, UNIT_MASS)
    scaled = DiscreteDistribution(GRID, 4.0 * f.values)
    m1 = moments(f, UNIT_MASS)
    m4 = moments(scaled, UNIT_MASS)
    assert m4.density == 4.0 * m1.density
    np.testing.assert_array_equal(m4.momentum, 4.0 * m1.momentum)
    assert m4.kinetic_energy == 4.0 * m1.kinetic_energy


def test_interpolate_at_nodes_is_bit_exact():
    f = maxwellian(GRID, 1.0, (0.2, 0.1, -0.3), 1.0, UNIT_MASS)
    ax = GRID.axis
    rng = np.random.default_rng(10)
    indices = rng.integers(0, GRID.nodes_per_axis, (50, 3))
    indices[0] = [0, 0, 0]
    indices[1] = [52, 52, 52]
    indices[2] = [52, 0, 26]
    for i, j, l in indices:
        assert interpolate(f, (ax[i], ax[j], ax[l])) == f.values[i, j, l]


def test_interpolate_outside_hull_is_zero():
    f = maxwellian(GRID, 1.0, (0, 0, 0), 1.0, UNIT_MASS)
    assert interpolate(f, (7.0, 0.0, 0.0)) == 0.0
    assert interpolate(f, (0.0, -6.5000001, 0.0)) == 0.0
    assert interpolate(f, (100.0, 100.0, 100.0)) == 0.0


def test_interpolate_reproduces_affine_fields():
    vals = (2.0 * GRID.axis[:, None, None] + 3.0 * GRID.axis[None, :, None]
            - 1.0 * GRID.axis[None, None, :] + 45.0)
    vals = np.broadcast_to(vals, (53, 53, 53)).copy()
    f = DiscreteDistribution(GRID, vals)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-6.4, 6.4, (200, 3))
    got = interpolate_many(f, pts)
    want = 2.0 * pts[:, 0] + 3.0 * pts[:, 1] - 1.0 * pts[:, 2] + 45.0
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * 90)


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution(GRID, np.zeros((3, 3, 3)))
    bad = np.zeros((53, 53, 53))
    bad[0, 0, 0] = -1.0
    with pytest.raises(ValueError):
        DiscreteDistribution(GRID, bad)
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        DiscreteDistribution(GRID, bad)
    with pytest.raises(ValueError):
        VelocityGrid(vmax=-1.0, nodes_per_axis=8)
    with pytest.raises(ValueError):
        VelocityGrid(vmax=1.0, nodes_per_axis=3)


# 10^5 nodes need 8 * 10^15 bytes and 2^21 more bytes than an index holds, so
# neither allocates on any machine; the failure names the key and the bytes,
# counted without int64 overflow for a numpy integer count
@pytest.mark.parametrize("n", [10**5, 2**21, np.int64(2**21)])
@pytest.mark.parametrize("build", [
    lambda grid: maxwellian(grid, 1.0, (0, 0, 0), 1.0, UNIT_MASS),
    lambda grid: bimodal(grid, 0.5, (1, 0, 0), 1.0, 0.5, (-1, 0, 0), 1.0, UNIT_MASS),
], ids=["maxwellian", "bimodal"])
def test_grid_array_too_large_to_allocate_is_named(build, n):
    with pytest.raises(MemoryError, match=f"^nodes_per_axis {n} needs {8 * int(n)**3} bytes "):
        build(VelocityGrid(vmax=6.0, nodes_per_axis=n))
