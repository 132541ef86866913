"""In-place Gaussian builds against the expression they replace.

``_reference_gaussian_values`` is the former body of
``distribution._gaussian_values``, kept here verbatim as the reference, and
``_reference_bimodal`` the former mode sum of ``distribution.bimodal``. The
package's ``maxwellian`` and ``bimodal`` must give the same bits on odd and
even grids, at several drifts, temperatures and masses.
"""

import numpy as np
import pytest

from conftest import UNIT_MASS
from kinetics.constants import BOLTZMANN
from kinetics.distribution import VelocityGrid, bimodal, maxwellian

ARGON_MASS = 6.6335209e-26  # kg


def _reference_gaussian_values(grid: VelocityGrid, density: float, bulk_velocity: np.ndarray,
                               temperature: float, mass: float) -> np.ndarray:
    ax = grid.axis
    dx = ax - bulk_velocity[0]
    dy = ax - bulk_velocity[1]
    dz = ax - bulk_velocity[2]
    sq = (dx**2)[:, None, None] + (dy**2)[None, :, None] + (dz**2)[None, None, :]
    kt = BOLTZMANN * temperature
    coef = density * (mass / (2.0 * np.pi * kt)) ** 1.5
    return coef * np.exp(-0.5 * mass * sq / kt)


def _reference_bimodal(grid, modes, mass):
    total = np.zeros((grid.nodes_per_axis,) * 3)
    for density, u, temperature in modes:
        if density == 0.0:
            continue
        u = np.asarray(u, dtype=np.float64).reshape(3)
        total += _reference_gaussian_values(grid, density, u, temperature, mass)
    return total


# (grid, density, drift, temperature, mass); each passes the resolution check.
MAXWELLIAN_CASES = [
    (VelocityGrid(5.0, 31), 1.0, (0.0, 0.0, 0.0), 1.0, UNIT_MASS),
    (VelocityGrid(6.5, 53), 0.7, (0.5, -0.25, 0.125), 1.0, UNIT_MASS),
    (VelocityGrid(6.0, 40), 2.5e3, (-1.1, 0.3, 0.9), 0.6, 0.5 * UNIT_MASS),
    (VelocityGrid(9.0, 64), 1e-7, (0.0, 2.0, 0.0), 2.0, UNIT_MASS),
    (VelocityGrid(1500.0, 61), 1e20, (120.0, 0.0, -40.0), 300.0, ARGON_MASS),
]

BIMODAL_CASES = [
    (VelocityGrid(6.5, 53), ((0.5, (1.5, 0, 0), 1.0), (0.5, (-1.5, 0, 0), 1.0)), UNIT_MASS),
    (VelocityGrid(8.0, 58), ((0.6, (1.0, 0, 0), 1.0), (0.4, (-0.5, 0.5, 0), 1.3)), UNIT_MASS),
    (VelocityGrid(6.5, 53), ((0.7, (1.0, 0, 0), 1.0), (0.0, (9.0, 9.0, 9.0), 1.0)), UNIT_MASS),
    (VelocityGrid(6.5, 52), ((0.0, (0, 0, 0), 1.0), (1.3, (0.2, 0.1, -0.3), 0.8)), UNIT_MASS),
    (VelocityGrid(2000.0, 73), ((3e19, (300.0, 0, 0), 250.0), (7e19, (-200.0, 50.0, 0), 400.0)),
     ARGON_MASS),
]


def _assert_bits_equal(actual, expected):
    assert actual.shape == expected.shape
    mismatched = np.flatnonzero(actual.view(np.uint64) != expected.view(np.uint64))
    assert mismatched.size == 0, f"{mismatched.size} values differ in their bits"


@pytest.mark.parametrize("grid, density, drift, temperature, mass", MAXWELLIAN_CASES)
def test_maxwellian_matches_reference_bit_for_bit(grid, density, drift, temperature, mass):
    f = maxwellian(grid, density, drift, temperature, mass)
    expected = _reference_gaussian_values(grid, density, np.asarray(drift, dtype=np.float64),
                                          temperature, mass)
    _assert_bits_equal(f.values, expected)


@pytest.mark.parametrize("grid, modes, mass", BIMODAL_CASES)
def test_bimodal_matches_reference_bit_for_bit(grid, modes, mass):
    (d1, u1, t1), (d2, u2, t2) = modes
    f = bimodal(grid, d1, u1, t1, d2, u2, t2, mass)
    _assert_bits_equal(f.values, _reference_bimodal(grid, modes, mass))
