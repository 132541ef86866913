"""The wave-vectorized DSMC step against a one-candidate-at-a-time sweep.

The reference below is the scalar no-time-counter loop: Python-list velocity
columns, candidates applied in draw order, and a journal that unwinds a
pierced attempt. Its rows are sampled by ``_reference_moments``, whose
arithmetic is a former body of ``dsmc.moments``, with the temperature taken
from the peculiar velocities v - mean(v) as the package takes it; it still
takes molecules per particle and a volume, which for an ensemble filling a
unit volume are number_density / N and 1. Its kinetic energy, which the
package does not report, serves the acceptance energy-rate oracle. The
package must reproduce its rows, final velocities and single steps bit for
bit, and ``dsmc.moments`` must report the density it is given.
"""

import math

import numpy as np
import pytest

from conftest import UNIT_MASS
from kinetics import dsmc, rng
from kinetics.collision_kernel import CollisionBranch
from kinetics.constants import BOLTZMANN
from kinetics.dsmc import Species
from kinetics.errors import MajorantExceeded

SPECIES = Species(mass=UNIT_MASS, diameter=1.0)


class _Columns:
    """Velocity columns as Python lists plus the largest speed^2 at the last refresh."""

    def __init__(self, velocities):
        self.vx = velocities[:, 0].tolist()
        self.vy = velocities[:, 1].tolist()
        self.vz = velocities[:, 2].tolist()
        self.count = velocities.shape[0]
        self.pierced = 0

    def refresh_bound(self):
        arr = self.as_array()
        self.bound_sq = float(np.max(np.sum(arr * arr, axis=1)))

    def as_array(self):
        return np.column_stack([self.vx, self.vy, self.vz])


def _scalar_attempt(state, config, weight, volume, generator, majorant):
    n = state.count
    expected = (0.5 * n * (n - 1) * weight * math.pi * SPECIES.diameter**2
                * majorant * config.dt / volume)
    n_candidates = int(math.floor(expected + generator.uniform()))
    if n_candidates == 0:
        return True
    first = generator.integers(0, n, n_candidates)
    second = generator.integers(0, n - 1, n_candidates)
    second = second + (second >= first)
    normals = generator.standard_normal((n_candidates, 3))
    uniforms = generator.uniform(0.0, 1.0, n_candidates)
    first_l = first.tolist()
    second_l = second.tolist()
    nx_l, ny_l, nz_l = (normals[:, 0].tolist(), normals[:, 1].tolist(),
                        normals[:, 2].tolist())
    u_l = uniforms.tolist()
    vx, vy, vz = state.vx, state.vy, state.vz
    factor = 0.5 * config.branch.normal_factor(config.epsilon)
    majorant_sq = majorant * majorant
    journal = []
    sqrt = math.sqrt
    for k in range(n_candidates):
        i = first_l[k]
        j = second_l[k]
        gx = vx[j] - vx[i]
        gy = vy[j] - vy[i]
        gz = vz[j] - vz[i]
        g_sq = gx * gx + gy * gy + gz * gz
        if g_sq > majorant_sq:
            for i, j, x1, y1, z1, x2, y2, z2 in reversed(journal):
                vx[i] = x1
                vy[i] = y1
                vz[i] = z1
                vx[j] = x2
                vy[j] = y2
                vz[j] = z2
            state.pierced += 1
            return False
        nx = nx_l[k]
        ny = ny_l[k]
        nz = nz_l[k]
        norm = sqrt(nx * nx + ny * ny + nz * nz)
        if norm < 1e-300:
            continue
        gn = (gx * nx + gy * ny + gz * nz) / norm
        if u_l[k] * majorant >= abs(gn):
            continue
        journal.append((i, j, vx[i], vy[i], vz[i], vx[j], vy[j], vz[j]))
        impulse = factor * gn / norm
        ix = impulse * nx
        iy = impulse * ny
        iz = impulse * nz
        wx1 = vx[i] + ix
        wy1 = vy[i] + iy
        wz1 = vz[i] + iz
        wx2 = vx[j] - ix
        wy2 = vy[j] - iy
        wz2 = vz[j] - iz
        vx[i] = wx1
        vy[i] = wy1
        vz[i] = wz1
        vx[j] = wx2
        vy[j] = wy2
        vz[j] = wz2
    return True


def _scalar_step(state, config, weight, volume, step_index):
    generator = rng.stream(config.seed, "dsmc-step", step_index)
    state.refresh_bound()  # every step takes its bound afresh from the velocities
    majorant = max(config.majorant_relative_speed, 2.0 * math.sqrt(state.bound_sq))
    for _ in range(dsmc._MAJORANT_RETRIES):
        if _scalar_attempt(state, config, weight, volume, generator, majorant):
            return
        majorant *= 2.0
    raise MajorantExceeded("reference sweep exhausted its majorant doublings")


def _reference_moments(v, m, w, volume):
    n = v.shape[0]
    density = n * w / volume
    momentum = m * w * np.sum(v, axis=0) / volume
    kinetic = 0.5 * m * w * float(np.sum(v * v)) / volume
    peculiar = v - np.mean(v, axis=0)
    peculiar_sq = float(np.mean(np.sum(peculiar * peculiar, axis=1)))
    temperature = m * peculiar_sq / (3.0 * BOLTZMANN)
    return density, momentum, kinetic, temperature


def _sample(t, state, weight, volume):
    density, momentum, _, temperature = _reference_moments(state.as_array(), SPECIES.mass,
                                                           weight, volume)
    return [t, density, momentum[0], momentum[1], momentum[2], temperature]


def _unit_volume(ensemble, config):
    """(molecules per particle, volume) of an ensemble filling a unit volume."""
    return config.number_density / ensemble.count, 1.0


def reference_run(ensemble, config, n_steps, sample_every):
    """(rows, final velocities, pierced attempts) of the scalar sweep."""
    state = _Columns(ensemble.velocities)
    weight, volume = _unit_volume(ensemble, config)
    rows = [_sample(0.0, state, weight, volume)]
    for index in range(n_steps):
        _scalar_step(state, config, weight, volume, index)
        if (index + 1) % sample_every == 0:
            rows.append(_sample((index + 1) * config.dt, state, weight, volume))
    return np.array(rows), state.as_array(), state.pierced


def reference_step(ensemble, config, step_index):
    state = _Columns(ensemble.velocities)
    _scalar_step(state, config, *_unit_volume(ensemble, config), step_index)
    return state.as_array(), state.pierced


def _maxwellian_n2000():
    ensemble = dsmc.sample_maxwellian_ensemble(2000, SPECIES, (0.2, 0.0, 0.0),
                                               1.0, seed=21)
    config = dsmc.DsmcConfig(dt=0.05, number_density=1.0, epsilon=0.8,
                             branch=CollisionBranch.REFLECTIVE, seed=22,
                             majorant_relative_speed=1.0)
    return ensemble, config, 100, 10


def _shells_n4000_pierce():
    # 30% of the particles at unit speed, the rest at speed 0.5: the speed
    # bound is tight, so once collisions lift a speed above 1, a relative
    # speed above the majorant 2 turns up a few waves later within the same
    # long step, and the attempt is unwound across several accepted waves.
    raw = rng.stream(23, "shells").standard_normal((4000, 3))
    unit = raw / np.sqrt(np.sum(raw * raw, axis=1, keepdims=True))
    velocities = np.concatenate([unit[:1200], 0.5 * unit[1200:]])
    ensemble = dsmc.ParticleEnsemble(velocities=velocities, species=SPECIES)
    config = dsmc.DsmcConfig(dt=0.5, number_density=1.0, epsilon=0.7,
                             branch=CollisionBranch.REFLECTIVE, seed=24,
                             majorant_relative_speed=0.1)
    return ensemble, config, 12, 3


CASES = {"maxwellian-n2000": _maxwellian_n2000, "shells-n4000-pierce": _shells_n4000_pierce}


def _assert_bits_equal(actual, expected):
    actual = np.ascontiguousarray(actual, dtype=np.float64)
    expected = np.ascontiguousarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    mismatched = np.flatnonzero(actual.view(np.uint64) != expected.view(np.uint64))
    assert mismatched.size == 0, f"{mismatched.size} values differ in their bits"


@pytest.mark.parametrize("case", sorted(CASES))
def test_waves_match_scalar_sweep_bit_for_bit(case):
    ensemble, config, n_steps, sample_every = CASES[case]()
    must_pierce = case.endswith("pierce")
    rows, final, pierced = reference_run(ensemble, config, n_steps, sample_every)
    assert (pierced > 0) == must_pierce
    _assert_bits_equal(dsmc.run(ensemble, config, n_steps, sample_every), rows)
    _assert_bits_equal(dsmc.advance(ensemble, config, range(n_steps)).velocities, final)
    for step_index in (0, 5):
        expected, pierced = reference_step(ensemble, config, step_index)
        assert (pierced > 0) == must_pierce
        step = range(step_index, step_index + 1)
        _assert_bits_equal(dsmc.advance(ensemble, config, step).velocities, expected)


def test_moments_match_reference_bit_for_bit():
    generator = np.random.default_rng(31)
    for trial in range(200):
        n = int(generator.integers(2, 3000))
        v = generator.standard_normal((n, 3)) * 10.0 ** generator.uniform(-3, 3, 3)
        v += generator.uniform(-2, 2, 3)
        if trial % 4 == 0:  # rows and entries of signed zeros
            v[generator.integers(0, n, 1 + n // 10)] = -0.0
            v[generator.integers(0, n, 1 + n // 10), 1] = 0.0
        m = 10.0 ** generator.uniform(-26, 0)
        density = 10.0 ** generator.uniform(-26, 26)
        actual = dsmc.moments(v, m, density)
        _, momentum, _, temperature = _reference_moments(v, m, density / n, 1.0)
        _assert_bits_equal([actual.density, actual.temperature], [density, temperature])
        _assert_bits_equal(actual.momentum, momentum)
