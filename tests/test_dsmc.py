"""Particle-gas oracle: sampling, conservation, cooling, determinism."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import UNIT_MASS, fit_cooling_exponent
from kinetics import cli, dsmc
from kinetics.collision_kernel import CollisionBranch, Species, _dot3
from kinetics.errors import MajorantExceeded

SPECIES = Species(mass=UNIT_MASS, diameter=1.0)


def config_with(**overrides) -> dsmc.DsmcConfig:
    base = dict(dt=0.002, number_density=1.0, epsilon=1.0,
                branch=CollisionBranch.REFLECTIVE, seed=42,
                majorant_relative_speed=1.0)
    base.update(overrides)
    return dsmc.DsmcConfig(**base)


def test_sample_ensemble_zero_temperature_is_exact():
    u = (5.0, -1.0, 2.0)
    ensemble = dsmc.sample_maxwellian_ensemble(100, SPECIES, u, 0.0, seed=1)
    np.testing.assert_array_equal(ensemble.velocities,
                                  np.tile(np.asarray(u), (100, 1)))


def test_sample_ensemble_mean_within_clt_bound():
    count = 40_000
    u = np.array([5.0, 0.0, 0.0])
    ensemble = dsmc.sample_maxwellian_ensemble(count, SPECIES, u, 1.0, seed=2)
    sigma = 1.0  # thermal speed at T = 1 with mass = k_B
    bound = 5.0 * sigma / np.sqrt(count)
    np.testing.assert_allclose(np.mean(ensemble.velocities, axis=0), u, atol=bound)
    moments = dsmc.moments(ensemble.velocities, SPECIES.mass, 1.0)
    assert moments.temperature == pytest.approx(1.0, rel=0.05)
    assert moments.density == pytest.approx(1.0)


def test_sample_ensemble_seed_determinism():
    a = dsmc.sample_maxwellian_ensemble(500, SPECIES, (0, 0, 0), 1.0, seed=3)
    b = dsmc.sample_maxwellian_ensemble(500, SPECIES, (0, 0, 0), 1.0, seed=3)
    np.testing.assert_array_equal(a.velocities, b.velocities)
    c = dsmc.sample_maxwellian_ensemble(500, SPECIES, (0, 0, 0), 1.0, seed=4)
    assert np.any(c.velocities != a.velocities)


def test_step_conserves_momentum_and_elastic_energy():
    ensemble = dsmc.sample_maxwellian_ensemble(4000, SPECIES, (0.5, 0, 0), 1.0, seed=5)
    v0 = ensemble.velocities
    p0 = np.sum(v0, axis=0)
    ke0 = float(np.sum(v0 * v0))
    state = ensemble
    for index in range(50):
        state = dsmc.advance(state, config_with(dt=0.05), range(index, index + 1))
    vf = state.velocities
    assert np.any(vf != v0)
    p_scale = float(np.sum(np.linalg.norm(v0, axis=1)))
    assert np.max(np.abs(np.sum(vf, axis=0) - p0)) < 1e-12 * p_scale
    assert abs(float(np.sum(vf * vf)) - ke0) < 1e-9 * ke0


def test_inelastic_temperature_decays_monotonically():
    ensemble = dsmc.sample_maxwellian_ensemble(4000, SPECIES, (0, 0, 0), 1.0, seed=6)
    series = dsmc.run(ensemble, config_with(epsilon=0.9, dt=0.05), 200,
                      sample_every=10)
    temperatures = series[:, 5]
    assert np.all(np.diff(temperatures) <= 0.0)
    assert temperatures[-1] < 0.9 * temperatures[0]


def test_run_zero_steps_returns_initial_sample():
    ensemble = dsmc.sample_maxwellian_ensemble(100, SPECIES, (1, 2, 3), 1.0, seed=7)
    series = dsmc.run(ensemble, config_with(), 0)
    assert series.shape == (1, 6)
    assert series[0, 0] == 0.0
    assert series[0, 1] == pytest.approx(1.0)


def test_elastic_temperature_flat_over_run():
    ensemble = dsmc.sample_maxwellian_ensemble(4000, SPECIES, (0, 0, 0), 1.0, seed=8)
    series = dsmc.run(ensemble, config_with(dt=0.05), 300, sample_every=50)
    temperatures = series[:, 5]
    assert (temperatures.max() - temperatures.min()) / temperatures[0] < 1e-6


def test_run_is_deterministic():
    ensemble = dsmc.sample_maxwellian_ensemble(1000, SPECIES, (0, 0, 0), 1.0, seed=9)
    a = dsmc.run(ensemble, config_with(epsilon=0.8, dt=0.05), 40, sample_every=5)
    b = dsmc.run(ensemble, config_with(epsilon=0.8, dt=0.05), 40, sample_every=5)
    np.testing.assert_array_equal(a, b)
    first = dsmc.advance(ensemble, config_with(epsilon=0.8, dt=0.05), range(40))
    second = dsmc.advance(ensemble, config_with(epsilon=0.8, dt=0.05), range(40))
    np.testing.assert_array_equal(first.velocities, second.velocities)


def test_step_is_a_pure_function_of_inputs():
    ensemble = dsmc.sample_maxwellian_ensemble(1000, SPECIES, (0, 0, 0), 1.0, seed=13)
    a = dsmc.advance(ensemble, config_with(epsilon=0.8, dt=0.05), range(4, 5))
    b = dsmc.advance(ensemble, config_with(epsilon=0.8, dt=0.05), range(4, 5))
    np.testing.assert_array_equal(a.velocities, b.velocities)
    c = dsmc.advance(ensemble, config_with(epsilon=0.8, dt=0.05), range(5, 6))
    assert np.any(c.velocities != a.velocities)


def test_every_step_recomputes_alone_bit_for_bit():
    # a step reads only the velocities, so each step of a run, recomputed alone from
    # the state before it, gives the run's bits
    ensemble = dsmc.sample_maxwellian_ensemble(4000, SPECIES, (0, 0, 0), 1.0, seed=0)
    config = config_with(epsilon=0.8, dt=0.05, seed=0)
    states = [ensemble.velocities]
    dsmc.advance(ensemble, config, range(130), lambda index, v: states.append(v.copy()))
    mismatched = [index for index in range(130)
                  if dsmc.advance(dsmc.ParticleEnsemble(velocities=states[index],
                                                        species=SPECIES),
                                  config, range(index, index + 1)).velocities.tobytes()
                  != states[index + 1].tobytes()]
    assert mismatched == []
    assert all(np.any(after != before) for before, after in zip(states, states[1:]))


def test_each_step_majorant_is_the_exact_speed_bound(monkeypatch):
    # in a fast-cooling gas the majorant falls with the speeds: each step's first
    # attempt runs at max(floor, 2 * the largest speed at the step's start)
    ensemble = dsmc.sample_maxwellian_ensemble(4000, SPECIES, (0, 0, 0), 1.0, seed=0)
    config = config_with(epsilon=0.7, dt=0.5, seed=0)
    attempt = dsmc._attempt_step
    firsts = []  # (step's generator, majorant, velocities) of each step's first attempt

    def recording(v, speed_sq, step_config, species, generator, majorant, owner):
        if not firsts or firsts[-1][0] is not generator:  # retries reuse the generator
            firsts.append((generator, majorant, v.copy()))
        return attempt(v, speed_sq, step_config, species, generator, majorant, owner)

    monkeypatch.setattr(dsmc, "_attempt_step", recording)
    dsmc.advance(ensemble, config, range(64))
    assert len(firsts) == 64
    for _, majorant, v in firsts:
        assert majorant == max(config.majorant_relative_speed,
                               2.0 * math.sqrt(float(np.max(_dot3(v, v)))))
    assert firsts[-1][1] < 0.5 * firsts[0][1]  # the gas cools, and the majorant with it


def test_small_cooling_exponent_is_haff_like():
    ensemble = dsmc.sample_maxwellian_ensemble(10_000, SPECIES, (0, 0, 0), 1.0, seed=10)
    series = dsmc.run(ensemble, config_with(epsilon=0.9, dt=0.02), 800,
                      sample_every=20)
    exponent, _ = fit_cooling_exponent(series[:, 0], series[:, 5])
    assert -2.5 <= exponent <= -1.5


def test_majorant_hard_error_after_bounded_retries(monkeypatch):
    monkeypatch.setattr(dsmc, "_MAJORANT_RETRIES", 0)
    ensemble = dsmc.sample_maxwellian_ensemble(100, SPECIES, (0, 0, 0), 1.0, seed=11)
    with pytest.raises(MajorantExceeded):
        dsmc.advance(ensemble, config_with(dt=5.0), range(1))


def test_sample_ensemble_rejects_a_negative_temperature_by_name():
    with pytest.raises(ValueError,
                       match=r"^temperature must be nonnegative and finite, got -1\.0$"):
        dsmc.sample_maxwellian_ensemble(4, SPECIES, (0, 0, 0), -1.0, seed=0)
    # NaN is named too, not left to the ensemble's finiteness check
    with pytest.raises(ValueError, match=r"^temperature must be nonnegative and finite, got nan$"):
        dsmc.sample_maxwellian_ensemble(4, SPECIES, (0, 0, 0), math.nan, seed=0)


def test_temperature_under_a_bulk_velocity_is_the_temperature_at_rest():
    # at 1 kg the thermal speed is 3.7e-12 m/s, so E|v|^2 - |E v|^2 would cancel
    # catastrophically under a drift of 1e-3 m/s
    heavy = Species(mass=1.0, diameter=1.0)

    def temperature(bulk_velocity):
        ensemble = dsmc.sample_maxwellian_ensemble(2000, heavy, bulk_velocity, 1.0, seed=0)
        return dsmc.moments(ensemble.velocities, heavy.mass, 1.0).temperature

    assert temperature((1e-3, 0.0, 0.0)) == pytest.approx(temperature((0.0, 0.0, 0.0)),
                                                          rel=1e-6)


def test_advance_needs_two_particles_to_step():
    lone = dsmc.ParticleEnsemble(velocities=np.zeros((1, 3)), species=SPECIES)
    assert dsmc.advance(lone, config_with(), range(0)).count == 1
    with pytest.raises(ValueError, match="^need at least 2 particles to step$"):
        dsmc.advance(lone, config_with(), range(1))


@pytest.mark.parametrize("seed", [1.5, "a", None, True])
def test_config_rejects_a_seed_that_is_not_an_integer_by_name(seed):
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
        config_with(seed=seed)


@pytest.mark.parametrize("seed", [1.5, "a", None, True])
def test_ensemble_rejects_a_seed_that_is_not_an_integer_by_name(seed):
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
        dsmc.sample_maxwellian_ensemble(4, SPECIES, (0, 0, 0), 1.0, seed)


def test_ensemble_keys_a_numpy_integer_seed_as_its_value():
    a = dsmc.sample_maxwellian_ensemble(50, SPECIES, (0, 0, 0), 1.0, np.int64(5))
    b = dsmc.sample_maxwellian_ensemble(50, SPECIES, (0, 0, 0), 1.0, 5)
    np.testing.assert_array_equal(a.velocities, b.velocities)


def test_config_and_ensemble_validation():
    with pytest.raises(ValueError):
        config_with(dt=0.0)
    with pytest.raises(ValueError):
        config_with(number_density=-1.0)
    with pytest.raises(ValueError):
        config_with(epsilon=0.0)
    with pytest.raises(ValueError):
        dsmc.sample_maxwellian_ensemble(1, SPECIES, (0, 0, 0), 1.0, seed=0)
    with pytest.raises(ValueError):
        dsmc.ParticleEnsemble(velocities=np.zeros((5, 2)), species=SPECIES)


def test_timeseries_csv(tmp_path):
    out_dir = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "subcommand": "dsmc", "seed": 12, "output_dir": str(out_dir),
        "parameters": {"particles": 200, "steps": 10, "sample_every": 5,
                       "dt": 0.05, "mass": UNIT_MASS},
    }))
    assert cli.main(["dsmc", "--config", str(config_path)]) == 0
    lines = (out_dir / "timeseries.csv").read_text().strip().split("\n")
    assert lines[0] == "t,density,px,py,pz,temperature"
    parsed = np.array([[float(cell) for cell in line.split(",")]
                       for line in lines[1:]])
    ensemble = dsmc.sample_maxwellian_ensemble(200, SPECIES, (0, 0, 0), 1.0, seed=12)
    series = dsmc.run(ensemble, config_with(dt=0.05, seed=12), 10, sample_every=5)
    assert parsed.shape == series.shape
    np.testing.assert_array_equal(parsed.view(np.uint64), series.view(np.uint64))


# particles * (number_density / particles) rounds away from number_density for each
@pytest.mark.parametrize("particles, number_density", [(7, 0.9), (25, 7.0), (49, 1.0)])
def test_timeseries_density_is_the_configured_number_density(tmp_path, particles,
                                                             number_density):
    """The density column is number_density, and the first momentum m (n/N) sum v, in bits."""
    assert particles * (number_density / particles) != number_density
    out_dir = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "subcommand": "dsmc", "seed": 4, "output_dir": str(out_dir),
        "parameters": {"particles": particles, "steps": 6, "sample_every": 2, "dt": 0.05,
                       "number_density": number_density, "mass": UNIT_MASS},
    }))
    assert cli.main(["dsmc", "--config", str(config_path)]) == 0
    rows = (out_dir / "timeseries.csv").read_text().splitlines()[1:]
    table = np.array([[float(cell) for cell in row.split(",")] for row in rows])
    assert table.shape == (4, 6)
    np.testing.assert_array_equal(table[:, 1].view(np.uint64),
                                  np.full(4, number_density).view(np.uint64))
    v = dsmc.sample_maxwellian_ensemble(particles, SPECIES, (0, 0, 0), 1.0, seed=4).velocities
    momentum = UNIT_MASS * (number_density / particles) * np.sum(v, axis=0)
    np.testing.assert_array_equal(table[0, 2:5].view(np.uint64), momentum.view(np.uint64))


@st.composite
def candidate_lists(draw):
    """(n, first, second) drawn the way a DSMC step draws its candidates."""
    n = draw(st.integers(2, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)),
                          max_size=40))
    first = np.array([a for a, _ in pairs], dtype=np.int64)
    second = np.array([b + (b >= a) for a, b in pairs], dtype=np.int64)
    return n, first, second


@settings(deadline=None, max_examples=300)
@given(candidate_lists())
def test_wave_schedule_orders_candidates_that_share_a_particle(candidates):
    n, first, second = candidates
    owner = np.full(n, dsmc._UNOWNED)
    waves = dsmc._wave_schedule(first, second, owner)
    assert np.all(owner == dsmc._UNOWNED)  # left ready for the next step
    assert all(wave.size for wave in waves)
    scheduled = np.concatenate(waves) if waves else np.array([], dtype=np.int64)
    np.testing.assert_array_equal(np.sort(scheduled), np.arange(first.size))
    wave_of = np.empty(first.size, dtype=np.int64)
    for number, wave in enumerate(waves):
        wave_of[wave] = number
        touched = np.concatenate((first[wave], second[wave]))
        assert np.unique(touched).size == touched.size
    for later in range(first.size):
        shared = [earlier for earlier in range(later)
                  if {first[earlier], second[earlier]} & {first[later], second[later]}]
        assert all(wave_of[earlier] < wave_of[later] for earlier in shared)
        # as early as possible: right after the latest candidate it depends on
        assert wave_of[later] == 1 + max((wave_of[e] for e in shared), default=-1)
