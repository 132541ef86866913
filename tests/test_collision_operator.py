"""Monte Carlo collision-term estimator against independent oracles."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import UNIT_MASS
from kinetics import collision_operator
from kinetics.claim_audit import equilibrium_ray_probes
from kinetics.collision_kernel import CollisionBranch
from kinetics.collision_operator import (
    GainNormalization,
    QuadratureSpec,
    RateEstimate,
    brute_force_density_rate,
    brute_force_rate,
    evaluate_at,
    evaluate_field,
    moment_rates,
    write_rate_table,
)
from kinetics.distribution import DiscreteDistribution, VelocityGrid, bimodal, maxwellian
from kinetics.errors import (
    InvalidRestitution,
    NonFiniteEstimate,
    SingularRestitution,
)


def spec_with(**overrides) -> QuadratureSpec:
    base = dict(samples=20_000, seed=12, diameter=1.0, mass=UNIT_MASS,
                epsilon=1.0, branch=CollisionBranch.REFLECTIVE,
                normalization=GainNormalization.RESTITUTION_WEIGHTED)
    base.update(overrides)
    return QuadratureSpec(**base)


def test_zero_distribution_gives_zero_estimate():
    grid = VelocityGrid(vmax=4.0, nodes_per_axis=17)
    f = DiscreteDistribution(grid, np.zeros((17, 17, 17)))
    estimate = evaluate_at(f, (0.5, 0.0, 0.0), spec_with())
    assert estimate.value == 0.0
    assert estimate.std_error == 0.0


def test_elastic_maxwellian_fixed_point_small():
    grid = VelocityGrid(vmax=5.5, nodes_per_axis=197)
    f = maxwellian(grid, 1.0, (0, 0, 0), 1.0, UNIT_MASS)
    probes = equilibrium_ray_probes(grid, 1.0)[:6]
    spec = spec_with(samples=100_000, seed=1)
    for estimate in evaluate_field(f, probes, spec, threads=4):
        assert abs(estimate.value) <= 3.0 * estimate.std_error


def test_determinism_and_duplicate_probes():
    grid = VelocityGrid(vmax=4.5, nodes_per_axis=41)
    f = maxwellian(grid, 1.0, (0, 0, 0), 1.0, UNIT_MASS)
    spec = spec_with(epsilon=0.9, samples=30_000)
    probe = np.array([0.4, -0.2, 0.8])
    first = evaluate_at(f, probe, spec)
    second = evaluate_at(f, probe, spec)
    assert first.value == second.value and first.std_error == second.std_error
    field = evaluate_field(f, [probe, (1.0, 0.0, 0.0), probe], spec, threads=3)
    assert field[0].value == first.value
    assert field[2].value == first.value
    field_serial = evaluate_field(f, [probe, (1.0, 0.0, 0.0), probe], spec, threads=1)
    for a, b in zip(field, field_serial):
        assert a.value == b.value and a.std_error == b.std_error


def test_cross_section_scaling_is_exact():
    grid = VelocityGrid(vmax=4.5, nodes_per_axis=41)
    f = maxwellian(grid, 1.0, (0, 0, 0), 1.0, UNIT_MASS)
    probe = (0.5, 0.0, 0.0)
    small = evaluate_at(f, probe, spec_with(epsilon=0.8, diameter=1.0))
    large = evaluate_at(f, probe, spec_with(epsilon=0.8, diameter=2.0))
    assert large.value == 4.0 * small.value
    assert large.std_error == 4.0 * small.std_error


def test_bimodal_nonzero_with_brute_force_oracle():
    grid = VelocityGrid(vmax=6.0, nodes_per_axis=61)
    f = bimodal(grid, 0.5, (2, 0, 0), 1.0, 0.5, (-2, 0, 0), 1.0, UNIT_MASS)
    spec = spec_with(samples=100_000, seed=3)
    for center in ((2.0, 0.0, 0.0), (-2.0, 0.0, 0.0)):
        estimate = evaluate_at(f, center, spec)
        assert abs(estimate.value) > 3.0 * estimate.std_error
        oracle = brute_force_rate(f, center, spec, 8, 8, 8)
        assert np.sign(oracle) == np.sign(estimate.value)
        assert 0.5 < oracle / estimate.value < 2.0


def test_std_error_scales_with_samples():
    grid = VelocityGrid(vmax=6.0, nodes_per_axis=61)
    f = bimodal(grid, 0.5, (2, 0, 0), 1.0, 0.5, (-2, 0, 0), 1.0, UNIT_MASS)
    small = evaluate_at(f, (2.0, 0, 0), spec_with(samples=50_000, seed=9))
    large = evaluate_at(f, (2.0, 0, 0), spec_with(samples=200_000, seed=9))
    exponent = np.log(large.std_error / small.std_error) / np.log(4.0)
    assert -0.6 <= exponent <= -0.4


def test_moment_rates_elastic_invariants_are_exact_zeros():
    grid = VelocityGrid(vmax=4.5, nodes_per_axis=41)
    f = maxwellian(grid, 1.0, (0, 0, 0), 1.0, UNIT_MASS)
    for norm in GainNormalization:
        rates = moment_rates(f, spec_with(samples=50_000, normalization=norm))
        assert rates.density.value == 0.0 and rates.density.std_error == 0.0
        for component in rates.momentum:
            assert component.value == 0.0
        assert rates.energy.value == 0.0


def test_moment_rates_standard_granular_cooling():
    grid = VelocityGrid(vmax=4.5, nodes_per_axis=61)
    f = maxwellian(grid, 1.0, (0, 0, 0), 1.0, UNIT_MASS)
    spec = spec_with(samples=500_000, epsilon=0.8,
                     normalization=GainNormalization.STANDARD_GRANULAR)
    rates = moment_rates(f, spec, threads=4)
    # density and momentum integrands vanish identically for this weighting
    assert rates.density.value == 0.0
    for component in rates.momentum:
        assert component.value == 0.0
    assert rates.energy.value < -3.0 * rates.energy.std_error


def test_moment_rates_restitution_weighted_loses_mass():
    grid = VelocityGrid(vmax=4.5, nodes_per_axis=61)
    f = maxwellian(grid, 1.0, (0, 0, 0), 1.0, UNIT_MASS)
    spec = spec_with(samples=500_000, epsilon=0.8,
                     normalization=GainNormalization.RESTITUTION_WEIGHTED)
    rates = moment_rates(f, spec, threads=4)
    assert abs(rates.density.value) > 3.0 * rates.density.std_error
    for component in rates.momentum:
        assert abs(component.value) <= 3.0 * component.std_error
    # closed form for a Maxwellian: (eps^3 - 1) * (pi/2) d^2 n^2 <|g|>
    mean_rel_speed = 2.0 * np.sqrt(2.0) * 2.0 / np.sqrt(2.0 * np.pi)
    predicted = (0.8**3 - 1.0) * (np.pi / 2.0) * mean_rel_speed
    assert rates.density.value == pytest.approx(predicted, rel=0.05)
    oracle = brute_force_density_rate(f, spec, 8, 6, 6)
    assert np.sign(oracle) == np.sign(rates.density.value)
    assert 0.5 < oracle / rates.density.value < 2.0


def test_moment_rates_deterministic_across_threads():
    grid = VelocityGrid(vmax=4.5, nodes_per_axis=41)
    f = maxwellian(grid, 1.0, (0, 0, 0), 1.0, UNIT_MASS)
    spec = spec_with(samples=150_000, epsilon=0.75)
    serial = moment_rates(f, spec, threads=1)
    parallel = moment_rates(f, spec, threads=4)
    assert serial.density.value == parallel.density.value
    assert serial.energy.value == parallel.energy.value
    assert serial.energy.std_error == parallel.energy.std_error


def test_rate_estimate_validation_and_spec_errors():
    with pytest.raises(ValueError):
        RateEstimate(value=float("nan"), std_error=0.0)
    with pytest.raises(ValueError):
        RateEstimate(value=0.0, std_error=-1.0)
    with pytest.raises(ValueError):
        spec_with(samples=0)
    with pytest.raises(ValueError):
        spec_with(diameter=-1.0)
    with pytest.raises(SingularRestitution):
        spec_with(epsilon=0.0)
    with pytest.raises(InvalidRestitution):
        spec_with(epsilon=1.2)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_overflowing_estimate_is_a_numerical_failure():
    assert not issubclass(NonFiniteEstimate, ValueError)
    grid = VelocityGrid(vmax=4.0, nodes_per_axis=41)
    f = maxwellian(grid, 1e300, (0, 0, 0), 1.0, UNIT_MASS)
    with pytest.raises(NonFiniteEstimate):
        evaluate_at(f, (0.0, 0.0, 0.0), spec_with(samples=2000))
    with pytest.raises(NonFiniteEstimate):
        moment_rates(f, spec_with(samples=2000))


def test_worker_threads_clamped_to_tasks_and_cores(monkeypatch):
    requested = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            requested.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(collision_operator, "ThreadPoolExecutor", RecordingPool)
    grid = VelocityGrid(vmax=4.5, nodes_per_axis=29)
    f = maxwellian(grid, 1.0, (0, 0, 0), 1.0, UNIT_MASS)
    probes = [(0.5, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 0.5)]
    three_chunks = spec_with(samples=2 * collision_operator._CHUNK + 1)
    monkeypatch.setattr(collision_operator.os, "cpu_count", lambda: 2)
    evaluate_field(f, probes, spec_with(samples=100), threads=64)
    moment_rates(f, three_chunks, threads=64)
    assert requested == [2, 2]
    monkeypatch.setattr(collision_operator.os, "cpu_count", lambda: 16)
    evaluate_field(f, probes, spec_with(samples=100), threads=64)
    moment_rates(f, three_chunks, threads=64)
    evaluate_field(f, probes[:1], spec_with(samples=100), threads=64)
    assert requested == [2, 2, 3, 3]


def test_rate_table_csv_round_trip(tmp_path):
    nodes = [np.array([0.5, 0.0, -1.0]), np.array([1.0, 2.0, 3.0])]
    estimates = [RateEstimate(value=-0.0306125, std_error=0.00074),
                 RateEstimate(value=1e-300, std_error=0.0)]
    path = tmp_path / "rates.csv"
    write_rate_table(path, nodes, estimates)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "vx,vy,vz,rate,std_error"
    cells = lines[1].split(",")
    assert float(cells[3]) == estimates[0].value
    assert float(cells[4]) == estimates[0].std_error
