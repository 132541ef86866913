"""Monte Carlo collision-term estimator against independent oracles."""

import json
import math
import re
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import UNIT_MASS
from quadrature_oracle import brute_force_density_rate, brute_force_rate
from test_estimator_reference import _reference_sum_and_m2, _reference_unit_sphere
from kinetics import cli, collision_operator, dsmc, rng
from kinetics.claim_audit import equilibrium_ray_probes
from kinetics.collision_kernel import CollisionBranch, _dot3
from kinetics.collision_operator import (
    GainNormalization,
    QuadratureSpec,
    RateEstimate,
    evaluate_at,
    evaluate_field,
    moment_rates,
    pre_collision_pair,
)
from kinetics.distribution import (
    DiscreteDistribution,
    VelocityGrid,
    bimodal,
    interpolate_many,
    maxwellian,
)
from kinetics.errors import InvalidRestitution, NonFiniteEstimate


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


@pytest.mark.parametrize("probe", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                                   (0.0, 0.0, -math.inf)])
def test_evaluate_at_rejects_a_non_finite_probe_by_name(probe):
    f = DiscreteDistribution(VelocityGrid(vmax=4.0, nodes_per_axis=17), np.ones((17, 17, 17)))
    with pytest.raises(ValueError, match="^v must be finite$"):
        evaluate_at(f, probe, spec_with())


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
        rates = moment_rates(f, spec_with(samples=50_000, normalization=norm))[0]
        assert rates.density.value == 0.0 and rates.density.std_error == 0.0
        for component in rates.momentum:
            assert component.value == 0.0
        assert rates.energy.value == 0.0


def test_moment_rates_standard_granular_cooling():
    grid = VelocityGrid(vmax=4.5, nodes_per_axis=61)
    f = maxwellian(grid, 1.0, (0, 0, 0), 1.0, UNIT_MASS)
    spec = spec_with(samples=500_000, epsilon=0.8,
                     normalization=GainNormalization.STANDARD_GRANULAR)
    rates = moment_rates(f, spec, threads=4)[0]
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
    rates = moment_rates(f, spec, threads=4)[0]
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
    serial = moment_rates(f, spec, threads=1)[0]
    parallel = moment_rates(f, spec, threads=4)[0]
    assert serial.density.value == parallel.density.value
    assert serial.energy.value == parallel.energy.value
    assert serial.energy.std_error == parallel.energy.std_error


def _bits(rates):
    components = (rates.density, *rates.momentum, rates.energy)
    return np.array([[c.value, c.std_error] for c in components]).view(np.uint64)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("samples", [2, collision_operator._CHUNK,
                                     3 * collision_operator._CHUNK + 17])
def test_weightings_match_single_spec_calls_bit_for_bit(threads, samples):
    f = bimodal(VelocityGrid(vmax=6.0, nodes_per_axis=41), 0.5, (2, 0, 0), 1.0,
                0.5, (-2, 0, 0), 1.0, UNIT_MASS)
    weightings = [(epsilon, norm) for epsilon in (1.0, 0.8, 0.3)
                  for norm in GainNormalization]
    spec = spec_with(samples=samples, seed=4, epsilon=0.5)
    shared = moment_rates(f, spec, threads=threads, weightings=weightings)
    assert len(shared) == len(weightings)
    for (epsilon, norm), rates in zip(weightings, shared):
        single = moment_rates(f, spec_with(samples=samples, seed=4, epsilon=epsilon,
                                           normalization=norm), threads=threads)[0]
        np.testing.assert_array_equal(_bits(rates), _bits(single))
    # without weightings, the one weighting is the spec's own
    [own] = moment_rates(f, spec, threads=threads)
    [pair] = moment_rates(f, spec, threads=threads,
                          weightings=[(spec.epsilon, spec.normalization)])
    assert isinstance(own, collision_operator.MomentRates)
    np.testing.assert_array_equal(_bits(own), _bits(pair))


def test_weightings_are_validated_by_the_spec_rules():
    f = maxwellian(VelocityGrid(vmax=4.5, nodes_per_axis=29), 1.0, (0, 0, 0), 1.0,
                   UNIT_MASS)
    with pytest.raises(InvalidRestitution):
        moment_rates(f, spec_with(samples=10),
                     weightings=[(1.0, GainNormalization.STANDARD_GRANULAR),
                                 (0.0, GainNormalization.STANDARD_GRANULAR)])
    with pytest.raises(InvalidRestitution):
        moment_rates(f, spec_with(samples=10),
                     weightings=[(1.5, GainNormalization.RESTITUTION_WEIGHTED)])


@pytest.mark.parametrize("weightings", [[(0.8,)], (0.8, GainNormalization.STANDARD_GRANULAR)],
                         ids=["one-item-pair", "a-pair-not-a-list-of-pairs"])
def test_malformed_weightings_are_rejected_by_name(weightings):
    # an unpacking error named neither the argument nor what it must hold
    f = maxwellian(VelocityGrid(vmax=4.5, nodes_per_axis=29), 1.0, (0, 0, 0), 1.0, UNIT_MASS)
    with pytest.raises(ValueError, match="^weightings must be an iterable of 2-item tuples "
                                         f"or lists, got {re.escape(repr(weightings))}$"):
        moment_rates(f, spec_with(samples=10), weightings=weightings)


def test_nodes_that_are_not_iterable_are_rejected_by_name():
    # list(5) raised "'int' object is not iterable"
    f = maxwellian(VelocityGrid(vmax=4.5, nodes_per_axis=29), 1.0, (0, 0, 0), 1.0, UNIT_MASS)
    with pytest.raises(ValueError, match="^nodes must be an iterable, got 5$"):
        evaluate_field(f, 5, spec_with(samples=10))


def _reference_moment_chunk(f, spec, chunk_index, size):
    """Former single-weighting _moment_chunk, kept verbatim but for its whole-chunk helpers."""
    generator = rng.stream(spec.seed, "operator-moments", chunk_index)
    vmax = f.grid.vmax
    v = generator.uniform(-vmax, vmax, (size, 3))
    v1 = generator.uniform(-vmax, vmax, (size, 3))
    n = _reference_unit_sphere(generator, size)
    gn = _dot3(v1 - v, n)
    ge2 = spec.normalization.gain_factor(spec.epsilon) * spec.epsilon**2
    mass = spec.mass
    mu = 0.5 * mass
    delta_e = 0.5 * (1.0 - spec.epsilon**2) * mu * gn * gn
    pair_ke = 0.5 * mass * (_dot3(v, v) + _dot3(v1, v1))
    integrands = np.empty((5, size))
    with np.errstate(over="ignore", invalid="ignore"):
        base = 0.5 * interpolate_many(f, v) * interpolate_many(f, v1) * np.abs(gn)
        integrands[0] = base * (2.0 * ge2 - 2.0)
        integrands[1:4] = (base * (ge2 - 1.0) * mass) * (v + v1).T
        integrands[4] = base * ((ge2 - 1.0) * pair_ke - ge2 * delta_e)
        return _reference_sum_and_m2(integrands)


@pytest.mark.parametrize("chunk_index, size", [(0, collision_operator._CHUNK), (2, 17)])
def test_shared_moment_chunk_matches_single_weighting_reference(chunk_index, size):
    f = bimodal(VelocityGrid(vmax=6.0, nodes_per_axis=41), 0.5, (2, 0, 0), 1.0,
                0.5, (-2, 0, 0), 1.0, UNIT_MASS)
    specs = [spec_with(seed=8, epsilon=epsilon, normalization=norm)
             for epsilon in (1.0, 0.8, 0.3) for norm in GainNormalization]
    shared = collision_operator._moment_chunk(
        f, specs[0], [(spec.epsilon, spec.normalization) for spec in specs], chunk_index, size)
    for spec, stats in zip(specs, shared, strict=True):
        reference = _reference_moment_chunk(f, spec, chunk_index, size)
        np.testing.assert_array_equal(stats.view(np.uint64), reference.view(np.uint64))


def test_huge_density_gives_finite_rates_and_standard_errors():
    # integrands near 1e280: squared deviations would overflow without rescaling
    grid = VelocityGrid(vmax=4.0, nodes_per_axis=41)
    f = maxwellian(grid, 1e140, (0, 0, 0), 1.0, UNIT_MASS)
    spec = spec_with(samples=2000, epsilon=0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate = evaluate_at(f, (0.0, 0.0, 0.0), spec)
        rates = moment_rates(f, spec)[0]
    assert estimate.value < 0.0 and 0.0 < estimate.std_error < abs(estimate.value)
    assert rates.density.value < 0.0
    assert 0.0 < rates.density.std_error < abs(rates.density.value)
    for component in (*rates.momentum, rates.energy):
        assert math.isfinite(component.value) and 0.0 < component.std_error < math.inf


@pytest.mark.parametrize("samples", [2000, 3 * collision_operator._CHUNK + 17])
def test_power_of_two_density_scales_estimates_exactly(samples):
    # f * 2^465 scales every integrand by 2^930, past the rescale threshold, and
    # power-of-two scaling is exact, so both estimators must scale bit for bit
    f = maxwellian(VelocityGrid(vmax=4.0, nodes_per_axis=41), 1.0, (0, 0, 0), 1.0,
                   UNIT_MASS)
    big = DiscreteDistribution(f.grid, np.ldexp(f.values, 465))
    spec = spec_with(samples=samples, epsilon=0.8)
    small_at, big_at = evaluate_at(f, (0.3, 0.0, -0.2), spec), evaluate_at(
        big, (0.3, 0.0, -0.2), spec)
    assert big_at.value == math.ldexp(small_at.value, 930)
    assert big_at.std_error == math.ldexp(small_at.std_error, 930)
    [small], [large] = moment_rates(f, spec, threads=2), moment_rates(big, spec, threads=2)
    for a, b in zip((small.density, *small.momentum, small.energy),
                    (large.density, *large.momentum, large.energy)):
        assert b.value == math.ldexp(a.value, 930)
        assert b.std_error == math.ldexp(a.std_error, 930)


def test_sem_merge_rescales_exactly_past_overflow():
    # spreads that grow chunk by chunk, so the merge must rescale its running M2
    generator = np.random.default_rng(11)
    sizes = [4096, 1000, 7]
    chunks = [3.0 + spread * generator.standard_normal(size)
              for size, spread in zip(sizes, (1.0, 64.0, 4096.0))]
    results = []
    for shift in (0, 900):
        stats = [collision_operator._sum_and_m2(np.ldexp(c, shift)) for c in chunks]
        results.append(collision_operator._mean_and_sem(
            sizes, [s[0] for s in stats], [s[1] for s in stats], [s[2] for s in stats]))
    (mean, sem), (big_mean, big_sem) = results
    assert big_mean == math.ldexp(mean, 900)
    assert big_sem == math.ldexp(sem, 900)
    assert 0.0 < sem < math.inf


def test_rate_estimate_validation_and_spec_errors():
    with pytest.raises(ValueError):
        RateEstimate(value=float("nan"), std_error=0.0)
    with pytest.raises(ValueError):
        RateEstimate(value=0.0, std_error=-1.0)
    with pytest.raises(ValueError):
        spec_with(samples=0)
    with pytest.raises(ValueError):
        spec_with(diameter=-1.0)
    with pytest.raises(InvalidRestitution):
        spec_with(epsilon=0.0)
    with pytest.raises(InvalidRestitution):
        spec_with(epsilon=1.2)


@pytest.mark.parametrize("seed", [1.5, "a", None, True])
def test_spec_rejects_a_seed_that_is_not_an_integer_by_name(seed):
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
        spec_with(seed=seed)


def _moment_rates_weighted_by(normalization):
    f = maxwellian(VelocityGrid(vmax=4.5, nodes_per_axis=29), 1.0, (0, 0, 0), 1.0,
                   UNIT_MASS)
    return moment_rates(f, spec_with(samples=10), weightings=[(0.8, normalization)])


@pytest.mark.parametrize("build, name, kind, value", [
    (lambda value: spec_with(branch=value), "branch", "CollisionBranch", "reflective"),
    (lambda value: spec_with(normalization=value), "normalization", "GainNormalization",
     "standard_granular"),
    (lambda value: spec_with(branch=value), "branch", "CollisionBranch",
     GainNormalization.STANDARD_GRANULAR),
    (lambda value: dsmc.DsmcConfig(dt=0.002, number_density=1.0, epsilon=1.0, branch=value,
                                   seed=42, majorant_relative_speed=1.0),
     "branch", "CollisionBranch", "passing"),
    (_moment_rates_weighted_by, "normalization", "GainNormalization", "standard_granular"),
], ids=["spec-branch", "spec-normalization", "spec-branch-other-enum", "dsmc-branch",
        "weighting-normalization"])
def test_an_enum_field_takes_only_a_member_and_names_itself(build, name, kind, value):
    with pytest.raises(ValueError, match=f"^{name} must be a {kind}, got {re.escape(repr(value))}$"):
        build(value)


def test_directions_are_unit_rows_uniform_on_the_sphere():
    count = 1 << 20
    n = collision_operator._directions(*rng.stream(3, "directions").random((2, count)))
    assert n.shape == (count, 3)
    assert np.max(np.abs(np.sqrt(_dot3(n, n)) - 1.0)) <= 4 * np.finfo(np.float64).eps
    # moments of the uniform sphere, each within 4 standard errors: E n_i = 0 with
    # var 1/3, E n_i^2 = 1/3 with var 1/5 - 1/9 = 4/45, and E n_x n_y = 0 with var 1/15
    assert np.all(np.abs(n.mean(axis=0)) < 4.0 * math.sqrt(1 / 3 / count))
    assert np.all(np.abs(np.mean(n * n, axis=0) - 1 / 3) < 4.0 * math.sqrt(4 / 45 / count))
    assert abs(np.mean(n[:, 0] * n[:, 1])) < 4.0 * math.sqrt(1 / 15 / count)


def test_directions_at_u_zero_are_exactly_the_pole():
    phi = np.array([0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53])
    np.testing.assert_array_equal(collision_operator._directions(np.zeros(5), phi),
                                  [[0.0, 0.0, 1.0]] * 5)


def test_overflowing_estimate_is_a_numerical_failure():
    assert not issubclass(NonFiniteEstimate, ValueError)
    grid = VelocityGrid(vmax=4.0, nodes_per_axis=41)
    f = maxwellian(grid, 1e300, (0, 0, 0), 1.0, UNIT_MASS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteEstimate):
            evaluate_at(f, (0.0, 0.0, 0.0), spec_with(samples=2000))
    # elsewhere the caller's numpy error state governs the overflow: by default, numpy warns
    with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteEstimate):
        moment_rates(f, spec_with(samples=2000))
    with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteEstimate):
        moment_rates(f, spec_with(samples=2 * collision_operator._CHUNK + 1), threads=2)
    # finite chunk sums whose total overflows
    with pytest.warns(RuntimeWarning):
        mean, _ = collision_operator._mean_and_sem([2, 2], [1e308, 1e308], [0.0, 0.0],
                                                   [0, 0])
    assert mean == np.inf


def test_workers_compute_under_the_callers_error_state():
    # numpy's error state is per thread; _map hands the caller's to every worker
    grid = VelocityGrid(vmax=4.0, nodes_per_axis=41)
    f = maxwellian(grid, 1e300, (0, 0, 0), 1.0, UNIT_MASS)
    spec = spec_with(samples=2 * collision_operator._CHUNK + 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(all="ignore"), pytest.raises(NonFiniteEstimate):
            moment_rates(f, spec, threads=2)
    assert caught == []
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        moment_rates(f, spec, threads=2)


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


@pytest.mark.parametrize("threads, message", [
    (0, "at least 1, got 0"), (-3, "at least 1, got -3"), (1.5, "an integer, got 1.5"),
    ("2", "an integer, got '2'"), (None, "an integer, got None"), (True, "an integer, got True"),
])
def test_a_bad_thread_count_is_rejected_by_name(threads, message):
    # not silently one worker (0, -3), two (1.5), or a TypeError naming nothing ("2", None)
    f = maxwellian(VelocityGrid(vmax=4.5, nodes_per_axis=29), 1.0, (0, 0, 0), 1.0, UNIT_MASS)
    spec = spec_with(samples=100)
    with pytest.raises(ValueError, match=f"^threads must be {re.escape(message)}$"):
        evaluate_field(f, [(0.5, 0.0, 0.0), (0.0, 0.5, 0.0)], spec, threads=threads)
    with pytest.raises(ValueError, match=f"^threads must be {re.escape(message)}$"):
        moment_rates(f, spec, threads=threads)


def _naive_sem(sizes, sums, sq_sums):
    """The former sum(x^2) - n mean^2 standard error, kept to show it cancels."""
    total = sum(sizes)
    mean = float(np.sum(sums)) / total
    var = (float(np.sum(sq_sums)) - total * mean * mean) / (total - 1)
    return math.sqrt(max(var, 0.0) / total)


def test_sem_merge_is_stable_when_the_mean_dwarfs_the_spread():
    generator = np.random.default_rng(7)
    sizes = [4096, 4096, 1000, 4096, 7]
    chunks = [1e9 + generator.standard_normal(size) for size in sizes]
    stats = [collision_operator._sum_and_m2(chunk) for chunk in chunks]
    mean, sem = collision_operator._mean_and_sem(
        sizes, [s[0] for s in stats], [s[1] for s in stats], [s[2] for s in stats])
    samples = np.concatenate(chunks)
    total = samples.size
    assert mean == float(np.sum([np.sum(c) for c in chunks])) / total
    ref_mean = math.fsum(samples) / total
    ref_m2 = math.fsum((samples - ref_mean) ** 2)
    ref_sem = math.sqrt(ref_m2 / (total - 1) / total)
    assert sem == pytest.approx(ref_sem, rel=1e-9, abs=0.0)
    naive = _naive_sem(sizes, [s[0] for s in stats],
                       [float(np.sum(c * c)) for c in chunks])
    assert naive != pytest.approx(ref_sem, rel=1e-9, abs=0.0)


def test_rate_table_csv_round_trip(tmp_path):
    params = {"vmax": 4.5, "nodes_per_axis": 29,
              "distribution": {"kind": "maxwellian"},
              "mass": UNIT_MASS, "epsilon": 0.9, "samples": 3000,
              "probes": [[0.5, 0.0, -1.0], [1.0, 2.0, 3.0]]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"subcommand": "operator", "seed": 5,
                                       "parameters": params}))
    out_dir = tmp_path / "out"
    assert cli.main(["operator", "--config", str(config_path),
                     "--output-dir", str(out_dir)]) == 0
    lines = (out_dir / "rates.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == "vx,vy,vz,rate,std_error"
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    f = maxwellian(VelocityGrid(vmax=4.5, nodes_per_axis=29), 1.0, (0, 0, 0), 1.0,
                   UNIT_MASS)
    spec = spec_with(samples=3000, seed=5, epsilon=0.9)
    estimates = evaluate_field(f, params["probes"], spec)
    assert len(rows) == len(estimates)
    for row, probe, estimate in zip(rows, params["probes"], estimates):
        assert row == [*probe, estimate.value, estimate.std_error]
        assert estimate.value != 0.0


def _reference_pre_collision_pair(v, v1, n, epsilon, branch):
    """Former single-species closed form of pre_collision_pair, kept verbatim
    but for the row dot, written out as the three adds that _dot3 makes."""
    factor = 0.5 * branch.normal_factor(1.0 / epsilon)
    p = (v1 - v) * n
    gn = (0.0 + p[..., 0] + p[..., 1] + p[..., 2])[..., None]
    return v + factor * gn * n, v1 - factor * gn * n


_COMPONENT = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-50.0, 50.0))


def _rows(count):
    return st.lists(st.lists(_COMPONENT, min_size=3, max_size=3),
                    min_size=count, max_size=count).map(np.array)


@settings(deadline=None, max_examples=100)
@given(data=st.data(), epsilon=st.floats(0.05, 1.0),
       branch=st.sampled_from(list(CollisionBranch)), m=st.integers(1, 12),
       shared_probe=st.booleans())
def test_pre_collision_pair_matches_closed_form_bits(data, epsilon, branch, m,
                                                     shared_probe):
    v = data.draw(_rows(1 if shared_probe else m))
    v1, n = data.draw(_rows(m)), data.draw(_rows(m))
    got = pre_collision_pair(v, v1, n, epsilon, branch)
    want = _reference_pre_collision_pair(v, v1, n, epsilon, branch)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))


def _traced_peak(call) -> int:
    """Bytes that call allocates at its peak, above what was live before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_estimator_peak_memory_is_the_chunk_columns_it_holds():
    # numpy reports its buffers to tracemalloc. A column is one float per sample
    # of a chunk. Each estimator peaks in a lookup's corner loop, where
    # interpolate_many holds 14.5 columns: the (3, m) coordinates, fractions and
    # lower weights, the corner index, four accumulators, and 4 bytes a sample
    # of hull masks. The allowance of half a column is for interpreter objects
    # (measured: 28.53 and 22.54 columns in all), so one more chunk-sized array
    # held across a lookup exceeds it.
    f = bimodal(VelocityGrid(vmax=6.0, nodes_per_axis=41), 0.5, (2, 0, 0), 1.0,
                0.5, (-2, 0, 0), 1.0, UNIT_MASS)
    spec = spec_with(samples=3 * collision_operator._CHUNK + 17, epsilon=0.9,
                     normalization=GainNormalization.STANDARD_GRANULAR)
    column = 8 * collision_operator._CHUNK
    lookup = 14.5 * column + column // 2  # with the allowance
    evaluate_at(f, (0.5, 0.3, -0.1), spec)  # first-call caches are not per call
    at_peak = _traced_peak(lambda: evaluate_at(f, (0.5, 0.3, -0.1), spec))
    # partners, directions and the two pre-collision velocities (3 columns
    # each), the integrand and the f terms
    assert at_peak <= (12 + 2) * column + lookup, f"{at_peak / column:.2f} columns"
    weightings = [(epsilon, norm) for epsilon in (1.0, 0.8) for norm in GainNormalization]
    moments_peak = _traced_peak(lambda: moment_rates(f, spec, weightings=weightings))
    # v and v1 (3 columns each), gn and the first lookup's product
    assert moments_peak <= (6 + 2) * column + lookup, f"{moments_peak / column:.2f} columns"


def test_directions_peak_memory_is_its_rows_plus_radius_and_azimuth():
    # the three columns are written into the (m, 3) result in place: its 3 columns,
    # the radius and the azimuth (measured: 5.01 columns), where stacking fresh
    # columns held 8
    u, phi = rng.stream(5, "directions-memory").random((2, collision_operator._CHUNK))
    column = 8 * collision_operator._CHUNK
    peak = _traced_peak(lambda: collision_operator._directions(u, phi))
    assert peak <= 5.5 * column, f"{peak / column:.2f} columns"
    assert collision_operator._directions(u, phi).flags.c_contiguous


def _chunk_stats(chunks):
    stats = [collision_operator._sum_and_m2(chunk) for chunk in chunks]
    return [len(chunk) for chunk in chunks], *zip(*stats)


def test_sem_merge_of_many_rows_is_each_row_merged_alone():
    generator = np.random.default_rng(5)
    sizes = [4096, 4096, 1000, 7]
    # rows with a small spread, a large mean, a spread past the rescale point, and zeros
    rows = [[scale * generator.standard_normal(size) + offset for size in sizes]
            for scale, offset in ((1.0, 0.0), (1.0, 1e9), (2.0**700, 3.0), (0.0, 0.0))]
    stats = np.array([_chunk_stats(row)[1:] for row in rows])  # (row, sum|M2|exp, chunk)
    means, sems = collision_operator._mean_and_sem(sizes, *stats.transpose(1, 0, 2))
    assert means.shape == sems.shape == (len(rows),)
    for row, mean, sem in zip(rows, means, sems):
        alone = collision_operator._mean_and_sem(*_chunk_stats(row))
        assert (mean, sem) == alone


def test_sem_merge_rescales_a_gap_past_the_rescale_point():
    # every chunk exponent is 0: only the gap between the chunk means passes 2^500
    def merged(top):
        return collision_operator._mean_and_sem(
            *_chunk_stats([np.zeros(collision_operator._CHUNK), np.full(17, top)]))
    (mean, sem), (big_mean, big_sem) = merged(1.0), merged(2.0**600)
    assert 0.0 < sem < math.inf
    assert big_mean == math.ldexp(mean, 600)
    assert big_sem == math.ldexp(sem, 600)
