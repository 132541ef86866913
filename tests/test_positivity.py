"""The value rules of errors.py at every caller: require_real, require_positive,
require_nonnegative, frozen_array, require_count and require_vector3; and
the chart's one entry, through embed."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from conftest import UNIT_MASS
from test_cli import VALID_PARAMETERS
from kinetics import cli, dsmc
from kinetics.claim_audit import audit_chain_rule, audit_energy_formula, audit_jacobian
from kinetics.collision_kernel import (
    CollisionBranch,
    Species,
    actual_energy_loss,
    collide,
    energy_loss_formula,
    inverse_collide,
    jacobian_numeric,
)
from kinetics.collision_operator import QuadratureSpec, evaluate_at, evaluate_field
from kinetics.distribution import (
    DiscreteDistribution,
    VelocityGrid,
    bimodal,
    interpolate,
    maxwellian,
)
from kinetics.errors import (ChartSingularity, ConfigError, SpeedExceedsLambda,
                             require_positive, require_vector3)
from kinetics.sphere_group import (
    CHART_GUARD,
    ChartCoords,
    PureQuaternion,
    SpherePoint,
    _hemisphere_sign,
    chart_jacobian,
    embed,
    exp_subgroup,
    match_generator,
)
from kinetics.transport_solver import (
    ForceField,
    PhaseGrid1D1V,
    phase_grid_from_function,
    semi_lagrangian_run,
)

UNIT = Species(mass=1.0, diameter=1.0)
REFLECTIVE = CollisionBranch.REFLECTIVE
GRID = VelocityGrid(vmax=4.5, nodes_per_axis=41)
EX = (1.0, 0.0, 0.0)
ORIGIN = (0.0, 0.0, 0.0)


def spec(**overrides):
    return QuadratureSpec(**dict(dict(samples=10, seed=0, diameter=1.0, mass=1.0,
                                      epsilon=1.0, branch=REFLECTIVE), **overrides))


def dsmc_config(**overrides):
    return dsmc.DsmcConfig(**dict(dict(dt=0.1, number_density=1.0, epsilon=1.0,
                                       branch=REFLECTIVE, seed=0,
                                       majorant_relative_speed=1.0), **overrides))


def phase_grid(**overrides):
    return PhaseGrid1D1V(**dict(dict(nx=4, length=1.0, nv=4, vmax=1.0,
                                     values=np.zeros((4, 4))), **overrides))


def bimodal_with(mass=1.0, temperature1=1.0, temperature2=1.0):
    return bimodal(GRID, 0.5, ORIGIN, temperature1, 0.5, ORIGIN, temperature2,
                   mass * UNIT_MASS)


def semi_lagrangian(dt):
    grid = phase_grid_from_function(lambda x, v: 0.0 * x * v, 8, 1.0, 8, 1.0)
    return semi_lagrangian_run(grid, ForceField(force=(0, 0, 0), mass=1.0), dt, 1)


CALLERS = {
    "Species.mass": ("mass", lambda x: Species(mass=x, diameter=1.0)),
    "Species.diameter": ("diameter", lambda x: Species(mass=1.0, diameter=x)),
    "VelocityGrid.vmax": ("vmax", lambda x: VelocityGrid(vmax=x, nodes_per_axis=9)),
    "QuadratureSpec.diameter": ("diameter", lambda x: spec(diameter=x)),
    "QuadratureSpec.mass": ("mass", lambda x: spec(mass=x)),
    "DsmcConfig.dt": ("dt", lambda x: dsmc_config(dt=x)),
    "DsmcConfig.number_density": ("number_density",
                                  lambda x: dsmc_config(number_density=x)),
    "DsmcConfig.majorant_relative_speed": (
        "majorant_relative_speed", lambda x: dsmc_config(majorant_relative_speed=x)),
    "ForceField.mass": ("mass", lambda x: ForceField(force=EX, mass=x)),
    "PhaseGrid1D1V.length": ("length", lambda x: phase_grid(length=x)),
    "PhaseGrid1D1V.vmax": ("vmax", lambda x: phase_grid(vmax=x)),
    "semi_lagrangian_run.dt": ("dt", semi_lagrangian),
    "maxwellian.density": ("density", lambda x: maxwellian(GRID, x, ORIGIN, 1.0, UNIT_MASS)),
    "maxwellian.temperature": ("temperature",
                               lambda x: maxwellian(GRID, 1.0, ORIGIN, x, UNIT_MASS)),
    "maxwellian.mass": ("mass",
                        lambda x: maxwellian(GRID, 1.0, ORIGIN, 1.0, x * UNIT_MASS)),
    "bimodal.mass": ("mass", lambda x: bimodal_with(mass=x)),
    "bimodal.temperature1": ("temperature1", lambda x: bimodal_with(temperature1=x)),
    "bimodal.temperature2": ("temperature2", lambda x: bimodal_with(temperature2=x)),
    "embed.lambda": ("lambda", lambda x: embed((0.1, 0, 0), x)),
    "chart_jacobian.lambda": ("lambda", lambda x: chart_jacobian((0.1, 0, 0), x)),
    "match_generator.mass": ("mass", lambda x: match_generator(EX, x, 1.0)),
}


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_nonpositive_or_nonfinite_value_is_rejected_by_name(caller, value):
    field, build = CALLERS[caller]
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be positive and finite"):
        build(value)


# name in the error, the value, a call taking it: each raised an unnamed TypeError
# from its comparison before the rules checked the value's type
NOT_REAL = {
    "Species.mass": ("mass", "'1'", lambda: Species(mass="1", diameter=1.0)),
    "embed.lambda": ("lambda", "'1'", lambda: embed((0.1, 0, 0), "1")),
    "ForceField.mass": ("mass", "'1'", lambda: ForceField(np.zeros(3), "1")),
    "semi_lagrangian_run.dt": ("dt", "None", lambda: semi_lagrangian(None)),
    "sample_maxwellian_ensemble.temperature": (
        "temperature", "'1'", lambda: dsmc.sample_maxwellian_ensemble(4, UNIT, EX, "1", 0)),
    "exp_subgroup.tau": ("tau", "None", lambda: exp_subgroup(PureQuaternion((0.3, 0, 0)), None)),
}


@pytest.mark.parametrize("caller", sorted(NOT_REAL))
def test_a_value_that_is_not_a_real_number_is_rejected_by_name(caller):
    name, shown, build = NOT_REAL[caller]
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got {shown}$"):
        build()


def test_a_species_that_is_not_a_species_is_rejected_by_name():
    with pytest.raises(ValueError, match="^species must be a Species, got None$"):
        dsmc.sample_maxwellian_ensemble(10, None, ORIGIN, 1.0, 0)


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_the_same_callers_accept_a_positive_value(caller):
    _, build = CALLERS[caller]
    build(1.0)


# field name, constructor taking the array, a valid array, an array of another shape
FROZEN = {
    "SpherePoint.theta": ("theta", SpherePoint, (1.0, 0.0, 0.0, 0.0), [[1.0, 0.0, 0.0, 0.0]]),
    "ChartCoords.vstar": ("vstar", ChartCoords, (0.1, 0.05, -0.02), (0.1, 0.05)),
    "PureQuaternion.xi": ("xi", PureQuaternion, (0.3, -0.1, 0.2), [[0.3, -0.1, 0.2]]),
    "DiscreteDistribution.values": ("values", lambda a: DiscreteDistribution(
        VelocityGrid(vmax=4.0, nodes_per_axis=4), a), np.ones((4, 4, 4)), np.ones((4, 4, 5))),
    "ParticleEnsemble.velocities": ("velocities", lambda a: dsmc.ParticleEnsemble(
        velocities=a, species=UNIT), np.zeros((2, 3)), np.zeros((3, 2))),
    "ForceField.force": ("force", lambda a: ForceField(force=a, mass=1.0), EX, (1.0, 2.0)),
    "PhaseGrid1D1V.values": ("values", lambda a: phase_grid(values=a), np.zeros((4, 4)),
                             np.zeros(16)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("caller", sorted(FROZEN))
def test_array_field_owns_a_read_only_copy_and_rejects_non_finite_by_name(caller, value):
    field, build, valid, _ = FROZEN[caller]
    passed = np.array(valid, dtype=np.float64)
    stored = getattr(build(passed), field)
    passed.flat[0] = value
    np.testing.assert_array_equal(stored, valid)
    assert not stored.flags.writeable
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be finite"):
        build(passed)


@pytest.mark.parametrize("caller", sorted(FROZEN))
def test_array_field_adopts_a_sealed_owned_array(caller):
    field, build, valid, _ = FROZEN[caller]
    passed = np.array(valid, dtype=np.float64)
    passed.setflags(write=False)
    assert getattr(build(passed), field) is passed


@pytest.mark.parametrize("caller", sorted(FROZEN))
def test_array_field_copies_a_read_only_view_of_a_writeable_base(caller):
    field, build, valid, _ = FROZEN[caller]
    base = np.array(valid, dtype=np.float64)
    view = base[...]
    view.setflags(write=False)
    stored = getattr(build(view), field)
    base.flat[0] = 7.0
    assert stored is not view
    np.testing.assert_array_equal(stored, valid)
    assert stored.flags.owndata and not stored.flags.writeable


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("caller", sorted(FROZEN))
def test_array_field_rejects_a_sealed_non_finite_array_by_name(caller, value):
    field, build, valid, _ = FROZEN[caller]
    passed = np.array(valid, dtype=np.float64)
    passed.flat[-1] = value
    passed.setflags(write=False)
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be finite"):
        build(passed)


@pytest.mark.parametrize("caller", sorted(FROZEN))
def test_array_field_rejects_another_shape_naming_both_shapes(caller):
    field, build, _, wrong = FROZEN[caller]
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must have shape \\(.+\\), "
                                         f"got {re.escape(str(np.shape(wrong)))}$"):
        build(wrong)


ENSEMBLE = dsmc.ParticleEnsemble(velocities=np.zeros((2, 3)), species=UNIT)


def cli_key(subcommand, key):
    """The CLI schema's count rule for one key; its errors name the key."""
    def build(x):
        parameters = dict(VALID_PARAMETERS[subcommand], **{key: x})
        return cli.parse_config(json.dumps({"subcommand": subcommand,
                                            "parameters": parameters}))
    return f"parameters.{key}: value", build


# name in the error, constructor taking the count, the least count accepted
COUNTS = {
    "VelocityGrid.nodes_per_axis": (
        "nodes_per_axis", lambda n: VelocityGrid(vmax=4.0, nodes_per_axis=n), 4),
    "PhaseGrid1D1V.nx": ("nx", lambda n: phase_grid(nx=n), 4),
    "PhaseGrid1D1V.nv": ("nv", lambda n: phase_grid(nv=n), 4),
    "QuadratureSpec.samples": ("samples", lambda n: spec(samples=n), 2),
    "sample_maxwellian_ensemble.count": (
        "count", lambda n: dsmc.sample_maxwellian_ensemble(n, UNIT, EX, 1.0, 0), 2),
    "dsmc.run.n_steps": ("n_steps", lambda n: dsmc.run(ENSEMBLE, dsmc_config(), n), 0),
    "dsmc.run.sample_every": (
        "sample_every", lambda n: dsmc.run(ENSEMBLE, dsmc_config(), 1, n), 1),
    "semi_lagrangian_run.n_steps": ("n_steps", lambda n: semi_lagrangian_run(
        phase_grid(), ForceField(force=EX, mass=1.0), 0.1, n), 0),
    "audit_jacobian.n_configs": ("n_configs", lambda n: audit_jacobian(n_configs=n), 1),
    "audit_energy_formula.n_configs": (
        "n_configs", lambda n: audit_energy_formula(n_configs=n), 1),
    **{f"cli.{subcommand}.{key}": (*cli_key(subcommand, key), minimum)
       for subcommand, key, minimum in [
           ("operator", "nodes_per_axis", 4), ("operator", "samples", 2),
           ("dsmc", "particles", 2), ("dsmc", "steps", 0), ("dsmc", "sample_every", 1),
           ("transport", "nx", 4), ("transport", "nv", 4), ("transport", "steps", 0),
           ("audit", "jacobian_configs", 1), ("audit", "stokes_samples", 2),
           ("audit", "stokes_nodes", 4), ("audit", "mass_samples", 2),
           ("audit", "mass_nodes", 4)]},
}


@pytest.mark.parametrize("caller", sorted(COUNTS))
def test_count_accepts_the_least_and_rejects_non_integers_and_fewer_by_name(caller):
    name, build, minimum = COUNTS[caller]
    build(minimum)
    for value in (1.5, True, float(minimum)):
        with pytest.raises((ValueError, ConfigError),
                           match=f"^{re.escape(name)} must be an integer"):
            build(value)
    with pytest.raises((ValueError, ConfigError),
                       match=f"^{re.escape(name)} must be at least {minimum}"):
        build(minimum - 1)


A, B, NORMAL = (1, 2, 3), (-2, 0, 1), (0, 0, 1)
WIDE = VelocityGrid(vmax=6.0, nodes_per_axis=41)
GAS = maxwellian(GRID, 1.0, ORIGIN, 1.0, UNIT_MASS)

# name in the error, call taking the 3-vector, a valid 3-vector of integers
VECTORS = {
    "collide.n": ("n", lambda x: collide(A, B, x, 0.8, REFLECTIVE, UNIT, UNIT), NORMAL),
    "collide.v1": ("v1", lambda x: collide(x, B, NORMAL, 0.8, REFLECTIVE, UNIT, UNIT), A),
    "collide.v2": ("v2", lambda x: collide(A, x, NORMAL, 0.8, REFLECTIVE, UNIT, UNIT), B),
    "inverse_collide.w1": (
        "w1", lambda x: inverse_collide(x, B, NORMAL, 0.8, REFLECTIVE, UNIT, UNIT), A),
    "inverse_collide.w2": (
        "w2", lambda x: inverse_collide(A, x, NORMAL, 0.8, REFLECTIVE, UNIT, UNIT), B),
    "energy_loss_formula.v1": ("v1", lambda x: energy_loss_formula(x, B, 0.8, UNIT, UNIT), A),
    "energy_loss_formula.v2": ("v2", lambda x: energy_loss_formula(A, x, 0.8, UNIT, UNIT), B),
    "actual_energy_loss.v1": (
        "v1", lambda x: actual_energy_loss(x, B, NORMAL, 0.8, UNIT, UNIT), A),
    "actual_energy_loss.v2": (
        "v2", lambda x: actual_energy_loss(A, x, NORMAL, 0.8, UNIT, UNIT), B),
    "jacobian_numeric.v1": (
        "v1", lambda x: jacobian_numeric(x, B, NORMAL, 0.8, REFLECTIVE, UNIT, UNIT), A),
    "jacobian_numeric.v2": (
        "v2", lambda x: jacobian_numeric(A, x, NORMAL, 0.8, REFLECTIVE, UNIT, UNIT), B),
    "evaluate_at.v": ("v", lambda x: evaluate_at(GAS, x, spec()), (1, 0, -1)),
    "evaluate_field.v": ("v", lambda x: evaluate_field(GAS, [A, x], spec()), (1, 0, -1)),
    "maxwellian.bulk_velocity": (
        "bulk_velocity", lambda x: maxwellian(WIDE, 1.0, x, 1.0, UNIT_MASS), (1, -1, 0)),
    "bimodal.u1": ("u1", lambda x: bimodal(WIDE, 0.5, x, 1.0, 0.5, ORIGIN, 1.0, UNIT_MASS),
                   (1, -1, 0)),
    "bimodal.u2": ("u2", lambda x: bimodal(WIDE, 0.5, ORIGIN, 1.0, 0.5, x, 1.0, UNIT_MASS),
                   (1, -1, 0)),
    # a mode of density 0 is skipped, but its velocity keeps its rule
    "bimodal.u2.skipped": (
        "u2", lambda x: bimodal(WIDE, 0.5, ORIGIN, 1.0, 0.0, x, 1.0, UNIT_MASS), (1, -1, 0)),
    "interpolate.v": ("v", lambda x: interpolate(GAS, x), (1, 0, -1)),
    "sample_maxwellian_ensemble.bulk_velocity": (
        "bulk_velocity", lambda x: dsmc.sample_maxwellian_ensemble(4, UNIT, x, 1.0, 0), A),
    "embed.v": ("v", lambda x: embed(x, 10.0), A),
    "chart_jacobian.v": ("v", lambda x: chart_jacobian(x, 10.0), A),
    "match_generator.force": ("force", lambda x: match_generator(x, 2.0, 1.0), A),
    "audit_chain_rule.force": ("force", lambda x: audit_chain_rule([A], 10.0, x, 2.0), B),
    "audit_chain_rule.point": ("point", lambda x: audit_chain_rule([B, x], 10.0, B, 2.0), A),
}


def _bits(result):
    """A result with every number replaced by its float64 bytes, for exact comparison."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, field.name) for field in dataclasses.fields(result)]
    if isinstance(result, dict):
        result = list(result.items())
    if isinstance(result, (tuple, list)):
        return [_bits(item) for item in result]
    if isinstance(result, (int, float, np.ndarray)):
        return np.asarray(result, dtype=np.float64).tobytes()
    return result


@pytest.mark.parametrize("shape", [(), (2,), (6,), (1, 3), (3, 1)])
@pytest.mark.parametrize("caller", sorted(VECTORS))
def test_3_vector_of_another_shape_is_rejected_by_name(caller, shape):
    name, build, _ = VECTORS[caller]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must have shape \\(3,\\), "
                                         f"got {re.escape(str(shape))}$"):
        build(np.zeros(shape))


@pytest.mark.parametrize("caller", sorted(VECTORS))
def test_3_vector_as_a_list_tuple_or_int_list_reads_as_the_float64_array(caller):
    _, build, valid = VECTORS[caller]
    want = _bits(build(np.array(valid, dtype=np.float64)))
    floats = [float(x) for x in valid]
    for form in (floats, tuple(floats), list(valid)):
        assert _bits(build(form)) == want


@pytest.mark.parametrize("value", [(math.nan, 0, 0), (0, math.inf, 0), (0, 0, -math.inf)])
@pytest.mark.parametrize("caller", sorted(VECTORS))
def test_non_finite_3_vector_is_rejected_by_name(caller, value):
    name, build, _ = VECTORS[caller]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite$"):
        build(value)


def cli_mode_density(key):
    """The CLI schema's nonnegative rule for one bimodal mode density; its errors name it."""
    def build(x):
        distribution = dict(VALID_PARAMETERS["operator-bimodal"]["distribution"], **{key: x})
        parameters = dict(VALID_PARAMETERS["operator-bimodal"], distribution=distribution)
        return cli.parse_config(json.dumps({"subcommand": "operator",
                                            "parameters": parameters}))
    return f"parameters.distribution.{key}", build


# name in the error, call taking the value
NONNEGATIVE = {
    "bimodal.density1": (
        "density1", lambda x: bimodal(GRID, x, ORIGIN, 1.0, 0.5, ORIGIN, 1.0, UNIT_MASS)),
    "bimodal.density2": (
        "density2", lambda x: bimodal(GRID, 0.5, ORIGIN, 1.0, x, ORIGIN, 1.0, UNIT_MASS)),
    "sample_maxwellian_ensemble.temperature": (
        "temperature", lambda x: dsmc.sample_maxwellian_ensemble(4, UNIT, EX, x, 0)),
    "cli.operator.density1": cli_mode_density("density1"),
    "cli.operator.density2": cli_mode_density("density2"),
}


@pytest.mark.parametrize("caller", sorted(NONNEGATIVE))
def test_nonnegative_value_accepts_zero_and_rejects_negative_or_non_finite_by_name(caller):
    name, build = NONNEGATIVE[caller]
    build(0.0)
    with pytest.raises((ValueError, ConfigError),
                       match=f"^{re.escape(name)}(: value)? must be nonnegative and finite, "
                             f"got -1"):
        build(-1.0)
    for value in (math.inf, math.nan):
        # the CLI's number rule rejects a non-finite number first, also by name
        with pytest.raises((ValueError, ConfigError),
                           match=f"^{re.escape(name)}(: value)? must be "
                                 f"(nonnegative and )?finite"):
            build(value)


def _former_chart_jacobian(v, lam: float, hemisphere: str = "lower"):
    """chart_jacobian as it was before it read its point through embed, verbatim."""
    require_positive("lambda", lam)
    sign = _hemisphere_sign(hemisphere)
    v = require_vector3("v", v)
    rho_sq = float(v @ v) / lam**2
    if not rho_sq < 1.0:
        raise SpeedExceedsLambda(f"|v| must be below lambda = {lam:g}")
    q = math.sqrt(1.0 - rho_sq)
    denom = 1.0 - sign * q
    if denom <= CHART_GUARD:
        raise ChartSingularity(f"1 - theta4 = {denom!r} is inside the guard {CHART_GUARD}")
    matrix = np.eye(3) / (lam * denom) - sign * np.outer(v, v) / (lam**3 * denom**2 * q)
    return matrix, float(np.linalg.det(matrix))


@pytest.mark.parametrize("lam", [1.0, 2.0])  # the audit's lambda, and a power of two
@pytest.mark.parametrize("hemisphere", ["lower", "upper"])
def test_chart_jacobian_through_embed_keeps_the_former_bits(hemisphere, lam):
    generator = np.random.default_rng(20)
    directions = generator.standard_normal((200, 3))
    radii = lam * generator.uniform(0.0, 1.0, 200) ** (1.0 / 3.0)
    velocities = directions / np.linalg.norm(directions, axis=1)[:, None] * radii[:, None]
    for v in [*velocities, ORIGIN, (0.999999 * lam, 0.0, 0.0)]:
        try:
            want = _former_chart_jacobian(v, lam, hemisphere)
        except ChartSingularity:  # the upper hemisphere's rest velocity maps to p
            with pytest.raises(ChartSingularity):
                chart_jacobian(v, lam, hemisphere)
            continue
        assert _bits(chart_jacobian(v, lam, hemisphere)) == _bits(want)
