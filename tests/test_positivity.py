"""The value rules of errors.py at every caller: require_positive,
frozen_array and require_count."""

import json
import math
import re

import numpy as np
import pytest

from conftest import UNIT_MASS
from test_cli import VALID_PARAMETERS
from kinetics import cli, dsmc
from kinetics.collision_kernel import CollisionBranch, Species
from kinetics.collision_operator import QuadratureSpec
from kinetics.distribution import DiscreteDistribution, VelocityGrid, bimodal, maxwellian
from kinetics.errors import ConfigError
from kinetics.sphere_group import (
    ChartCoords,
    PureQuaternion,
    SpherePoint,
    chart_jacobian,
    embed,
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
    "QuadratureSpec.samples": ("samples", lambda n: spec(samples=n), 1),
    "sample_maxwellian_ensemble.count": (
        "count", lambda n: dsmc.sample_maxwellian_ensemble(n, UNIT, EX, 1.0, 0), 2),
    "dsmc.run.n_steps": ("n_steps", lambda n: dsmc.run(ENSEMBLE, dsmc_config(), n), 0),
    "dsmc.run.sample_every": (
        "sample_every", lambda n: dsmc.run(ENSEMBLE, dsmc_config(), 1, n), 1),
    **{f"cli.{subcommand}.{key}": (*cli_key(subcommand, key), minimum)
       for subcommand, key, minimum in [
           ("operator", "nodes_per_axis", 4), ("operator", "samples", 1),
           ("dsmc", "particles", 2), ("dsmc", "steps", 0), ("dsmc", "sample_every", 1),
           ("transport", "nx", 4), ("transport", "nv", 4), ("transport", "steps", 0),
           ("audit", "jacobian_configs", 1), ("audit", "stokes_samples", 1),
           ("audit", "stokes_nodes", 4), ("audit", "mass_samples", 1),
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
