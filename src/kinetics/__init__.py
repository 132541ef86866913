"""Kinetic-theory engine: collision rules, collision-term quadrature with a
particle-simulation cross-oracle, sphere-chart geometry, transport solvers,
and a numerical claim-audit harness.

Each public name loads its defining module on first access (PEP 562), so
``import kinetics`` loads none of them and a CLI process loads only the modules
its subcommand runs.
"""

import importlib

# The public names, by defining module.
_IMPORTS = {
    "collision_kernel": ("CollisionBranch", "CollisionEvent", "collide",
                         "energy_loss_formula", "inverse_collide", "jacobian_analytic",
                         "jacobian_numeric", "jacobian_signed"),
    "collision_operator": ("GainNormalization", "MomentRates", "QuadratureSpec",
                           "RateEstimate", "evaluate_at", "evaluate_field", "moment_rates"),
    "distribution": ("DiscreteDistribution", "VelocityGrid", "bimodal", "interpolate",
                     "maxwellian"),
    "dsmc": ("DsmcConfig", "ParticleEnsemble", "Species", "sample_maxwellian_ensemble"),
    "sphere_group": ("ChartCoords", "PureQuaternion", "SpherePoint", "chart_jacobian", "embed",
                     "exp_subgroup", "match_generator", "project_chart",
                     "pushforward_derivative", "quaternion_multiply", "unproject_chart"),
    "transport_solver": ("ForceField", "PhaseGrid1D1V", "exact_solution", "load_phase_grid"),
}
_MODULE_OF = {name: module for module, names in _IMPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name, from its defining module; bound here once read."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
