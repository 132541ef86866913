"""Kinetic-theory engine: collision rules, collision-term quadrature with a
particle-simulation cross-oracle, sphere-chart geometry, transport solvers,
and a numerical claim-audit harness."""

from .collision_kernel import (
    CollisionBranch,
    CollisionEvent,
    Species,
    collide,
    energy_loss_formula,
    inverse_collide,
    jacobian_analytic,
    jacobian_numeric,
    jacobian_signed,
)
from .collision_operator import (
    GainNormalization,
    MomentRates,
    QuadratureSpec,
    RateEstimate,
    evaluate_at,
    evaluate_field,
    moment_rates,
)
from .distribution import (
    DiscreteDistribution,
    VelocityGrid,
    bimodal,
    interpolate,
    load_distribution,
    maxwellian,
    moments,
    save_distribution,
)
from .dsmc import DsmcConfig, ParticleEnsemble, sample_maxwellian_ensemble
from .sphere_group import (
    ChartCoords,
    PureQuaternion,
    SpherePoint,
    chart_jacobian,
    embed,
    exp_subgroup,
    match_generator,
    project_chart,
    pushforward_derivative,
    quaternion_multiply,
    unproject_chart,
)
from .transport_solver import (
    ForceField,
    PhaseGrid1D1V,
    exact_solution,
    load_phase_grid,
)
