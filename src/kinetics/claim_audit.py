"""Numerical audits of the collision-model claims, with machine verdicts.

Each audit computes a residual and compares it against a stated threshold;
the verdict is a pure function of that comparison. Statistical audits use a
3-sigma threshold on |estimate| / std_error so quadrature noise is separated
from genuine contradiction; under-specified relations are recorded as
diagnostic-only rows that never carry a pass/fail.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng, sphere_group
from .collision_kernel import (
    CollisionBranch,
    Species,
    actual_energy_loss,
    energy_loss_formula,
    jacobian_numeric,
)
from .collision_operator import (
    GainNormalization,
    QuadratureSpec,
    RateEstimate,
    evaluate_field,
    moment_rates,
)
from .distribution import DiscreteDistribution, VelocityGrid, bimodal, maxwellian
from .errors import require_vector3

VERDICT_CONSISTENT = "consistent"
VERDICT_INCONSISTENT = "inconsistent"
VERDICT_DIAGNOSTIC = "diagnostic-only"

# In-cell offset at which trilinear interpolation error equals its cell
# average (the two-point Gauss abscissa); probe velocities placed there keep
# the equilibrium estimator bias below its Monte Carlo noise.
GAUSS_OFFSET = (1.0 - 1.0 / math.sqrt(3.0)) / 2.0


@dataclass(frozen=True)
class AuditReport:
    """One audited claim: residual, threshold (NaN for a diagnostic row), metadata."""

    claim_id: str
    paper_ref: str
    residual: float
    tolerance_or_sigma: float
    metadata: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        """Derived from the numbers, so no report can contradict them."""
        if math.isnan(self.tolerance_or_sigma):
            return VERDICT_DIAGNOSTIC
        if self.residual <= self.tolerance_or_sigma:
            return VERDICT_CONSISTENT
        return VERDICT_INCONSISTENT


def _sigma_ratio(estimate: RateEstimate) -> float:
    if estimate.value == 0.0:
        return 0.0
    if estimate.std_error == 0.0:
        return float("inf")
    return float(abs(estimate.value) / estimate.std_error)


def audit_jacobian(seed: int = 0, n_configs: int = 100) -> AuditReport:
    """Finite-difference determinant of the pair map versus the restitution."""
    generator = rng.stream(seed, "audit-jacobian")
    worst = 0.0
    forced = [0.3, 0.7, 1.0]
    for branch in CollisionBranch:
        for index in range(n_configs):
            epsilon = forced[index] if index < len(forced) else float(
                generator.uniform(0.05, 1.0))
            s1 = Species(mass=float(generator.uniform(0.5, 3.0)), diameter=1.0)
            s2 = Species(mass=float(generator.uniform(0.5, 3.0)), diameter=1.0)
            v1 = generator.uniform(-2.0, 2.0, 3)
            v2 = generator.uniform(-2.0, 2.0, 3)
            n = generator.standard_normal(3)
            n /= np.linalg.norm(n)
            det = jacobian_numeric(v1, v2, n, epsilon, branch, s1, s2)
            worst = max(worst, abs(det - epsilon))
    return AuditReport(
        "pair-map-determinant-equals-restitution",
        "claim: the pair-velocity map contracts phase-space volume by exactly "
        "the restitution coefficient",
        float(worst), 1e-6,
        {"seed": seed, "configs_per_branch": n_configs},
    )


def audit_energy_formula(seed: int = 0, n_configs: int = 200) -> list[AuditReport]:
    """Stated energy-loss expression versus the deficit the impact rules produce.

    Head-on geometry agrees to round-off; oblique geometry disagrees by
    (1/2)(1 - eps^2) mu (|g|^2 - (g.n)^2), which is reported, not repaired.
    """
    generator = rng.stream(seed, "audit-energy")
    worst_head_on = 0.0
    worst_oblique = 0.0
    worst_closed_form = 0.0
    for _ in range(n_configs):
        s1 = Species(mass=float(generator.uniform(0.5, 3.0)), diameter=1.0)
        s2 = Species(mass=float(generator.uniform(0.5, 3.0)), diameter=1.0)
        epsilon = float(generator.uniform(0.05, 0.999))
        mu = s1.mass * s2.mass / (s1.mass + s2.mass)
        v2 = generator.uniform(-2.0, 2.0, 3)
        n = generator.standard_normal(3)
        n /= np.linalg.norm(n)
        # head-on: relative velocity parallel to n
        v1 = v2 + float(generator.uniform(0.2, 3.0)) * n
        formula = energy_loss_formula(v1, v2, epsilon, s1, s2)
        actual = actual_energy_loss(v1, v2, n, epsilon, s1, s2)
        worst_head_on = max(worst_head_on, abs(formula - actual) / formula)
        # oblique: generic relative velocity
        v1 = v2 + generator.uniform(-2.0, 2.0, 3)
        g = v1 - v2
        formula = energy_loss_formula(v1, v2, epsilon, s1, s2)
        actual = actual_energy_loss(v1, v2, n, epsilon, s1, s2)
        discrepancy = formula - actual
        predicted = 0.5 * (1.0 - epsilon**2) * mu * (float(g @ g) - float(g @ n) ** 2)
        worst_oblique = max(worst_oblique, discrepancy / formula)
        worst_closed_form = max(worst_closed_form,
                                abs(discrepancy - predicted) / max(formula, 1e-300))
    ref = ("claim: energy loss depends on the full relative speed; the impact "
           "rules dissipate only the component along the impact normal")
    head_on = AuditReport("energy-loss-formula-head-on", ref, float(worst_head_on), 1e-12,
                          {"seed": seed, "configs": n_configs})
    oblique = AuditReport("energy-loss-formula-oblique", ref, float(worst_oblique), 1e-12,
                          {"seed": seed, "configs": n_configs,
                           "closed_form_residual": worst_closed_form})
    return [head_on, oblique]


def equilibrium_ray_probes(grid: VelocityGrid, thermal_speed: float) -> list[np.ndarray]:
    """Probe velocities along the axes, offset to the Gauss point of their cell.

    Twenty probes: radii 0.5, 1.1 and 1.7 thermal speeds on both signs of each
    axis, plus two near the origin. Axis-aligned placements keep the
    partner-velocity cell phases unconstrained, which is where the trilinear
    estimator bias is smallest.
    """
    ax = grid.axis
    n = grid.nodes_per_axis
    h = grid.spacing

    def snap(x: float) -> float:
        i = min(int(np.searchsorted(ax, x)), n - 2)
        return float(ax[i] + GAUSS_OFFSET * h)

    probes = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            for r in (0.5, 1.1, 1.7):
                p = np.full(3, snap(0.0))
                p[axis] = snap(sign * r * thermal_speed)
                probes.append(p)
    probes.append(np.full(3, snap(0.0)))
    probes.append(np.array([snap(0.3 * thermal_speed),
                            snap(-0.3 * thermal_speed), snap(0.0)]))
    return probes


def audit_stokes_claim(scenarios, spec: QuadratureSpec, threads: int = 1) -> list[AuditReport]:
    """Does the collision term vanish? One verdict per (label, distribution, probes)."""
    reports = []
    for label, distribution, probes in scenarios:
        estimates = evaluate_field(distribution, probes, spec, threads=threads)
        worst = max(_sigma_ratio(e) for e in estimates)
        reports.append(AuditReport(
            f"vanishing-collision-term-{label}",
            "claim: the collision term vanishes identically, making the "
            "kinetic equation collisionless",
            worst, 3.0,
            {"seed": spec.seed, "samples": spec.samples,
             "probes": len(probes), "epsilon": spec.epsilon,
             "max_abs_rate": max(abs(e.value) for e in estimates)},
        ))
    return reports


def audit_chain_rule(points, lam: float, force, mass: float) -> AuditReport:
    """Scalar-determinant force term versus the full chain-rule matrix.

    Test fields on the lower-hemisphere chart with analytic gradients; the
    difference between J (F/m) . grad(g) and (M^T F/m) . grad(g) is recorded
    per point and summarized. Diagnostic only: no graded claim states which form is meant.
    """
    force = require_vector3("force", force)
    accel = force / mass

    def gradients(vstar):  # of exp(-|v*|^2), (0.7, -1.2, 0.4) . v* and |v*|^2
        return (-2.0 * vstar * math.exp(-float(vstar @ vstar)),
                np.array([0.7, -1.2, 0.4]), 2.0 * vstar)

    differences = []
    for point in points:
        point = require_vector3("point", point)
        matrix, det = sphere_group.chart_jacobian(point, lam)
        vstar = sphere_group.project_chart(sphere_group.embed(point, lam)).vstar
        for grad in gradients(vstar):
            scalar_form = det * float(accel @ grad)
            matrix_form = float((matrix.T @ accel) @ grad)
            differences.append(abs(scalar_form - matrix_form))
    differences = np.array(differences)
    return AuditReport(
        "scalar-determinant-force-term",
        "comparison: scalar-determinant chain rule versus the full derivative "
        "matrix of the chart",
        float(differences.max()), math.nan,
        {"lambda": lam, "hemisphere": "lower", "points": len(points),
         "median_difference": float(np.median(differences)),
         "force": force.tolist(), "mass": mass},
    )


def audit_mass_conservation(epsilons, spec_template: QuadratureSpec,
                            f: DiscreteDistribution,
                            threads: int = 1) -> list[AuditReport]:
    """Density and momentum rates, both gain weightings per restitution, from one set of draws."""
    weightings = [(epsilon, norm) for epsilon in epsilons for norm in GainNormalization]
    all_rates = moment_rates(f, spec_template, threads=threads, weightings=weightings)
    reports = []
    for (epsilon, norm), rates in zip(weightings, all_rates):
        common = {"seed": spec_template.seed, "samples": spec_template.samples,
                  "epsilon": epsilon}
        tag = f"{norm.value}-eps{epsilon:g}"
        reports.append(AuditReport(
            f"density-conservation-{tag}",
            "claim test: particle number is conserved by the collision "
            "term under this gain weighting",
            _sigma_ratio(rates.density), 3.0,
            {**common, "density_rate": rates.density.value,
             "density_sigma": rates.density.std_error,
             "energy_rate": rates.energy.value, "energy_sigma": rates.energy.std_error}))
        reports.append(AuditReport(
            f"momentum-conservation-{tag}",
            "claim test: momentum is conserved by the collision term "
            "under this gain weighting",
            max(_sigma_ratio(c) for c in rates.momentum), 3.0, common))
    return reports


# The transport audit follows one subgroup orbit, theta(t) = t with C = 0, per test field.
TRANSPORT_GENERATOR = sphere_group.PureQuaternion(np.array([0.3, -0.1, 0.2]))
TRANSPORT_PROBE = sphere_group.ChartCoords(np.array([0.1, 0.05, -0.02]))
TRANSPORT_TIMES = [0.0, 0.25, 0.5, 0.75, 1.0]
TRANSPORT_FIELDS = {
    "zero-field": lambda vstar, t: 0.0,
    "steady-field": lambda vstar, t: math.exp(-float(np.dot(vstar, vstar))),
}


def audit_transport_relation() -> list[AuditReport]:
    """Residual of f(v,t) + theta'(t) f(orbit(theta(t))) - C(v); diagnostic."""
    return [AuditReport(
        f"transport-relation-{label}",
        "diagnostic: residual of the integrated transport relation along "
        "a one-parameter subgroup orbit",
        float(sphere_group.transport_relation_residual(
            test_field, TRANSPORT_GENERATOR, lambda t: t, lambda vstar: 0.0,
            TRANSPORT_TIMES, TRANSPORT_PROBE)), math.nan,
        {"times": [float(t) for t in TRANSPORT_TIMES],
         "generator": TRANSPORT_GENERATOR.xi.tolist()},
    ) for label, test_field in TRANSPORT_FIELDS.items()]


# Grid extents in thermal speeds, and the bimodal grid of the Stokes audit.
STOKES_VMAX_THERMAL = 5.5
BIMODAL_NODES = 61
BIMODAL_DRIFT_THERMAL = 2.0
MASS_VMAX_THERMAL = 4.5


@dataclass(frozen=True)
class AuditSettings:
    """Desk-scale defaults; the full battery runs in a couple of minutes."""

    seed: int = 0
    mass: float = 1.380649e-23
    diameter: float = 1.0
    temperature: float = 1.0
    jacobian_configs: int = 100
    stokes_samples: int = 100_000
    stokes_nodes: int = 197
    mass_samples: int = 1_000_000
    mass_nodes: int = 61


def _stokes_reports(settings: AuditSettings, vth: float, spec: QuadratureSpec,
                    threads: int) -> list[AuditReport]:
    """The Stokes audit rows; its grids are freed on return, before the next stage builds."""
    eq_grid = VelocityGrid(vmax=STOKES_VMAX_THERMAL * vth,
                           nodes_per_axis=settings.stokes_nodes)
    f_eq = maxwellian(eq_grid, density=1.0, bulk_velocity=(0.0, 0.0, 0.0),
                      temperature=settings.temperature, mass=settings.mass)
    drift = BIMODAL_DRIFT_THERMAL * vth
    bi_grid = VelocityGrid(vmax=(BIMODAL_DRIFT_THERMAL + 4.0) * vth,
                           nodes_per_axis=BIMODAL_NODES)
    f_bi = bimodal(bi_grid, 0.5, (drift, 0.0, 0.0), settings.temperature,
                   0.5, (-drift, 0.0, 0.0), settings.temperature, settings.mass)
    bi_probes = equilibrium_ray_probes(bi_grid, vth)
    bi_probes.extend([np.array([drift, 0.0, 0.0]), np.array([-drift, 0.0, 0.0])])
    scenarios = [("maxwellian", f_eq, equilibrium_ray_probes(eq_grid, vth)),
                 ("bimodal", f_bi, bi_probes)]
    return audit_stokes_claim(scenarios, spec, threads=threads)


def run_all_audits(settings: AuditSettings, threads: int = 1) -> list[AuditReport]:
    """Run the full battery and return the rows in a stable order."""
    from .constants import BOLTZMANN

    vth = math.sqrt(BOLTZMANN * settings.temperature / settings.mass)
    reports: list[AuditReport] = [audit_jacobian(seed=settings.seed,
                                                 n_configs=settings.jacobian_configs)]
    reports.extend(audit_energy_formula(seed=settings.seed))
    stokes_spec = QuadratureSpec(
        samples=settings.stokes_samples, seed=settings.seed,
        diameter=settings.diameter, mass=settings.mass, epsilon=1.0,
        branch=CollisionBranch.REFLECTIVE,
        normalization=GainNormalization.RESTITUTION_WEIGHTED)
    reports.extend(_stokes_reports(settings, vth, stokes_spec, threads))

    chain_points = [np.array([0.0, 0.0, 0.0]), np.array([0.3, 0.0, 0.0]),
                    np.array([0.1, -0.2, 0.25]), np.array([-0.4, 0.1, 0.2])]
    reports.append(audit_chain_rule(chain_points, lam=1.0,
                                    force=(1.0, -0.5, 0.25), mass=2.0))

    mass_grid = VelocityGrid(vmax=MASS_VMAX_THERMAL * vth,
                             nodes_per_axis=settings.mass_nodes)
    f_mass = maxwellian(mass_grid, density=1.0, bulk_velocity=(0.0, 0.0, 0.0),
                        temperature=settings.temperature, mass=settings.mass)
    mass_spec = replace(stokes_spec, samples=settings.mass_samples)
    reports.extend(audit_mass_conservation([1.0, 0.8], mass_spec, f_mass,
                                           threads=threads))

    reports.extend(audit_transport_relation())
    return reports


def csv_text(header: list[str], rows) -> str:
    """CSV with "\n" line ends; numbers as shortest round-trip floats."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(x)) if isinstance(x, (int, float, np.floating))
                         else str(x) for x in row])
    return buffer.getvalue()


def audit_csv_text(reports: list[AuditReport]) -> str:
    return csv_text(
        ["claim_id", "paper_ref", "residual", "threshold", "verdict", "metadata_json"],
        [[r.claim_id, r.paper_ref, r.residual, r.tolerance_or_sigma, r.verdict,
          json.dumps(r.metadata, sort_keys=True)] for r in reports])


def audit_summary_text(reports: list[AuditReport]) -> str:
    lines = ["claim audit summary", "==================="]
    for report in reports:
        if report.verdict == VERDICT_DIAGNOSTIC:
            status = f"diagnostic (residual {report.residual:.3e})"
        else:
            status = (f"{report.verdict} (residual {report.residual:.3e}"
                      f" vs threshold {report.tolerance_or_sigma:.3e})")
        lines.append(f"{report.claim_id}: {status}")
    counts: dict[str, int] = {}
    for report in reports:
        counts[report.verdict] = counts.get(report.verdict, 0) + 1
    lines.append("")
    lines.append(", ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    return "\n".join(lines) + "\n"

