"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import json
import shutil
import time

import numpy as np

from conftest import UNIT_MASS, fit_cooling_exponent
from quadrature_oracle import brute_force_rate
from test_dsmc_reference import _reference_moments
from kinetics import claim_audit as ca
from kinetics import cli, dsmc
from kinetics.collision_kernel import CollisionBranch, jacobian_numeric, transform_velocities
from kinetics.collision_operator import (
    GainNormalization,
    QuadratureSpec,
    evaluate_field,
    moment_rates,
)
from kinetics.constants import BOLTZMANN
from kinetics.distribution import VelocityGrid, bimodal, maxwellian
from kinetics.dsmc import Species
from kinetics.sphere_group import (
    ChartCoords,
    PureQuaternion,
    chart_jacobian,
    embed,
    exp_subgroup,
    project_chart,
    pushforward_derivative,
    quaternion_multiply,
    unproject_chart,
)
from kinetics.transport_solver import (
    ForceField,
    exact_solution,
    phase_grid_from_function,
    semi_lagrangian_run,
)

SPECIES = Species(mass=UNIT_MASS, diameter=1.0)


def report(name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


def test_jacobian_claim():
    start = time.time()
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(100):
        m1 = float(rng.uniform(0.5, 3.0))
        m2 = float(rng.uniform(0.5, 3.0))
        epsilon = float(rng.uniform(0.05, 1.0))
        branch = CollisionBranch.REFLECTIVE if rng.uniform() < 0.5 else CollisionBranch.PASSING
        v1 = rng.uniform(-3, 3, 3)
        v2 = rng.uniform(-3, 3, 3)
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        det = jacobian_numeric(v1, v2, n, epsilon, branch, m1, m2)
        worst = max(worst, abs(det - epsilon))
    elapsed = time.time() - start
    assert worst < 1e-6
    assert elapsed < 5.0
    report("jacobian-claim", f"max |det - eps| = {worst:.2e} over 100 configs, "
                             f"{elapsed:.1f}s")


def test_conservation():
    start = time.time()
    rng = np.random.default_rng(7)
    total = 1_000_000
    worst = 0.0
    for branch in CollisionBranch:
        count = total // 2
        m1 = rng.uniform(0.5, 3.0, (count, 1))
        m2 = rng.uniform(0.5, 3.0, (count, 1))
        v1 = rng.uniform(-3, 3, (count, 3))
        v2 = rng.uniform(-3, 3, (count, 3))
        n = rng.standard_normal((count, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        epsilon = rng.uniform(0.1, 1.0, (count, 1))
        w1, w2 = transform_velocities(v1, v2, n, epsilon, branch, m1, m2)
        before = m1 * v1 + m2 * v2
        after = m1 * w1 + m2 * w2
        scale = (m1 * np.linalg.norm(v1, axis=1, keepdims=True)
                 + m2 * np.linalg.norm(v2, axis=1, keepdims=True))
        worst = max(worst, float(np.max(np.abs(after - before) / scale)))
    assert worst < 1e-12

    ensemble = dsmc.sample_maxwellian_ensemble(100_000, SPECIES, (0, 0, 0), 1.0, seed=1)
    v0 = ensemble.velocities
    ke0 = float(np.sum(v0 * v0))
    p0 = np.sum(v0, axis=0)
    config = dsmc.DsmcConfig(dt=1.2e-4, number_density=1.0, epsilon=1.0,
                             branch=CollisionBranch.REFLECTIVE, seed=2,
                             majorant_relative_speed=1.0)
    final = dsmc.advance(ensemble, config, range(10_000))
    ke_res = abs(float(np.sum(final.velocities**2)) - ke0) / ke0
    p_scale = float(np.sum(np.linalg.norm(v0, axis=1)))
    p_drift = float(np.max(np.abs(np.sum(final.velocities, axis=0) - p0))) / p_scale
    elapsed = time.time() - start
    assert ke_res < 1e-9
    assert p_drift < 1e-12
    assert elapsed < 60.0
    report("conservation", f"momentum residual {worst:.2e} over 1e6 collisions; "
                           f"elastic energy residual {ke_res:.2e} and momentum "
                           f"drift {p_drift:.2e} over 1e4 DSMC steps at N=1e5; "
                           f"{elapsed:.1f}s")


def test_energy_formula_audit(tmp_path):
    head_on, oblique = ca.audit_energy_formula(seed=0, n_configs=300)
    assert head_on.residual < 1e-12
    assert head_on.verdict == "consistent"
    assert oblique.verdict == "inconsistent"
    # grazing impact: the declared loss keeps its full value while the impact
    # rules dissipate nothing
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        m1, m2 = rng.uniform(0.5, 3.0, 2)
        epsilon = float(rng.uniform(0.05, 0.999))
        mu = m1 * m2 / (m1 + m2)
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        transverse = rng.standard_normal(3)
        transverse -= (transverse @ n) * n
        transverse /= np.linalg.norm(transverse)
        v2 = rng.uniform(-2, 2, 3)
        v1 = v2 + float(rng.uniform(0.5, 3.0)) * transverse
        from kinetics.collision_kernel import actual_energy_loss, energy_loss_formula
        g = v1 - v2
        formula = energy_loss_formula(v1, v2, epsilon, m1, m2)
        actual = actual_energy_loss(v1, v2, n, epsilon, m1, m2)
        predicted = 0.5 * (1.0 - epsilon**2) * mu * float(g @ g)
        worst = max(worst, abs((formula - actual) - predicted) / predicted)
    assert worst < 1e-12
    csv_path = tmp_path / "audit.csv"
    csv_path.write_text(cli.audit_csv_text([head_on, oblique]))
    text = csv_path.read_text()
    assert "energy-loss-formula-oblique" in text and "inconsistent" in text
    report("energy-formula-audit", f"head-on residual {head_on.residual:.2e}; "
                                   f"grazing closed-form residual {worst:.2e}; "
                                   f"CSV records the inconsistency")


def test_elastic_equilibrium_fixed_point():
    start = time.time()
    grid = VelocityGrid(vmax=5.5, nodes_per_axis=197)
    f = maxwellian(grid, 1.0, (0, 0, 0), 1.0, UNIT_MASS)
    probes = ca.equilibrium_ray_probes(grid, 1.0)
    assert len(probes) == 20
    spec = QuadratureSpec(samples=100_000, seed=4, diameter=1.0, mass=UNIT_MASS,
                          epsilon=1.0, branch=CollisionBranch.REFLECTIVE,
                          normalization=GainNormalization.RESTITUTION_WEIGHTED)
    estimates = evaluate_field(f, probes, spec, threads=4)
    ratios = [abs(e.value) / e.std_error for e in estimates]
    elapsed = time.time() - start
    assert max(ratios) <= 3.0
    assert elapsed < 120.0
    report("elastic-equilibrium-fixed-point",
           f"20 probes, 1e5 samples each, max |value|/sigma = {max(ratios):.2f}; "
           f"{elapsed:.1f}s")


def test_stokes_claim_audit():
    start = time.time()
    grid = VelocityGrid(vmax=6.0, nodes_per_axis=61)
    f = bimodal(grid, 0.5, (2, 0, 0), 1.0, 0.5, (-2, 0, 0), 1.0, UNIT_MASS)
    centers = [np.array([2.0, 0, 0]), np.array([-2.0, 0, 0])]
    spec = QuadratureSpec(samples=100_000, seed=3, diameter=1.0, mass=UNIT_MASS,
                          epsilon=1.0, branch=CollisionBranch.REFLECTIVE,
                          normalization=GainNormalization.RESTITUTION_WEIGHTED)
    estimates = evaluate_field(f, centers, spec, threads=2)
    for center, estimate in zip(centers, estimates):
        assert abs(estimate.value) > 3.0 * estimate.std_error
        oracle = brute_force_rate(f, center, spec, 8, 8, 8)
        assert np.sign(oracle) == np.sign(estimate.value)
    row = ca.audit_stokes_claim([("bimodal", f, centers)], spec, threads=2)[0]
    assert row.verdict == "inconsistent"
    elapsed = time.time() - start
    assert elapsed < 120.0
    report("stokes-claim-audit",
           f"mode-center estimates {estimates[0].value:+.3e}, "
           f"{estimates[1].value:+.3e} beyond 3 sigma, brute-force sign match, "
           f"verdict row inconsistent; {elapsed:.1f}s")


def _kinetic_energy(v: np.ndarray) -> float:
    """Kinetic energy per volume of a unit-density ensemble of UNIT_MASS particles."""
    return _reference_moments(v, UNIT_MASS, 1.0 / v.shape[0], 1.0)[2]


def test_cross_oracle_moment_rates():
    start = time.time()
    grid = VelocityGrid(vmax=4.5, nodes_per_axis=61)
    f = maxwellian(grid, 1.0, (0, 0, 0), 1.0, UNIT_MASS)
    spec = QuadratureSpec(samples=2_000_000, seed=5, diameter=1.0, mass=UNIT_MASS,
                          epsilon=0.8, branch=CollisionBranch.REFLECTIVE,
                          normalization=GainNormalization.STANDARD_GRANULAR)
    rates = moment_rates(f, spec, threads=4)[0]

    replicas = 16
    window_steps = 10
    dt = 2.5e-3
    slopes = []
    for r in range(replicas):
        ensemble = dsmc.sample_maxwellian_ensemble(20_000, SPECIES, (0, 0, 0), 1.0,
                                                   seed=100 + r)
        e0 = _kinetic_energy(ensemble.velocities)
        config = dsmc.DsmcConfig(dt=dt, number_density=1.0, epsilon=0.8,
                                 branch=CollisionBranch.REFLECTIVE, seed=200 + r,
                                 majorant_relative_speed=1.0)
        final = dsmc.advance(ensemble, config, range(window_steps))
        e1 = _kinetic_energy(final.velocities)
        slopes.append((e1 - e0) / (window_steps * dt))
    slopes = np.array(slopes)
    dsmc_rate = float(np.mean(slopes))
    dsmc_sigma = float(np.std(slopes, ddof=1) / np.sqrt(replicas))
    combined = np.hypot(rates.energy.std_error, dsmc_sigma)
    difference = abs(rates.energy.value - dsmc_rate)
    elapsed = time.time() - start
    assert difference <= 3.0 * combined
    assert elapsed < 180.0
    report("cross-oracle-moment-rates",
           f"operator {rates.energy.value:.4e} +- {rates.energy.std_error:.1e}, "
           f"particle oracle {dsmc_rate:.4e} +- {dsmc_sigma:.1e}, "
           f"difference {difference / combined:.2f} combined sigma; {elapsed:.1f}s")


def test_gain_weighting_mass_audit(tmp_path):
    grid = VelocityGrid(vmax=4.5, nodes_per_axis=61)
    f = maxwellian(grid, 1.0, (0, 0, 0), 1.0, UNIT_MASS)
    spec = QuadratureSpec(samples=1_000_000, seed=0, diameter=1.0, mass=UNIT_MASS,
                          epsilon=1.0, branch=CollisionBranch.REFLECTIVE,
                          normalization=GainNormalization.RESTITUTION_WEIGHTED)
    reports = ca.audit_mass_conservation([0.8], spec, f, threads=4)
    csv_path = tmp_path / "audit.csv"
    csv_path.write_text(cli.audit_csv_text(reports))
    import csv as csv_module
    with open(csv_path, newline="") as handle:
        rows = {row["claim_id"]: row for row in csv_module.DictReader(handle)}
    weighted = rows["density-conservation-restitution_weighted-eps0.8"]
    standard = rows["density-conservation-standard_granular-eps0.8"]
    assert weighted["verdict"] == "inconsistent"
    assert float(weighted["residual"]) > 3.0
    assert standard["verdict"] == "consistent"
    report("gain-weighting-mass-audit",
           f"restitution-weighted density rate at {float(weighted['residual']):.1f} "
           f"sigma, standard granular at {float(standard['residual']):.1f} sigma; "
           f"both rows in CSV")


def test_geometry():
    start = time.time()
    rng = np.random.default_rng(9)
    worst_rt = 0.0
    for _ in range(1000):
        coords = ChartCoords(rng.uniform(-3, 3, 3))
        back = project_chart(unproject_chart(coords))
        worst_rt = max(worst_rt, float(np.max(np.abs(back.vstar - coords.vstar))))
    assert worst_rt < 1e-12

    worst_jac = 0.0
    step = 1e-6
    for _ in range(50):
        lam = float(rng.uniform(0.8, 2.5))
        v = rng.uniform(-0.4, 0.4, 3) * lam
        matrix, _ = chart_jacobian(v, lam, "lower")
        fd = np.zeros((3, 3))
        for i in range(3):
            vp = v.copy()
            vm = v.copy()
            vp[i] += step
            vm[i] -= step
            fd[i, :] = (project_chart(embed(vp, lam, "lower")).vstar
                        - project_chart(embed(vm, lam, "lower")).vstar) / (2 * step)
        worst_jac = max(worst_jac, float(np.max(np.abs(matrix - fd))))
    assert worst_jac < 1e-6

    worst_hom = 0.0
    for _ in range(100):
        u = PureQuaternion(rng.uniform(-2, 2, 3))
        tau, sigma = rng.uniform(-3, 3, 2)
        combined = exp_subgroup(u, tau + sigma)
        product = quaternion_multiply(exp_subgroup(u, tau), exp_subgroup(u, sigma))
        worst_hom = max(worst_hom, float(np.max(np.abs(combined.theta - product.theta))))
    assert worst_hom < 1e-12

    # Linearizing the projection at the identity sends the tangent vector
    # (0, u1, u2, u3) to (u3, u1, u2): the orbit's initial chart velocity.
    worst_push = 0.0
    for _ in range(50):
        a = rng.uniform(-2, 2, 3)
        u = PureQuaternion(rng.uniform(-1.5, 1.5, 3))
        got = pushforward_derivative(lambda vs, a=a: float(a @ vs), u)
        worst_push = max(worst_push, abs(got - float(a @ np.roll(u.xi, 1))))
    assert worst_push < 1e-8
    elapsed = time.time() - start
    assert elapsed < 5.0
    report("geometry", f"round-trip {worst_rt:.1e}, chart-jacobian FD {worst_jac:.1e}, "
                       f"homomorphism {worst_hom:.1e}, pushforward {worst_push:.1e}; "
                       f"{elapsed:.1f}s")


def test_transport():
    start = time.time()

    def blob(x, v):
        return np.exp(-((x - 3.0) ** 2) / (2 * 0.5**2)
                      - ((v - 0.4) ** 2) / (2 * 0.4**2))

    field = ForceField(force=(0.6, 0, 0), mass=1.5)
    a = field.acceleration[0]
    t_end = 1.6
    errors = []
    for nx, nv, steps in ((64, 64, 40), (128, 128, 80), (256, 256, 160)):
        grid = phase_grid_from_function(blob, nx, 10.0, nv, 3.0)
        result = semi_lagrangian_run(grid, field, t_end / steps, steps)
        x = result.grid.x_axis[:, None]
        v = result.grid.v_axis[None, :]
        exact = blob(x - v * t_end + 0.5 * a * t_end**2, v - a * t_end)
        errors.append(float(np.max(np.abs(result.grid.values - exact))))
    orders = [float(np.log2(errors[i] / errors[i + 1])) for i in range(2)]
    assert min(orders) >= 1.9

    def f0(r, v):
        return float(np.exp(-np.sum((np.asarray(r) - 1.0) ** 2)
                            - np.sum(np.asarray(v) ** 2)))

    field3 = ForceField(force=(0.4, -0.7, 0.2), mass=1.3)
    a3 = field3.acceleration
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        r = rng.uniform(-2, 2, 3)
        v = rng.uniform(-2, 2, 3)
        t = float(rng.uniform(0, 2))
        s = float(rng.uniform(0, 2))
        base = exact_solution(f0, field3, r, v, t)
        advanced = exact_solution(f0, field3, r + v * s + 0.5 * a3 * s * s, v + a3 * s, t + s)
        worst = max(worst, abs(advanced - base))
    assert worst < 1e-12
    elapsed = time.time() - start
    assert elapsed < 60.0
    report("transport", f"convergence orders {orders[0]:.2f}, {orders[1]:.2f}; "
                        f"characteristic invariance {worst:.1e}; {elapsed:.1f}s")


def test_dsmc_cooling_sanity():
    start = time.time()
    count = 100_000
    ensemble = dsmc.sample_maxwellian_ensemble(count, SPECIES, (0, 0, 0), 1.0, seed=6)
    config = dsmc.DsmcConfig(dt=2.5e-3, number_density=1.0, epsilon=0.9,
                             branch=CollisionBranch.REFLECTIVE, seed=7,
                             majorant_relative_speed=1.0)
    series = dsmc.run(ensemble, config, 8000, sample_every=40)
    exponent, t0 = fit_cooling_exponent(series[:, 0], series[:, 5])
    elapsed = time.time() - start
    assert -2.3 <= exponent <= -1.7
    assert elapsed < 120.0
    # Haff's law T0 / (1 + t/t0)^2 for the kernel (1/4) d^2 |g.n| over the full
    # sphere, with the Sonine correction zeta -> zeta (1 + 3 a2 / 16) at the
    # homogeneous cooling state's a2 (van Noije & Ernst 1998; Brilliantov & Poeschel
    # 2004): -0.01456 at eps 0.9 in d = 3
    eps, d = config.epsilon, 3
    a2 = (16 * (1 - eps) * (1 - 2 * eps**2)
          / (9 + 24 * d - eps * (41 - 8 * d) + 30 * eps**2 * (1 - eps)))
    temperature_0 = series[0, 5]
    thermal_speed = np.sqrt(BOLTZMANN * temperature_0 / SPECIES.mass)
    haff_t0 = (3.0 / (np.sqrt(np.pi) * (1 - eps**2) * config.number_density
                      * SPECIES.diameter**2 * thermal_speed) / (1 + 3 * a2 / 16))
    haff = temperature_0 / (1 + series[:, 0] / haff_t0) ** 2
    deviation = float(np.max(np.abs(series[:, 5] / haff - 1)))
    # Tolerance: 3 sampling sigmas of one row's temperature, sqrt(2 / (3N)) each
    # (0.26 % at N = 1e5); an upper bound, since every row starts from row 0's own
    # T0 and leaves the curve only by collision noise. Plus 0.25 % for the step
    # (zeta dt is 6e-4 a step at the start) and for the early transient, while a2
    # relaxes from the Maxwellian's 0 to its cooling-state value over a few
    # collision times (3 |a2| / 16 = 0.27 % of the rate). So the gate, near 1 %,
    # checks the absolute cooling rate but cannot resolve the Sonine correction:
    # leaving out the a2 factor moves T / Haff by only about 0.4 % by t = 20.
    tolerance = 3.0 * np.sqrt(2.0 / (3.0 * count)) + 0.0025
    assert deviation <= tolerance
    report("dsmc-cooling-sanity",
           f"T(0) {series[0, 5]:.3f} -> T(end) {series[-1, 5]:.4f}, fitted "
           f"exponent {exponent:.3f} (t0 {t0:.2f}); max |T / Haff - 1| {deviation:.2%} "
           f"against {tolerance:.2%} (Haff t0 {haff_t0:.3f}); {elapsed:.1f}s")


def test_determinism_across_thread_counts(tmp_path):
    parameters = {
        "collide": {"v1": [0.3, -1.0, 0.2], "v2": [1.0, 0.5, 0.0],
                    "n": [0.6, 0.8, 0.0], "epsilon": 0.7, "branch": "passing"},
        "operator": {"vmax": 4.5, "nodes_per_axis": 41,
                     "distribution": {"kind": "maxwellian"},
                     "mass": UNIT_MASS, "epsilon": 0.9, "samples": 50_000,
                     "probes": [[0.5, 0, 0], [0, 1.0, 0], [-0.3, 0.2, 0.9]]},
        "dsmc": {"particles": 2000, "steps": 50, "sample_every": 10,
                 "dt": 0.01, "mass": UNIT_MASS, "epsilon": 0.9},
        "transport": {"nx": 32, "nv": 32, "dt": 0.05, "steps": 10,
                      "force": [0.3, 0.0, 0.0]},
        # three moment chunks, so the weak-form fan-out has work to split
        "audit": {"jacobian_configs": 10, "stokes_samples": 2000, "stokes_nodes": 61,
                  "mass_samples": 70_000, "mass_nodes": 31},
    }
    assert sorted(parameters) == sorted(cli.SUBCOMMANDS)
    out_dir = tmp_path / "out"
    for seed, (name, params) in enumerate(parameters.items(), start=10):
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps({"subcommand": name, "seed": seed,
                                           "output_dir": str(out_dir),
                                           "parameters": params}))
        outputs = []
        for threads in (1, 8):
            code = cli.main([name, "--config", str(config_path),
                             "--threads", str(threads)])
            assert code == 0
            outputs.append({path.name: path.read_bytes() for path in out_dir.iterdir()})
            shutil.rmtree(out_dir)
        assert "config_echo.json" in outputs[0] and len(outputs[0]) >= 2
        assert outputs[0] == outputs[1], name
    report("determinism", "every output file of all five subcommands, config_echo.json "
                          "included, byte-identical at thread counts 1 and 8")
