"""Audit harness: verdict mechanics, reproducibility, report formats."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import UNIT_MASS
from kinetics import claim_audit as ca
from kinetics import cli, collision_operator, rng
from kinetics.collision_kernel import CollisionBranch
from kinetics.collision_operator import (GainNormalization, QuadratureSpec, RateEstimate,
                                         moment_rates)
from kinetics.distribution import VelocityGrid, bimodal, maxwellian


def small_spec(**overrides) -> QuadratureSpec:
    base = dict(samples=40_000, seed=5, diameter=1.0, mass=UNIT_MASS,
                epsilon=1.0, branch=CollisionBranch.REFLECTIVE,
                normalization=GainNormalization.RESTITUTION_WEIGHTED)
    base.update(overrides)
    return QuadratureSpec(**base)


SEED_TAKERS = {
    "settings": lambda seed: ca.AuditSettings(seed=seed),
    "jacobian": lambda seed: ca.audit_jacobian(seed=seed, n_configs=1),
    "energy": lambda seed: ca.audit_energy_formula(seed=seed, n_configs=1),
}


@pytest.mark.parametrize("taker", sorted(SEED_TAKERS))
@pytest.mark.parametrize("seed", [1.5, "a", None, True])
def test_a_seed_that_is_not_an_integer_is_rejected_by_name(taker, seed):
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
        SEED_TAKERS[taker](seed)


def test_a_numpy_integer_seed_keys_as_its_value():
    assert ca.audit_jacobian(seed=np.int64(5), n_configs=3).residual == ca.audit_jacobian(
        seed=5, n_configs=3).residual
    assert [r.residual for r in ca.audit_energy_formula(seed=np.int64(5), n_configs=3)] == [
        r.residual for r in ca.audit_energy_formula(seed=5, n_configs=3)]
    assert ca.AuditSettings(seed=np.int64(5)).seed == 5


# each was built, or failed later with an unnamed "math domain error"
@pytest.mark.parametrize("override, message", [
    ({"stokes_samples": 1}, "stokes_samples must be at least 2, got 1"),
    ({"stokes_nodes": 2}, "stokes_nodes must be at least 4, got 2"),
    ({"temperature": -1.0}, "temperature must be positive and finite, got -1.0"),
])
def test_audit_settings_reject_a_field_that_breaks_its_rule_by_name(override, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ca.run_all_audits(ca.AuditSettings(**override))


def test_audit_jacobian_consistent_and_reproducible():
    first = ca.audit_jacobian(seed=0, n_configs=40)
    second = ca.audit_jacobian(seed=0, n_configs=40)
    assert first.verdict == "consistent"
    assert first.residual < 1e-6
    assert first.residual == second.residual
    different = ca.audit_jacobian(seed=1, n_configs=40)
    assert different.residual != first.residual


def test_audit_energy_formula_rows():
    head_on, oblique = ca.audit_energy_formula(seed=0, n_configs=100)
    assert head_on.claim_id == "energy-loss-formula-head-on"
    assert head_on.verdict == "consistent"
    assert head_on.residual < 1e-12
    assert oblique.verdict == "inconsistent"
    assert oblique.residual > 1e-3
    assert oblique.metadata["closed_form_residual"] < 1e-12


def test_audit_stokes_distinguishes_equilibrium_from_bimodal():
    vth = 1.0
    eq_grid = VelocityGrid(vmax=5.5, nodes_per_axis=197)
    f_eq = maxwellian(eq_grid, 1.0, (0, 0, 0), 1.0, UNIT_MASS)
    bi_grid = VelocityGrid(vmax=6.0, nodes_per_axis=61)
    f_bi = bimodal(bi_grid, 0.5, (2, 0, 0), 1.0, 0.5, (-2, 0, 0), 1.0, UNIT_MASS)
    scenarios = [
        ("maxwellian", f_eq, ca.equilibrium_ray_probes(eq_grid, vth)),
        ("bimodal", f_bi, [np.array([2.0, 0, 0]), np.array([-2.0, 0, 0])]),
    ]
    spec = small_spec(samples=100_000, seed=0)
    reports = ca.audit_stokes_claim(scenarios, spec, threads=4)
    by_id = {r.claim_id: r for r in reports}
    assert by_id["vanishing-collision-term-maxwellian"].verdict == "consistent"
    assert by_id["vanishing-collision-term-bimodal"].verdict == "inconsistent"
    assert by_id["vanishing-collision-term-bimodal"].residual > 3.0


def test_audit_chain_rule_zero_force_and_diagnostic():
    zero = ca.audit_chain_rule([np.zeros(3), np.array([0.2, 0.1, 0.0])], 1.0,
                               (0.0, 0.0, 0.0), 1.0)
    assert zero.verdict == "diagnostic-only"
    assert zero.residual == 0.0
    assert math.isnan(zero.tolerance_or_sigma)
    generic = ca.audit_chain_rule([np.zeros(3), np.array([0.3, -0.1, 0.2])], 1.0,
                                  (1.0, -0.5, 0.25), 2.0)
    assert generic.verdict == "diagnostic-only"
    assert generic.residual > 0.0
    assert "median_difference" in generic.metadata


def test_audit_mass_conservation_rows():
    grid = VelocityGrid(vmax=4.5, nodes_per_axis=41)
    f = maxwellian(grid, 1.0, (0, 0, 0), 1.0, UNIT_MASS)
    reports = ca.audit_mass_conservation([1.0, 0.8], small_spec(samples=400_000),
                                         f, threads=4)
    by_id = {r.claim_id: r for r in reports}
    assert by_id["density-conservation-restitution_weighted-eps1"].verdict == "consistent"
    assert by_id["density-conservation-standard_granular-eps1"].verdict == "consistent"
    assert by_id["density-conservation-restitution_weighted-eps0.8"].verdict == "inconsistent"
    assert by_id["density-conservation-standard_granular-eps0.8"].verdict == "consistent"
    assert by_id["momentum-conservation-restitution_weighted-eps0.8"].verdict == "consistent"
    meta = by_id["density-conservation-standard_granular-eps0.8"].metadata
    assert meta["energy_rate"] < -3.0 * meta["energy_sigma"]


def test_audit_transport_relation_rows():
    reports = ca.audit_transport_relation()
    by_id = {r.claim_id: r for r in reports}
    assert by_id["transport-relation-zero-field"].residual == 0.0
    for report in reports:
        assert report.verdict == "diagnostic-only"


def test_verdict_is_mechanical():
    # derived from residual and threshold, so a report cannot contradict its numbers
    assert ca.AuditReport("x", "ref", 2.0, 3.0).verdict == "consistent"
    assert ca.AuditReport("x", "ref", 3.0, 3.0).verdict == "consistent"
    assert ca.AuditReport("x", "ref", 3.5, 3.0).verdict == "inconsistent"
    assert ca.AuditReport("x", "ref", math.inf, 3.0).verdict == "inconsistent"
    assert ca.AuditReport("x", "ref", math.nan, 3.0).verdict == "inconsistent"
    assert ca.AuditReport("x", "ref", 0.25, math.nan).verdict == "diagnostic-only"


def test_sigma_ratio_of_a_rate_without_spread():
    # a nonzero rate known exactly is infinitely many standard errors from zero
    assert ca._sigma_ratio(RateEstimate(value=-1e-3, std_error=0.0)) == math.inf
    assert ca._sigma_ratio(RateEstimate(value=0.0, std_error=0.0)) == 0.0


def test_audit_csv_format_and_metadata_round_trip():
    reports = [
        ca.audit_jacobian(seed=0, n_configs=5),
        ca.AuditReport("some-diagnostic", "ref text", 0.25, math.nan, {"alpha": 1, "b": [1, 2]}),
    ]
    text = cli.audit_csv_text(reports)
    lines = text.strip().split("\n")
    assert lines[0] == "claim_id,paper_ref,residual,threshold,verdict,metadata_json"
    assert len(lines) == 3
    import csv
    import io
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows[0]["claim_id"] == "pair-map-determinant-equals-restitution"
    assert float(rows[0]["residual"]) == reports[0].residual
    meta = json.loads(rows[1]["metadata_json"])
    assert meta == {"alpha": 1, "b": [1, 2]}
    assert math.isnan(float(rows[1]["threshold"]))
    summary = cli.audit_summary_text(reports)
    assert "pair-map-determinant-equals-restitution: consistent" in summary
    assert "some-diagnostic: diagnostic" in summary


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def test_audit_rows_rerun_bit_exactly_from_recorded_seed():
    grid = VelocityGrid(vmax=4.5, nodes_per_axis=41)
    f = maxwellian(grid, 1.0, (0, 0, 0), 1.0, UNIT_MASS)
    spec = small_spec(samples=60_000, seed=21)
    first = ca.audit_mass_conservation([1.0, 0.8], spec, f)
    assert len(first) == 8
    recorded_seed = first[0].metadata["seed"]
    replay_spec = small_spec(samples=first[0].metadata["samples"],
                             seed=recorded_seed)
    second = ca.audit_mass_conservation([1.0, 0.8], replay_spec, f)
    assert [_bits(r.residual) for r in first] == [_bits(r.residual) for r in second]
    assert [r.metadata for r in first] == [r.metadata for r in second]
    # each row alone, from its own metadata and a single-weighting call
    for row in first:
        meta = row.metadata
        norm = next(n for n in GainNormalization if f"-{n.value}-" in row.claim_id)
        rates = moment_rates(f, small_spec(samples=meta["samples"], seed=meta["seed"],
                                           epsilon=meta["epsilon"], normalization=norm))[0]
        if row.claim_id.startswith("density-"):
            assert _bits(row.residual) == _bits(ca._sigma_ratio(rates.density))
            assert _bits(meta["density_rate"]) == _bits(rates.density.value)
            assert _bits(meta["energy_rate"]) == _bits(rates.energy.value)
        else:
            assert _bits(row.residual) == _bits(
                max(ca._sigma_ratio(c) for c in rates.momentum))


def test_conservation_audit_draws_and_interpolates_each_chunk_once(monkeypatch):
    # four weightings share one stream and one pair of lookups per chunk, not
    # four of each; the lookups cover each sample once
    grid = VelocityGrid(vmax=4.5, nodes_per_axis=29)
    f = maxwellian(grid, 1.0, (0, 0, 0), 1.0, UNIT_MASS)
    chunks = 4
    spec = small_spec(samples=(chunks - 1) * collision_operator._CHUNK + 123, seed=3)
    streams, lookups = [], []
    real_stream, real_lookup = rng.stream, collision_operator.interpolate_many

    def counting_stream(seed, *parts):
        streams.append((seed, *parts))
        return real_stream(seed, *parts)

    def counting_lookup(*args):
        lookups.append(len(args[1]))
        return real_lookup(*args)

    monkeypatch.setattr(rng, "stream", counting_stream)
    monkeypatch.setattr(collision_operator, "interpolate_many", counting_lookup)
    reports = ca.audit_mass_conservation([1.0, 0.8], spec, f, threads=2)
    assert len(reports) == 8
    assert sorted(streams) == [(3, "operator-moments", i) for i in range(chunks)]
    assert len(lookups) == 2 * chunks
    assert max(lookups) == collision_operator._CHUNK
    assert sum(lookups) == 2 * spec.samples


def test_audit_battery_peak_memory_is_one_maxwellian_grid_plus_an_allowance():
    # numpy reports its buffers to tracemalloc. The Stokes Maxwellian is adopted
    # without a copy and freed before the conservation grid is built, so the peak
    # is that grid while the 61^3 bimodal is built beside it (the sum and one
    # mode: 3.6 MB), plus about 0.8 MB that the interpreter keeps from the first
    # audits; 4.5 MB in all when measured. The allowance is 2 MB above the
    # bimodal build. A second 14 MB grid, as a copied Maxwellian is, exceeds it.
    settings = ca.AuditSettings(jacobian_configs=2, stokes_samples=2000, stokes_nodes=121,
                                mass_samples=4096)
    grid_bytes = 8 * settings.stokes_nodes**3
    allowance = 2 * 8 * ca.BIMODAL_NODES**3 + 2_000_000
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        reports = ca.run_all_audits(settings, threads=1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(reports) == 16
    assert peak <= grid_bytes + allowance, (
        f"peak {peak / 1e6:.1f} MB = one {grid_bytes / 1e6:.1f} MB grid "
        f"+ {(peak - grid_bytes) / 1e6:.1f} MB")
