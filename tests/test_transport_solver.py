"""Characteristics evaluator and the 1D-1V semi-Lagrangian solver."""

import math

import numpy as np
import pytest

from kinetics.transport_solver import (
    ForceField,
    PhaseGrid1D1V,
    PhasePoint,
    exact_solution,
    load_phase_grid,
    phase_grid_from_function,
    phase_snapshot,
    semi_lagrangian_run,
)


def gaussian_f0(r, v):
    return math.exp(-float(np.sum((np.asarray(r) - 1.0) ** 2))
                    - float(np.sum(np.asarray(v) ** 2)))


def test_exact_solution_free_streaming():
    field = ForceField(force=(0, 0, 0), mass=1.0)
    p = PhasePoint(r=(2.0, 1.0, -1.0), v=(0.5, -0.25, 1.0), t=3.0)
    got = exact_solution(gaussian_f0, field, p)
    want = gaussian_f0(np.asarray(p.r) - np.asarray(p.v) * 3.0, p.v)
    assert got == want


def test_exact_solution_identity_at_t0():
    field = ForceField(force=(1.0, -2.0, 0.5), mass=2.0)
    p = PhasePoint(r=(0.1, 0.2, 0.3), v=(1.0, 2.0, 3.0), t=0.0)
    assert exact_solution(gaussian_f0, field, p) == gaussian_f0(p.r, p.v)


def test_exact_solution_constant_force_closed_form():
    field = ForceField(force=(0.5, -1.0, 2.0), mass=2.0)
    a = field.acceleration
    p = PhasePoint(r=(0.3, 1.0, -2.0), v=(1.0, 0.5, 0.0), t=1.7)
    want = gaussian_f0(p.r - p.v * p.t + 0.5 * a * p.t**2, p.v - a * p.t)
    assert exact_solution(gaussian_f0, field, p) == pytest.approx(want, rel=1e-12)


def test_exact_solution_constant_along_characteristics():
    rng = np.random.default_rng(30)
    field = ForceField(force=(0.4, -0.7, 0.2), mass=1.3)
    a = field.acceleration
    for _ in range(50):
        r = rng.uniform(-2, 2, 3)
        v = rng.uniform(-2, 2, 3)
        t = float(rng.uniform(0, 2))
        s = float(rng.uniform(0, 2))
        value_t = exact_solution(gaussian_f0, field, PhasePoint(r=r, v=v, t=t))
        r_adv = r + v * s + 0.5 * a * s * s
        v_adv = v + a * s
        value_ts = exact_solution(gaussian_f0, field,
                                  PhasePoint(r=r_adv, v=v_adv, t=t + s))
        assert abs(value_ts - value_t) < 1e-12


def test_exact_solution_commutes_with_translation():
    field = ForceField(force=(0, 0, 0), mass=1.0)
    shift = np.array([0.7, -0.3, 0.2])

    def shifted(r, v):
        return gaussian_f0(np.asarray(r) - shift, v)

    p = PhasePoint(r=(0.4, 0.1, -0.6), v=(1.0, -0.5, 0.25), t=1.1)
    p_shifted = PhasePoint(r=np.asarray(p.r) + shift, v=p.v, t=p.t)
    assert exact_solution(shifted, field, p_shifted) == pytest.approx(
        exact_solution(gaussian_f0, field, p), rel=1e-14)


def blob(x, v, x0=3.0, v0=0.4, sx=0.5, sv=0.4):
    return np.exp(-((x - x0) ** 2) / (2 * sx**2) - ((v - v0) ** 2) / (2 * sv**2))


def test_semi_lagrangian_integer_shift_is_exact():
    grid = phase_grid_from_function(blob, 64, 10.0, 64, 3.0)
    row = 40
    speed = grid.v_axis[row]
    dt = 2.0 * grid.dx / abs(speed)
    result = semi_lagrangian_run(grid, ForceField(force=(0, 0, 0), mass=1.0), dt, 1)
    expected = np.roll(grid.values[:, row], 2 if speed > 0 else -2)
    assert np.max(np.abs(result.grid.values[:, row] - expected)) < 1e-12


def test_semi_lagrangian_preserves_constants():
    grid = PhaseGrid1D1V(48, 10.0, 48, 3.0, np.full((48, 48), 2.5))
    result = semi_lagrangian_run(grid, ForceField(force=(0, 0, 0), mass=1.0),
                                 0.05, 100)
    assert np.max(np.abs(result.grid.values - 2.5)) < 1e-12
    assert result.mass_drift < 1e-12


def test_semi_lagrangian_convergence_order():
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
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_semi_lagrangian_linf_overshoot_bound():
    field = ForceField(force=(0.6, 0, 0), mass=1.5)
    grid = phase_grid_from_function(blob, 128, 10.0, 128, 3.0)
    result = semi_lagrangian_run(grid, field, 0.02, 80)
    assert np.max(result.grid.values) <= 1.01 * np.max(grid.values)


def test_semi_lagrangian_validation():
    grid = phase_grid_from_function(blob, 32, 10.0, 32, 3.0)
    field = ForceField(force=(0, 0, 0), mass=1.0)
    with pytest.raises(ValueError):
        semi_lagrangian_run(grid, field, -0.1, 10)
    # node shifts past 2**62, or not finite, have no int64 base
    for dt, force in ((1e300, 0.0), (1e300, 1.0), (1e20, 0.0), (1e-3, 1e30),
                      (float("inf"), 0.0)):
        with pytest.raises(ValueError, match="dt"):
            semi_lagrangian_run(grid, ForceField(force=(force, 0, 0), mass=1.0), dt, 1)
    for length, vmax in ((0.0, 3.0), (10.0, -1.0), (np.inf, 3.0), (10.0, np.inf),
                         (np.nan, 3.0)):
        with pytest.raises(ValueError, match="must be positive and finite"):
            PhaseGrid1D1V(32, length, 32, vmax, grid.values)
    for nx, nv, name in ((3, 32, "nx"), (32, 3, "nv")):
        with pytest.raises(ValueError, match=f"{name} must be at least 4"):
            PhaseGrid1D1V(nx, 10.0, nv, 3.0, np.zeros((nx, nv)))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_phase_point_rejects_a_non_finite_time_by_name(t):
    with pytest.raises(ValueError, match="^t must be finite$"):
        PhasePoint(r=(0.0, 0.0, 0.0), v=(1.0, 0.0, 0.0), t=t)


def test_phase_snapshot_round_trip(tmp_path):
    grid = phase_grid_from_function(blob, 48, 10.0, 40, 3.0)
    path = tmp_path / "phase.bin"
    path.write_bytes(phase_snapshot(grid))
    loaded = load_phase_grid(path)
    assert (loaded.nx, loaded.length, loaded.nv, loaded.vmax) == (48, 10.0, 40, 3.0)
    np.testing.assert_array_equal(loaded.values, grid.values)


@pytest.mark.parametrize("mangle, reason", [
    (lambda raw: raw[:raw.index(b"\n")], "no header line"),
    (lambda raw: b"[1, 2]" + raw[raw.index(b"\n"):], "not a JSON object"),
    (lambda raw: raw.replace(b'"nx": 8, ', b"", 1), "nx is missing"),
    (lambda raw: raw.replace(b'"nv": 6', b'"nv": 6.0', 1), "nv is missing or not"),
    (lambda raw: raw[:-8], "payload is 376 bytes, expected 8 x 8 x 6"),
    (lambda raw: raw.replace(b"phase-1d1v", b"phase-2d2v", 1), "kind"),
    (lambda raw: raw.replace(b'"length": 10.0, ', b"", 1), "length is missing"),
    (lambda raw: raw.replace(b'"vmax": 3.0', b'"vmax": true', 1), "vmax is missing or not"),
    (lambda raw: raw.replace(b'"vmax": 3.0', b'"vmax": "3.0"', 1), "vmax is missing or not"),
    (lambda raw: raw.replace(b'"length": 10.0', b'"length": Infinity', 1), "length is"),
    (lambda raw: raw.replace(b'"length": 10.0', b'"length": NaN', 1), "length is"),
    (lambda raw: raw.replace(b'"length": 10.0', b'"length": 1' + b"0" * 400, 1), "length is"),
    (lambda raw: raw.replace(b'"vmax": 3.0', b'"vmax": -3.0', 1), "vmax is"),
])
def test_load_phase_grid_names_the_defect(tmp_path, mangle, reason):
    grid = phase_grid_from_function(blob, 8, 10.0, 6, 3.0)
    path = tmp_path / "phase.bin"
    path.write_bytes(mangle(phase_snapshot(grid)))
    with pytest.raises(ValueError, match=reason):
        load_phase_grid(path)
