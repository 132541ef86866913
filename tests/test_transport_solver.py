"""Characteristics evaluator and the 1D-1V semi-Lagrangian solver."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from kinetics import transport_solver
from kinetics.transport_solver import (
    ForceField,
    PhaseGrid1D1V,
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
    r, v = np.array([2.0, 1.0, -1.0]), np.array([0.5, -0.25, 1.0])
    got = exact_solution(gaussian_f0, field, r, v, 3.0)
    want = gaussian_f0(r - v * 3.0, v)
    assert got == want


def test_exact_solution_identity_at_t0():
    field = ForceField(force=(1.0, -2.0, 0.5), mass=2.0)
    r, v = (0.1, 0.2, 0.3), (1.0, 2.0, 3.0)
    assert exact_solution(gaussian_f0, field, r, v, 0.0) == gaussian_f0(r, v)


def test_exact_solution_constant_force_closed_form():
    field = ForceField(force=(0.5, -1.0, 2.0), mass=2.0)
    a = field.acceleration
    r, v, t = np.array([0.3, 1.0, -2.0]), np.array([1.0, 0.5, 0.0]), 1.7
    want = gaussian_f0(r - v * t + 0.5 * a * t**2, v - a * t)
    assert exact_solution(gaussian_f0, field, r, v, t) == pytest.approx(want, rel=1e-12)


def test_exact_solution_constant_along_characteristics():
    rng = np.random.default_rng(30)
    field = ForceField(force=(0.4, -0.7, 0.2), mass=1.3)
    a = field.acceleration
    for _ in range(50):
        r = rng.uniform(-2, 2, 3)
        v = rng.uniform(-2, 2, 3)
        t = float(rng.uniform(0, 2))
        s = float(rng.uniform(0, 2))
        value_t = exact_solution(gaussian_f0, field, r, v, t)
        r_adv = r + v * s + 0.5 * a * s * s
        v_adv = v + a * s
        value_ts = exact_solution(gaussian_f0, field, r_adv, v_adv, t + s)
        assert abs(value_ts - value_t) < 1e-12


def test_exact_solution_commutes_with_translation():
    field = ForceField(force=(0, 0, 0), mass=1.0)
    shift = np.array([0.7, -0.3, 0.2])

    def shifted(r, v):
        return gaussian_f0(np.asarray(r) - shift, v)

    r, v, t = np.array([0.4, 0.1, -0.6]), np.array([1.0, -0.5, 0.25]), 1.1
    assert exact_solution(shifted, field, r + shift, v, t) == pytest.approx(
        exact_solution(gaussian_f0, field, r, v, t), rel=1e-14)


def test_exact_solution_broadcasts_each_component_like_pointwise_calls():
    field = ForceField(force=(0.6, -0.2, 0.1), mass=1.5)
    x = np.linspace(0.0, 4.0, 5)[:, None]
    v = np.linspace(-2.0, 2.0, 7)[None, :]

    def f0(r, w):
        return np.exp(-(r[0] - 1.0) ** 2 - w[0] ** 2 - r[1] ** 2 - w[2] ** 2)

    grid = exact_solution(f0, field, (x, 0.5, 0.0), (v, 0.0, -0.3), 1.3)
    assert grid.shape == (5, 7)
    for i in range(5):
        for j in range(7):
            point = exact_solution(f0, field, (x[i, 0], 0.5, 0.0), (v[0, j], 0.0, -0.3), 1.3)
            assert grid[i, j] == point


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_exact_solution_rejects_a_non_finite_time_by_name(t):
    field = ForceField(force=(0, 0, 0), mass=1.0)
    with pytest.raises(ValueError, match="^t must be finite$"):
        exact_solution(gaussian_f0, field, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), t)


def test_exact_solution_rejects_a_time_that_is_not_a_number_by_name():
    field = ForceField(force=(0, 0, 0), mass=1.0)
    with pytest.raises(ValueError, match="^t must be a real number, got None$"):
        exact_solution(gaussian_f0, field, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), None)


def test_exact_solution_rejects_a_time_whose_square_overflows():
    field = ForceField(force=(0, 0, 0), mass=1.0)
    with pytest.raises(OverflowError):
        exact_solution(gaussian_f0, field, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 1e200)


def test_exact_solution_foot_past_the_float_range_is_left_to_f0():
    # the y foot overflows to -inf without a warning; f0 here reads only x
    field = ForceField(force=(0.0, -1e300, 0.0), mass=1.0)

    def f0(r, w):
        return np.exp(-r[0] ** 2 - w[0] ** 2)

    x, v, t = np.array([0.5, -1.0]), np.array([[0.25], [-0.5]]), 1e10
    got = exact_solution(f0, field, (x, 0.0, 0.0), (v, 0.0, 0.0), t)
    np.testing.assert_array_equal(got, np.exp(-(x - v * t) ** 2 - v**2))


@pytest.mark.parametrize("force, mass", [((0.5, -1.7e308, 0.0), 1e-8),
                                         ((1e300, 0.0, 0.0), 1e-300),
                                         ((0.0, 0.0, 1e308), 0.1)])
def test_force_field_rejects_a_non_finite_acceleration_by_name(force, mass):
    # the caller's numpy error state governs the overflow: by default, numpy warns
    with pytest.warns(RuntimeWarning), pytest.raises(ValueError,
                                                     match=r"^force / mass must be finite"):
        ForceField(force=force, mass=mass)


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
    # node shifts past 2**62, or not finite, have no int64 base; at 7.2e17 the x
    # shift v * dt / dx is past 2**62 though half of it is not
    for dt, force in ((1e300, 0.0), (1e300, 1.0), (1e20, 0.0), (1e-3, 1e30),
                      (float("inf"), 0.0), (7.2e17, 0.0)):
        with pytest.raises(ValueError, match="dt"):
            semi_lagrangian_run(grid, ForceField(force=(force, 0, 0), mass=1.0), dt, 1)
    for length, vmax in ((0.0, 3.0), (10.0, -1.0), (np.inf, 3.0), (10.0, np.inf),
                         (np.nan, 3.0)):
        with pytest.raises(ValueError, match="must be positive and finite"):
            PhaseGrid1D1V(32, length, 32, vmax, grid.values)
    for nx, nv, name in ((3, 32, "nx"), (32, 3, "nv")):
        with pytest.raises(ValueError, match=f"{name} must be at least 4"):
            PhaseGrid1D1V(nx, 10.0, nv, 3.0, np.zeros((nx, nv)))


def test_semi_lagrangian_run_peak_memory_is_at_most_ten_and_a_half_grids():
    # numpy reports its buffers to tracemalloc. The run keeps nine arrays of nv
    # padded rows, nx + 3 wide: four flat value buffers and the run's one x plan
    # (the gather index and four weight arrays). The mass is summed over the padded
    # rows, and the x-major result is copied once, after the x plan is dropped:
    # 9.12 grid arrays at 256^2 when measured. Two more grid-sized arrays exceed
    # the cap.
    grid = phase_grid_from_function(blob, 256, 10.0, 256, 3.0)
    grid_bytes = 8 * 256 * 256
    for dt in (0.01, 5.0):  # two x bases, and one for every row
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            semi_lagrangian_run(grid, ForceField(force=(0.5, 0, 0), mass=1.0), dt, 2)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 10.5 * grid_bytes, f"peak {peak / grid_bytes:.2f} grid arrays"


@pytest.mark.parametrize("n_steps, plans", [(0, 0), (1, 1), (2, 1), (5, 1)])
def test_semi_lagrangian_run_builds_one_x_plan_per_run(monkeypatch, n_steps, plans):
    built = []

    def counting_x_plan(*args):
        built.append(args)
        return x_plan(*args)

    x_plan = transport_solver._x_plan
    monkeypatch.setattr(transport_solver, "_x_plan", counting_x_plan)
    grid = phase_grid_from_function(blob, 24, 10.0, 20, 3.0)
    semi_lagrangian_run(grid, ForceField(force=(0.5, 0, 0), mass=1.0), 0.05, n_steps)
    assert len(built) == plans


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate")


@pytest.mark.parametrize("nx, nv, fn", [
    (16, 12, _out_of_memory),  # the sample itself
    (10**15, 4, blob),  # the x axis: 8 PB, past any address space
    (10**20, 10**20, blob),  # past what an array can index: numpy raises a ValueError
], ids=["sample", "x-axis", "unindexable"])
def test_phase_grid_that_cannot_be_allocated_names_nx_and_nv(nx, nv, fn):
    message = (f"^nx {nx} by nv {nv} needs {8 * nx * nv} bytes for one grid array, "
               f"more than can be allocated$")
    with pytest.raises(MemoryError, match=message):
        phase_grid_from_function(fn, nx, 10.0, nv, 3.0)


def test_semi_lagrangian_buffers_that_cannot_be_allocated_name_nx_and_nv(monkeypatch):
    grid = phase_grid_from_function(blob, 24, 10.0, 20, 3.0)
    monkeypatch.setattr(np, "zeros", _out_of_memory)
    with pytest.raises(MemoryError, match="^nx 24 by nv 20 needs 3840 bytes for one grid array"):
        semi_lagrangian_run(grid, ForceField(force=(0.5, 0, 0), mass=1.0), 0.05, 3)


def test_phase_snapshot_round_trip(tmp_path):
    grid = phase_grid_from_function(blob, 48, 10.0, 40, 3.0)
    path = tmp_path / "phase.bin"
    path.write_bytes(phase_snapshot(grid))
    loaded = load_phase_grid(path)
    assert (loaded.nx, loaded.length, loaded.nv, loaded.vmax) == (48, 10.0, 40, 3.0)
    np.testing.assert_array_equal(loaded.values, grid.values)


@pytest.mark.parametrize("length, vmax, nv, name, got", [
    (5e-324, 3.0, 32, "length / nx", "0.0"),
    (10.0, 1.7e308, 32, "2 * vmax / (nv - 1)", "inf"),
    (10.0, 5e-324, 9, "2 * vmax / (nv - 1)", "0.0"),
])
def test_mesh_rejects_a_spacing_of_zero_or_inf_before_sampling(length, vmax, nv, name, got):
    def never_sampled(x, v):
        raise AssertionError("the mesh is checked before any array is built")

    message = f"^{re.escape(name)} must be positive and finite, got {got}$"
    with pytest.raises(ValueError, match=message):
        phase_grid_from_function(never_sampled, 32, length, nv, vmax)
    with pytest.raises(ValueError, match=message):
        PhaseGrid1D1V(32, length, nv, vmax, np.zeros((32, nv)))


def test_semi_lagrangian_run_leaves_f0_and_hands_over_its_fresh_array(monkeypatch):
    grid = phase_grid_from_function(blob, 24, 10.0, 20, 3.0)
    before = grid.values.copy()
    handed = []

    class Recording(PhaseGrid1D1V):
        def __post_init__(self):
            handed.append(self.values)
            super().__post_init__()

    monkeypatch.setattr(transport_solver, "PhaseGrid1D1V", Recording)
    result = semi_lagrangian_run(grid, ForceField(force=(0.5, 0, 0), mass=1.0), 0.05, 3)
    np.testing.assert_array_equal(grid.values.view(np.uint64), before.view(np.uint64))
    assert not grid.values.flags.writeable
    values = result.grid.values
    assert values is handed[-1]  # adopted as handed over, not copied
    assert values.shape == (24, 20) and values.flags.c_contiguous and values.flags.owndata
    assert not values.flags.writeable and values.base is None


@pytest.mark.parametrize("mangle, reason", [
    (lambda raw: raw[:raw.index(b"\n")], "no header line"),
    (lambda raw: b"[1, 2]" + raw[raw.index(b"\n"):], "not a JSON object"),
    (lambda raw: b'"header"' + raw[raw.index(b"\n"):], "not a JSON object"),
    (lambda raw: b"{nodes" + raw[raw.index(b"\n"):], "not a JSON object"),
    (lambda raw: b"\xff" + raw, "not a JSON object"),
    (lambda raw: raw.replace(b'"nx": 8, ', b"", 1), "nx is missing"),
    (lambda raw: raw.replace(b'"nv": 6', b'"nv": 6.0', 1), "nv is missing or not"),
    (lambda raw: raw.replace(b'"nx": 8', b'"nx": "8"', 1), "nx is missing or not"),
    (lambda raw: raw[:-8], "payload is 376 bytes, expected 8 x 8 x 6"),
    (lambda raw: raw.replace(b"phase-1d1v", b"phase-2d2v", 1), "kind"),
    (lambda raw: raw.replace(b"v-fastest", b"x-fastest", 1), "order"),
    (lambda raw: raw.replace(b'"length": 10.0, ', b"", 1), "length is missing"),
    (lambda raw: raw.replace(b'"vmax": 3.0', b'"vmax": true', 1), "vmax is missing or not"),
    (lambda raw: raw.replace(b'"vmax": 3.0', b'"vmax": "3.0"', 1), "vmax is missing or not"),
    (lambda raw: raw.replace(b'"length": 10.0', b'"length": Infinity', 1), "length is"),
    (lambda raw: raw.replace(b'"length": 10.0', b'"length": NaN', 1), "length is"),
    (lambda raw: raw.replace(b'"length": 10.0', b'"length": 1' + b"0" * 400, 1), "length is"),
    (lambda raw: raw.replace(b'"vmax": 3.0', b'"vmax": -3.0', 1), "vmax is"),
    (lambda raw: raw.replace(b'"length": 10.0', b'"length": -Infinity', 1), "length is"),
    (lambda raw: raw.replace(b'"vmax": 3.0', b'"vmax": 0', 1), "vmax is"),
])
def test_load_phase_grid_names_the_defect(tmp_path, mangle, reason):
    grid = phase_grid_from_function(blob, 8, 10.0, 6, 3.0)
    path = tmp_path / "phase.bin"
    path.write_bytes(mangle(phase_snapshot(grid)))
    with pytest.raises(ValueError, match=reason):
        load_phase_grid(path)
