"""Run-once back-trace plans and the fused v sweeps against the per-step advection
they replace.

``_reference_advect_x`` and ``_reference_advect_v`` are the former per-step
bodies of the x and v half-steps, kept here verbatim as the reference. They act
on the x-major (nx, nv) grid; the solver keeps the grid velocity-major, nv
flat rows of nx values and 3 ghost columns, and runs the x half-step through
``transport_solver._advect_x`` and the v half-step through ``_advect``.
``_reference_run`` applies the bodies in the solver's fused schedule,
v/2 (x v)^(n-1) x v/2, where every x step is the x body at the full-step
shift and a full v step the v body at the full-step shift, and sums the mass
over the same padded velocity-major rows after each v step but the first;
``semi_lagrangian_run`` must give the same value bits and the same
``mass_drift``. ``_unfused_run`` is the per-step loop with x outside,
(x/2 v x/2)^n; it is kept only as the accuracy baseline that the fused
schedule must match or beat.

Each half-step starts its sums from +0.0, so it never returns -0.0 and its
result does not depend on the signs of zeros in its input. A half-step that
returned -0.0 where the reference returns +0.0 would therefore not show in a
whole run; the half-steps are compared on their own for that.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinetics.transport_solver import (
    _GHOSTS,
    ForceField,
    PhaseGrid1D1V,
    _advect,
    _advect_x,
    _cubic_weights,
    _v_plan,
    _x_plan,
    exact_solution,
    phase_grid_from_function,
    semi_lagrangian_run,
)


def _reference_advect_x(values: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Periodic back-trace along axis 0 by a per-column node shift."""
    nx = values.shape[0]
    tau = -shifts
    base = np.floor(tau).astype(np.int64)
    weights = _cubic_weights(tau - base)
    rows = np.arange(nx)[:, None]
    out = np.zeros_like(values)
    cols = np.arange(values.shape[1])[None, :]
    for offset, w in zip((-1, 0, 1, 2), weights):
        idx = np.mod(rows + base[None, :] + offset, nx)
        out += w[None, :] * values[idx, cols]
    return out


def _reference_advect_v(values: np.ndarray, shift: float) -> np.ndarray:
    """Back-trace along axis 1 by a uniform node shift; zero outside the hull."""
    nv = values.shape[1]
    tau = -shift
    base = int(np.floor(tau))
    weights = _cubic_weights(np.asarray(tau - base))
    out = np.zeros_like(values)
    for offset, w in zip((-1, 0, 1, 2), weights):
        src = np.arange(nv) + base + offset
        valid = (src >= 0) & (src < nv)
        if not np.any(valid):
            continue
        out[:, valid] += float(w) * values[:, src[valid]]
    return out


def _padded_sum(values: np.ndarray) -> float:
    """The sum of an (nx, nv) grid over the solver's velocity-major rows with 0 ghosts."""
    nx, nv = values.shape
    rows = np.zeros((nv, nx + _GHOSTS))
    rows[:, :nx] = values.T
    return float(np.sum(rows.ravel()))


def _reference_run(f0: PhaseGrid1D1V, field: ForceField, dt: float, n_steps: int):
    ax = float(field.acceleration[0])
    values = np.asarray(f0.values, dtype=np.float64).copy()
    x_shift = f0.v_axis * dt / f0.dx
    v_shift_full = ax * dt / f0.dv
    v_shift_half = 0.5 * v_shift_full
    mass0 = _padded_sum(values) * f0.dx * f0.dv
    worst_drift = 0.0
    if n_steps:
        values = _reference_advect_v(values, v_shift_half)
    for step in range(1, n_steps + 1):
        values = _reference_advect_x(values, x_shift)
        values = _reference_advect_v(values, v_shift_half if step == n_steps else v_shift_full)
        if mass0 != 0.0:
            mass = _padded_sum(values) * f0.dx * f0.dv
            worst_drift = max(worst_drift, abs(mass - mass0) / abs(mass0))
    return values, worst_drift


def _unfused_run(f0: PhaseGrid1D1V, field: ForceField, dt: float, n_steps: int):
    ax = float(field.acceleration[0])
    values = np.asarray(f0.values, dtype=np.float64).copy()
    x_shift_half = f0.v_axis * (0.5 * dt) / f0.dx
    v_shift = ax * dt / f0.dv
    mass0 = float(np.sum(values)) * f0.dx * f0.dv
    worst_drift = 0.0
    for _ in range(n_steps):
        values = _reference_advect_x(values, x_shift_half)
        values = _reference_advect_v(values, v_shift)
        values = _reference_advect_x(values, x_shift_half)
        if mass0 != 0.0:
            mass = float(np.sum(values)) * f0.dx * f0.dv
            worst_drift = max(worst_drift, abs(mass - mass0) / abs(mass0))
    return values, worst_drift


def _initial_values(nx: int, nv: int, seed: int) -> np.ndarray:
    """Gaussian noise with about half the cells set to +0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(nx, nv))
    zeros = rng.random((nx, nv)) < 0.5
    values[zeros] = np.where(rng.random((nx, nv)) < 0.5, 0.0, -0.0)[zeros]
    return values


NODES = st.integers(min_value=4, max_value=64)


# In the first seven examples the grid spacing is 1 in x and 2**-3 in v, so
# the node shifts are exact: x shifts are v * dt, v shifts force * dt * 8 in a
# full step and half that in a half step. The eighth runs no step. In the ninth,
# x shifts of -15 to 15 step by 10/3 nodes, so every column has its own x base
# and the shifts are inexact. The last four cover the other x-base regimes: one
# base (v * dt rounds to +-0.0, so every column has base 0), the two bases of a
# small dt (-1 and 0, as a 256 x 256 run at dt 0.01 has), and, on a grid with
# nx != nv, ten bases (one per column) at dt 0.4 and six at dt 0.2.
@example(nx=16, nv=9, length=16.0, vmax=0.5, dt=0.5, force=0.0, steps=3, seed=0)
@example(nx=16, nv=9, length=16.0, vmax=0.5, dt=0.5, force=0.25, steps=3, seed=1)
@example(nx=16, nv=9, length=16.0, vmax=0.5, dt=0.5, force=-0.25, steps=3, seed=2)
@example(nx=16, nv=9, length=16.0, vmax=0.5, dt=16.0, force=0.015625, steps=2, seed=3)
@example(nx=16, nv=9, length=16.0, vmax=0.5, dt=16.0, force=0.5, steps=2, seed=7)
@example(nx=5, nv=7, length=5.0, vmax=0.375, dt=123.0, force=0.0, steps=2, seed=4)
@example(nx=5, nv=7, length=5.0, vmax=0.375, dt=0.3, force=-9.0, steps=2, seed=5)
@example(nx=7, nv=6, length=3.0, vmax=2.0, dt=0.2, force=1.5, steps=0, seed=6)
@example(nx=12, nv=10, length=6.0, vmax=3.0, dt=2.5, force=0.7, steps=3, seed=8)
@example(nx=16, nv=9, length=16.0, vmax=0.5, dt=5e-324, force=0.25, steps=2, seed=9)
@example(nx=32, nv=32, length=10.0, vmax=3.0, dt=0.01, force=0.5, steps=4, seed=10)
@example(nx=24, nv=10, length=6.0, vmax=3.0, dt=0.4, force=-1.2, steps=3, seed=11)
@example(nx=24, nv=10, length=6.0, vmax=3.0, dt=0.2, force=-1.2, steps=3, seed=12)
@settings(deadline=None, max_examples=200)
@given(nx=NODES, nv=NODES,
       length=st.floats(min_value=0.5, max_value=50.0),
       vmax=st.floats(min_value=0.1, max_value=10.0),
       dt=st.floats(min_value=1e-3, max_value=40.0),
       force=st.floats(min_value=-50.0, max_value=50.0),
       steps=st.integers(min_value=0, max_value=4),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_semi_lagrangian_run_matches_per_step_reference(nx, nv, length, vmax, dt, force,
                                                        steps, seed):
    grid = PhaseGrid1D1V(nx, length, nv, vmax, _initial_values(nx, nv, seed))
    field = ForceField(force=(force, 0.0, 0.0), mass=1.0)
    want_values, want_drift = _reference_run(grid, field, dt, steps)
    got = semi_lagrangian_run(grid, field, dt, steps)
    np.testing.assert_array_equal(got.grid.values.view(np.uint64),
                                  want_values.view(np.uint64))
    assert got.mass_drift == want_drift


@pytest.mark.parametrize("dt", [0.01, 5.0])
def test_semi_lagrangian_run_matches_per_step_reference_at_256_squared(dt):
    # perfbench's grid: at dt 0.01 the rows have two x bases, at dt 5 each its own
    grid = phase_grid_from_function(lambda x, v: np.exp(-(x - 3.0) ** 2 - v**2),
                                    256, 10.0, 256, 3.0)
    field = ForceField(force=(0.5, 0.0, 0.0), mass=1.0)
    want_values, want_drift = _reference_run(grid, field, dt, 2)
    got = semi_lagrangian_run(grid, field, dt, 2)
    np.testing.assert_array_equal(got.grid.values.view(np.uint64),
                                  want_values.view(np.uint64))
    assert got.mass_drift == want_drift


def test_fused_run_is_no_less_accurate_than_the_unfused_loop():
    # perfbench's transport config: the fused schedule takes 100 x sweeps, the former
    # loop 200, and each cubic interpolation adds error; both shift by the same total
    def initial(x, v):
        return np.exp(-((x - 3.0) ** 2) / (2.0 * 0.5**2) - (v**2) / (2.0 * 0.4**2))

    grid = phase_grid_from_function(initial, 256, 10.0, 256, 3.0)
    field = ForceField(force=(0.5, 0.0, 0.0), mass=1.0)
    exact = exact_solution(lambda r, w: initial(r[0], w[0]), field,
                           (grid.x_axis[:, None], 0.0, 0.0), (grid.v_axis[None, :], 0.0, 0.0),
                           0.01 * 100)
    fused = semi_lagrangian_run(grid, field, 0.01, 100)
    unfused_values, _ = _unfused_run(grid, field, 0.01, 100)
    fused_error = np.max(np.abs(fused.grid.values - exact))
    assert fused_error <= np.max(np.abs(unfused_values - exact))
    assert fused.mass_drift < 1e-8


# x shifts spread over +-200 nodes: every row has its own x base
@example(nx=5, nv=8, scale=200.0, v_shift=0.3, seed=0)
@settings(deadline=None, max_examples=200)
@given(nx=NODES, nv=NODES,
       scale=st.floats(min_value=0.0, max_value=200.0),
       v_shift=st.one_of(st.floats(min_value=-100.0, max_value=100.0),
                         st.integers(min_value=-70, max_value=70).map(float)),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_half_steps_match_per_step_reference(nx, nv, scale, v_shift, seed):
    # signed zeros in the input give -0.0 products; both must sum to +0.0
    values = _initial_values(nx, nv, seed)
    rng = np.random.default_rng(seed)
    x_shifts = rng.uniform(-scale, scale, nv)
    on_node = rng.random(nv) < 0.3
    x_shifts[on_node] = np.round(x_shifts[on_node])
    # the half-steps act on the padded velocity-major rows, into buffers of any content
    width = nx + _GHOSTS
    source = np.zeros((nv, width))
    source[:, :nx] = values.T
    source = source.ravel()
    out, rolled, scratch = (np.full_like(source, np.nan) for _ in range(3))
    _advect_x(source, _x_plan(x_shifts, nx), out, rolled, scratch)
    rows = out.reshape(nv, width)
    np.testing.assert_array_equal(rows[:, :nx].T.view(np.uint64),
                                  _reference_advect_x(values, x_shifts).view(np.uint64))
    np.testing.assert_array_equal(rows[:, nx:].view(np.uint64), 0)  # +0.0 ghosts
    out.fill(np.nan)
    _advect(source, _v_plan(v_shift, nv, width), out, scratch)
    np.testing.assert_array_equal(out.reshape(nv, width)[:, :nx].T.view(np.uint64),
                                  _reference_advect_v(values, v_shift).view(np.uint64))


def _plan_size(plan) -> tuple:
    index, terms = plan
    return index.nbytes, len(terms), sum(weight.nbytes for weight, _, _ in terms)


def test_x_plan_size_does_not_depend_on_the_number_of_bases():
    nx, nv = 32, 24
    shifts = (np.zeros(nv), np.linspace(-0.5, 0.5, nv), np.linspace(-200.0, 200.0, nv))
    assert [np.unique(np.floor(-s)).size for s in shifts] == [1, 2, nv]
    assert len({_plan_size(_x_plan(s, nx)) for s in shifts}) == 1
