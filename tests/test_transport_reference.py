"""Run-once back-trace plans against the per-step advection they replace.

``_reference_advect_x``, ``_reference_advect_v`` and the step loop in
``_reference_run`` are the former per-step bodies of the x and v half-steps
and of ``semi_lagrangian_run``, kept here verbatim as the reference. They act
on the x-major (nx, nv) grid; the solver runs both half-steps through
``transport_solver._advect`` on its velocity-major (nv, nx) transpose.
``semi_lagrangian_run`` must give the same value bits and the same
``mass_drift``.

Each half-step starts its sums from +0.0, so it never returns -0.0 and its
result does not depend on the signs of zeros in its input. A half-step that
returned -0.0 where the reference returns +0.0 would therefore not show in a
whole run; the half-steps are compared on their own for that.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinetics.transport_solver import (
    ForceField,
    PhaseGrid1D1V,
    _advect,
    _cubic_weights,
    _v_plan,
    _x_plan,
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


def _reference_run(f0: PhaseGrid1D1V, field: ForceField, dt: float, n_steps: int):
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
# the node shifts are exact: x shifts are v * dt / 2, v shifts force * dt * 8.
# In the eighth, x shifts of -7.5 to 7.5 step by 5/3 nodes, so every column is
# its own x-plan group and the shifts are inexact. The last three cover the
# other x-plan regimes: one group (dt / 2 underflows, so every column has
# base 0), the two groups of a small dt (bases -1 and 0, as a 256 x 256 run
# at dt 0.01 has), and six groups on a grid with nx != nv.
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


# x shifts spread over +-200 nodes: every column is its own x-plan group
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
    # the solver's half-steps act on the velocity-major (nv, nx) transpose
    vmajor = values.T.copy()
    np.testing.assert_array_equal(
        _advect(np.concatenate((vmajor, vmajor), axis=1), _x_plan(x_shifts, nx), vmajor.shape)
        .T.view(np.uint64),
        _reference_advect_x(values, x_shifts).view(np.uint64))
    np.testing.assert_array_equal(
        _advect(vmajor, _v_plan(v_shift, nv), vmajor.shape).T.view(np.uint64),
        _reference_advect_v(values, v_shift).view(np.uint64))
