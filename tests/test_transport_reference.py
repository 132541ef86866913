"""The x-Fourier transport run against a plain per-step reference, and the cubic
run it replaced, kept as an accuracy baseline.

``_reference_run`` writes the solver's schedule out plainly on the x-major
(nx, nv) grid: one rfft along x, then v/2 (x v)^(n-1) x v/2, where an x step
multiplies mode k of velocity column j by exp(-2 pi i k s_j / nx), s_j the
column's node shift taken modulo nx, and a v step is ``_reference_advect_v``
on the real and the imaginary parts of the modes; then one irfft, of the modes
divided by nx and with no scaling of its own. The mass is
the sum of the real parts of the k = 0 modes after each v step but the first.
``semi_lagrangian_run`` keeps the modes velocity-major and runs the v step
through ``_advect`` on the mode rows viewed as float64; it must give the same
value bits and the same ``mass_drift``.

``_cubic_run`` is the run the Fourier one replaced: the same schedule with the
periodic cubic Lagrange x step ``_reference_advect_x`` on the grid. It is kept
only as the accuracy baseline that the Fourier run must match or beat.

Each v step starts its sums from +0.0, so it never returns -0.0 and its
result does not depend on the signs of zeros in its input. A v step that
returned -0.0 where the reference returns +0.0 would therefore not show in a
whole run; the v steps are compared on their own for that.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinetics.transport_solver import (
    ForceField,
    PhaseGrid1D1V,
    _advect,
    _cubic_weights,
    _floats,
    _v_plan,
    exact_solution,
    phase_grid_from_function,
    semi_lagrangian_run,
)


def _reference_advect_x(values: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Periodic cubic back-trace along axis 0 by a per-column node shift."""
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


def _reference_advect_v_modes(modes: np.ndarray, shift: float) -> np.ndarray:
    """The v back-trace of (nx // 2 + 1, nv) complex modes, part by part."""
    out = np.empty_like(modes)
    out.real = _reference_advect_v(modes.real, shift)
    out.imag = _reference_advect_v(modes.imag, shift)
    return out


def _reference_run(f0: PhaseGrid1D1V, field: ForceField, dt: float, n_steps: int):
    if not n_steps:
        return f0.values, 0.0
    nx = f0.nx
    ax = float(field.acceleration[0])
    x_shift = f0.v_axis * dt / f0.dx
    v_shift_full = ax * dt / f0.dv
    v_shift_half = 0.5 * v_shift_full
    k = np.arange(nx // 2 + 1)
    phase = np.exp((-2j * np.pi / nx) * np.multiply.outer(k, np.fmod(x_shift, nx)))
    modes = np.fft.rfft(f0.values, axis=0)
    mass0 = float(np.sum(modes[0].real)) * f0.dx * f0.dv
    worst_drift = 0.0
    modes = _reference_advect_v_modes(modes, v_shift_half)
    for step in range(1, n_steps + 1):
        modes = modes * phase
        modes = _reference_advect_v_modes(modes, v_shift_half if step == n_steps
                                          else v_shift_full)
        if mass0 != 0.0:
            mass = float(np.sum(modes[0].real)) * f0.dx * f0.dv
            worst_drift = max(worst_drift, abs(mass - mass0) / abs(mass0))
    return np.fft.irfft(modes / nx, n=nx, axis=0, norm="forward"), worst_drift


def _cubic_run(f0: PhaseGrid1D1V, field: ForceField, dt: float, n_steps: int) -> np.ndarray:
    ax = float(field.acceleration[0])
    values = np.asarray(f0.values, dtype=np.float64).copy()
    x_shift = f0.v_axis * dt / f0.dx
    v_shift_full = ax * dt / f0.dv
    v_shift_half = 0.5 * v_shift_full
    if n_steps:
        values = _reference_advect_v(values, v_shift_half)
    for step in range(1, n_steps + 1):
        values = _reference_advect_x(values, x_shift)
        values = _reference_advect_v(values, v_shift_half if step == n_steps else v_shift_full)
    return values


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
# x shifts of -15 to 15 step by 10/3 nodes and are inexact. In the tenth, v * dt
# rounds to +-0.0, so every x phase is 1; the eleventh has perfbench's shifts of
# under a node (a 256 x 256 run at dt 0.01), and the last two shifts of several
# nodes on a grid with nx != nv. nx is odd in three examples, so the modes have
# no Nyquist column.
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


def test_fourier_run_is_no_less_accurate_than_the_cubic_run():
    # perfbench's transport config: both runs take the same schedule, and differ only
    # in the x step, trigonometric against cubic interpolation
    def initial(x, v):
        return np.exp(-((x - 3.0) ** 2) / (2.0 * 0.5**2) - (v**2) / (2.0 * 0.4**2))

    grid = phase_grid_from_function(initial, 256, 10.0, 256, 3.0)
    field = ForceField(force=(0.5, 0.0, 0.0), mass=1.0)
    exact = exact_solution(lambda r, w: initial(r[0], w[0]), field,
                           (grid.x_axis[:, None], 0.0, 0.0), (grid.v_axis[None, :], 0.0, 0.0),
                           0.01 * 100)
    fourier = semi_lagrangian_run(grid, field, 0.01, 100)
    cubic = _cubic_run(grid, field, 0.01, 100)
    assert np.max(np.abs(fourier.grid.values - exact)) <= np.max(np.abs(cubic - exact))
    assert fourier.mass_drift < 1e-8


@example(nx=5, nv=8, v_shift=0.3, seed=0)
@example(nx=6, nv=8, v_shift=-70.0, seed=1)  # every source row outside the hull
@settings(deadline=None, max_examples=200)
@given(nx=NODES, nv=NODES,
       v_shift=st.one_of(st.floats(min_value=-100.0, max_value=100.0),
                         st.integers(min_value=-70, max_value=70).map(float)),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_v_step_on_mode_rows_matches_per_step_reference(nx, nv, v_shift, seed):
    # signed zeros in the input give -0.0 products; both must sum to +0.0. The v step
    # acts on the velocity-major mode rows, into buffers of any content
    n_modes = nx // 2 + 1
    modes = np.empty((nv, n_modes), np.complex128)
    modes.real = _initial_values(n_modes, nv, seed).T
    modes.imag = _initial_values(n_modes, nv, seed + 1).T
    out, scratch = (np.full_like(modes, np.nan) for _ in range(2))
    _advect(_floats(modes), _v_plan(v_shift, nv, 2 * n_modes), _floats(out), _floats(scratch))
    want = _reference_advect_v_modes(modes.T, v_shift)
    np.testing.assert_array_equal(_floats(np.ascontiguousarray(out.T)).view(np.uint64),
                                  _floats(want).view(np.uint64))
