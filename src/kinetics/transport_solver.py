"""Collisionless transport: exact characteristics and a 1D-1V grid solver.

The exact evaluator works in full 3D-3V, at points or over broadcast arrays,
and needs no mesh. The grid solver exists to measure convergence: positions
are periodic on [0, length), velocities live on [-vmax, vmax] with zero
inflow from outside the hull, and each step is a Strang-split pair of
constant-coefficient back-traces with cubic interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import read_snapshot, snapshot_bytes
from .errors import NonFiniteEstimate, frozen_array, require_count, require_positive

SNAPSHOT_ORDER_1D1V = "row-major-v-fastest"
# Node shifts at or past this are rejected: base + offset must fit in int64.
_MAX_SHIFT = 2.0**62


@dataclass(frozen=True)
class ForceField:
    """Constant external force (N) acting on particles of the given mass (kg)."""

    force: np.ndarray
    mass: float

    def __post_init__(self) -> None:
        frozen_array(self, "force", self.force, (3,))
        require_positive("mass", self.mass)
        with np.errstate(over="ignore"):  # an overflow is rejected just below
            finite = np.all(np.isfinite(self.acceleration))
        if not finite:
            raise ValueError(f"force / mass must be finite, got "
                             f"{self.force.tolist()} / {self.mass!r}")

    @property
    def acceleration(self) -> np.ndarray:
        return self.force / self.mass


def exact_solution(f0, field: ForceField, x, v, t: float):
    """The transport solution with initial data f0 at positions x, velocities v, time t.

    x and v hold three components each; a component is a number or an array,
    and the components broadcast. The solution is constant along
    characteristics, so this back-traces to t = 0 and returns
    f0(x - v t + a t^2 / 2, v - a t), each argument a list of three components.
    ValueError if t is not finite; OverflowError if t**2 is past the float range.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    t_sq = float(t) ** 2
    with np.errstate(over="ignore", invalid="ignore"):  # a foot past the float range; f0 decides
        r0 = [xi - vi * t + 0.5 * ai * t_sq for xi, vi, ai in zip(x, v, field.acceleration)]
        v0 = [vi - ai * t for vi, ai in zip(v, field.acceleration)]
    return f0(r0, v0)


def _check_mesh(nx: int, length: float, nv: int, vmax: float) -> None:
    require_count("nx", nx, 4)
    require_count("nv", nv, 4)
    require_positive("length", length)
    require_positive("vmax", vmax)
    require_positive("length / nx", length / nx)
    require_positive("2 * vmax / (nv - 1)", 2.0 * float(vmax) / (nv - 1))


@dataclass(frozen=True)
class PhaseGrid1D1V:
    """Phase-space samples, shape (nx, nv); x periodic, v node-centered."""

    nx: int
    length: float
    nv: int
    vmax: float
    values: np.ndarray

    def __post_init__(self) -> None:
        _check_mesh(self.nx, self.length, self.nv, self.vmax)
        frozen_array(self, "values", self.values, (self.nx, self.nv))

    @property
    def x_axis(self) -> np.ndarray:
        return np.arange(self.nx) * (self.length / self.nx)

    @property
    def v_axis(self) -> np.ndarray:
        return np.linspace(-self.vmax, self.vmax, self.nv)

    @property
    def dx(self) -> float:
        return self.length / self.nx

    @property
    def dv(self) -> float:
        return 2.0 * self.vmax / (self.nv - 1)


def phase_grid_from_function(fn, nx: int, length: float, nv: int, vmax: float) -> PhaseGrid1D1V:
    """Sample fn(x, v) on the grid nodes; x and v are the x_axis column and v_axis row.

    fn must return a new array, as arithmetic on x and v does: the result is
    sealed read-only and the grid adopts it without a copy.
    """
    _check_mesh(nx, length, nv, vmax)
    x = (np.arange(nx) * (length / nx))[:, None]
    v = np.linspace(-vmax, vmax, nv)[None, :]
    values = np.asarray(fn(x, v), dtype=np.float64)
    values.setflags(write=False)
    return PhaseGrid1D1V(nx, length, nv, vmax, values)


def _cubic_weights(t: np.ndarray):
    """Cubic Lagrange weights for nodes -1, 0, 1, 2 at fraction t in [0, 1)."""
    return (
        -t * (t - 1.0) * (t - 2.0) / 6.0,
        (t * t - 1.0) * (t - 2.0) / 2.0,
        -t * (t + 1.0) * (t - 2.0) / 2.0,
        t * (t * t - 1.0) / 6.0,
    )


def _x_plan(shifts: np.ndarray, nx: int):
    """Back-trace plan along axis 1 for a per-row node shift.

    Its source is the values laid side by side, whose columns start..start+nx
    are the columns rolled by start. Consecutive rows that share an integer
    base form one group, a contiguous block of rows, with one (weight column,
    destination, source) term per offset -1, 0, 1, 2.
    """
    tau = -shifts
    base = np.floor(tau).astype(np.int64)
    weights = _cubic_weights(tau - base)
    edges = [0, *(np.flatnonzero(np.diff(base)) + 1).tolist(), base.shape[0]]
    plan = []
    for j, k in zip(edges[:-1], edges[1:]):
        for offset, w in zip((-1, 0, 1, 2), weights):
            start = int(base[j] + offset) % nx
            plan.append((w[j:k, None], np.s_[j:k], np.s_[j:k, start:start + nx]))
    return plan


def _v_plan(shift: float, nv: int):
    """Back-trace plan along axis 0 for a uniform node shift.

    One (weight, destination, source) term per offset whose source rows
    overlap the hull; the rest of the hull has zero inflow.
    """
    tau = -shift
    base = int(np.floor(tau))
    weights = _cubic_weights(np.asarray(tau - base))
    plan = []
    for offset, w in zip((-1, 0, 1, 2), weights):
        d = base + offset
        lo, hi = max(0, -d), min(nv, nv - d)
        if lo < hi:
            plan.append((float(w), np.s_[lo:hi], np.s_[lo + d:hi + d]))
    return plan


def _advect(source: np.ndarray, plan, shape) -> np.ndarray:
    """Sum of the plan's terms out[dst] += w * source[src], from +0.0, in plan order."""
    out = np.zeros_like(source, shape=shape)
    for w, dst, src in plan:
        block = out[dst]  # a view, so the add writes through without storing back
        block += w * source[src]
    return out


@dataclass(frozen=True)
class TransportRunResult:
    grid: PhaseGrid1D1V
    mass_drift: float


def semi_lagrangian_run(f0: PhaseGrid1D1V, field: ForceField, dt: float,
                        n_steps: int) -> TransportRunResult:
    """Advance n_steps of Strang-split advection; reports relative mass drift.

    The velocity axis is driven by the x-component of the force. The shifts
    are fixed for the run, so both back-trace plans are built once. The run
    keeps the grid velocity-major, shape (nv, nx), so every term of both
    half-steps is a block of contiguous rows; the mass is summed over an
    x-major copy, in the order of a sum over the grid's own values.
    """
    require_positive("dt", dt)
    ax = float(field.acceleration[0])
    values = f0.values.T.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        x_shift_half = f0.v_axis * (0.5 * dt) / f0.dx
    v_shift = ax * dt / f0.dv
    if not (np.all(np.abs(x_shift_half) < _MAX_SHIFT) and abs(v_shift) < _MAX_SHIFT):
        raise ValueError(f"dt {dt} moves the grid by a node shift that is not finite "
                         f"or not below 2**62 nodes")
    x_plan = _x_plan(x_shift_half, f0.nx)
    v_plan = _v_plan(v_shift, f0.nv)
    worst_drift = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends in a non-finite drift
        mass0 = float(np.sum(f0.values)) * f0.dx * f0.dv
        shape = values.shape
        for _ in range(n_steps):
            values = _advect(np.concatenate((values, values), axis=1), x_plan, shape)
            values = _advect(values, v_plan, shape)
            values = _advect(np.concatenate((values, values), axis=1), x_plan, shape)
            if mass0 != 0.0:
                mass = float(np.sum(values.T.copy())) * f0.dx * f0.dv
                drift = abs(mass - mass0) / abs(mass0)
                if not np.isfinite(drift):
                    raise NonFiniteEstimate(f"mass drift is not finite ({mass0!r} -> {mass!r})")
                worst_drift = max(worst_drift, drift)
    values = values.T.copy()
    values.setflags(write=False)  # a fresh array, adopted by the grid
    grid = PhaseGrid1D1V(f0.nx, f0.length, f0.nv, f0.vmax, values)
    return TransportRunResult(grid=grid, mass_drift=worst_drift)


def phase_snapshot(grid: PhaseGrid1D1V) -> bytes:
    """Snapshot bytes of a phase grid; load_phase_grid reads them back."""
    header = {"kind": "phase-1d1v", "nx": grid.nx, "length": grid.length,
              "nv": grid.nv, "vmax": grid.vmax, "order": SNAPSHOT_ORDER_1D1V}
    return snapshot_bytes(header, grid.values)


def load_phase_grid(path) -> PhaseGrid1D1V:
    header, values = read_snapshot(
        path, {"kind": "phase-1d1v", "order": SNAPSHOT_ORDER_1D1V}, ("nx", "nv"),
        ("length", "vmax"))
    return PhaseGrid1D1V(header["nx"], float(header["length"]), header["nv"],
                         float(header["vmax"]), values)
