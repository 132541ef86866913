"""Collisionless transport: exact characteristics and a 1D-1V grid solver.

The exact evaluator works pointwise in full 3D-3V and needs no mesh. The
grid solver exists to measure convergence: positions are periodic on
[0, length), velocities live on [-vmax, vmax] with zero inflow from outside
the hull, and each step is a Strang-split pair of constant-coefficient
back-traces with cubic interpolation.
"""

from __future__ import annotations

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
        frozen_array(self, "force", np.reshape(self.force, 3))
        require_positive("mass", self.mass)

    @property
    def acceleration(self) -> np.ndarray:
        return self.force / self.mass


@dataclass(frozen=True)
class PhasePoint:
    """Position (m), velocity (m/s), time (s)."""

    r: np.ndarray
    v: np.ndarray
    t: float

    def __post_init__(self) -> None:
        frozen_array(self, "r", np.reshape(self.r, 3))
        frozen_array(self, "v", np.reshape(self.v, 3))
        if not np.isfinite(self.t):
            raise ValueError("t must be finite")


def exact_solution(f0, field: ForceField, p: PhasePoint) -> float:
    """Value at p of the transport solution with initial data f0.

    The solution is constant along characteristics, so this back-traces to
    t = 0: f0(r - v t + a t^2 / 2, v - a t).
    """
    a = field.acceleration
    t = p.t
    r0 = p.r - p.v * t + 0.5 * a * t * t
    v0 = p.v - a * t
    return float(f0(r0, v0))


@dataclass(frozen=True)
class PhaseGrid1D1V:
    """Phase-space samples, shape (nx, nv); x periodic, v node-centered."""

    nx: int
    length: float
    nv: int
    vmax: float
    values: np.ndarray

    def __post_init__(self) -> None:
        require_count("nx", self.nx, 4)
        require_count("nv", self.nv, 4)
        require_positive("length", self.length)
        require_positive("vmax", self.vmax)
        values = frozen_array(self, "values", self.values)
        if values.shape != (self.nx, self.nv):
            raise ValueError(f"values shape {values.shape} does not match ({self.nx}, {self.nv})")

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
    """Sample fn(x, v) on the grid nodes."""
    grid = PhaseGrid1D1V(nx, length, nv, vmax, np.zeros((nx, nv)))
    x = grid.x_axis[:, None]
    v = grid.v_axis[None, :]
    return PhaseGrid1D1V(nx, length, nv, vmax, fn(x, v))


def _cubic_weights(t: np.ndarray):
    """Cubic Lagrange weights for nodes -1, 0, 1, 2 at fraction t in [0, 1)."""
    return (
        -t * (t - 1.0) * (t - 2.0) / 6.0,
        (t * t - 1.0) * (t - 2.0) / 2.0,
        -t * (t + 1.0) * (t - 2.0) / 2.0,
        t * (t * t - 1.0) / 6.0,
    )


def _x_plan(shifts: np.ndarray, nx: int):
    """Back-trace plan along axis 0 for a per-column node shift.

    Consecutive columns that share an integer base form one group; each group
    holds, per offset -1, 0, 1, 2, the first source row and the weight row.
    """
    tau = -shifts
    base = np.floor(tau).astype(np.int64)
    weights = _cubic_weights(tau - base)
    edges = [0, *(np.flatnonzero(np.diff(base)) + 1).tolist(), base.shape[0]]
    return [(j, k, [(int(base[j] + offset) % nx, w[None, j:k])
                    for offset, w in zip((-1, 0, 1, 2), weights)])
            for j, k in zip(edges[:-1], edges[1:])]


def _advect_x(values: np.ndarray, plan) -> np.ndarray:
    """Periodic back-trace along axis 0 by the shifts of an _x_plan.

    Rows start..start+nx of the doubled array are the rows rolled by start.
    """
    nx = values.shape[0]
    doubled = np.concatenate((values, values))
    out = np.zeros_like(values)
    for j, k, terms in plan:
        block = out[:, j:k]
        for start, w in terms:
            block += w * doubled[start:start + nx, j:k]
    return out


def _v_plan(shift: float, nv: int):
    """Back-trace plan along axis 1 for a uniform node shift.

    One (weight, destination columns, source columns) triple per offset whose
    source columns overlap the hull; the rest of the hull has zero inflow.
    """
    tau = -shift
    base = int(np.floor(tau))
    weights = _cubic_weights(np.asarray(tau - base))
    plan = []
    for offset, w in zip((-1, 0, 1, 2), weights):
        d = base + offset
        lo, hi = max(0, -d), min(nv, nv - d)
        if lo < hi:
            plan.append((float(w), slice(lo, hi), slice(lo + d, hi + d)))
    return plan


def _advect_v(values: np.ndarray, plan) -> np.ndarray:
    """Back-trace along axis 1 by the shift of a _v_plan; zero outside the hull."""
    out = np.zeros_like(values)
    for w, dst, src in plan:
        out[:, dst] += w * values[:, src]
    return out


@dataclass(frozen=True)
class TransportRunResult:
    grid: PhaseGrid1D1V
    mass_drift: float


def semi_lagrangian_run(f0: PhaseGrid1D1V, field: ForceField, dt: float,
                        n_steps: int) -> TransportRunResult:
    """Advance n_steps of Strang-split advection; reports relative mass drift.

    The velocity axis is driven by the x-component of the force. The shifts
    are fixed for the run, so both back-trace plans are built once.
    """
    require_positive("dt", dt)
    ax = float(field.acceleration[0])
    values = f0.values
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
        mass0 = float(np.sum(values)) * f0.dx * f0.dv
        for _ in range(n_steps):
            values = _advect_x(values, x_plan)
            values = _advect_v(values, v_plan)
            values = _advect_x(values, x_plan)
            if mass0 != 0.0:
                mass = float(np.sum(values)) * f0.dx * f0.dv
                drift = abs(mass - mass0) / abs(mass0)
                if not np.isfinite(drift):
                    raise NonFiniteEstimate(f"mass drift is not finite ({mass0!r} -> {mass!r})")
                worst_drift = max(worst_drift, drift)
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
