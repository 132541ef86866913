"""Collisionless transport: exact characteristics and a 1D-1V grid solver.

The exact evaluator works in full 3D-3V, at points or over broadcast arrays,
and needs no mesh. The grid solver exists to measure convergence: positions
are periodic on [0, length), velocities live on [-vmax, vmax] with zero
inflow from outside the hull, and each step is the Strang split v/2 x v/2 of
constant-coefficient back-traces. As in Cheng and Knorr's splitting scheme
the run stays in x-Fourier space, where an x sweep is one complex multiply
per mode, so the x interpolant is trigonometric: exact to roundoff on data
the grid resolves, but it rings on a discontinuous profile. The v sweeps
interpolate cubically. phase_snapshot writes a grid as the package's one
binary format; load_phase_grid reads it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (NonFiniteEstimate, frozen_array, grid_allocation, require_callable,
                     require_count, require_finite, require_member, require_positive)

SNAPSHOT_ORDER_1D1V = "row-major-v-fastest"
# Node shifts at or past this, or not finite, are rejected. The run itself needs only
# finite shifts (an x shift is taken modulo nx), but the bound is the stated dt rule.
_MAX_SHIFT = 2.0**62


@dataclass(frozen=True)
class ForceField:
    """Constant external force (N) acting on particles of the given mass (kg)."""

    force: np.ndarray
    mass: float

    def __post_init__(self) -> None:
        frozen_array(self, "force", self.force, (3,))
        require_positive("mass", self.mass)
        if not np.all(np.isfinite(self.acceleration)):
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
    ValueError if t is not a finite real number; OverflowError if t**2 is past the
    float range; ValueError naming f0 or field if f0 is not callable or field not a
    ForceField.
    """
    require_callable("f0", f0)
    require_member("field", field, ForceField)
    t = require_finite("t", t)
    t_sq = t**2
    with np.errstate(over="ignore", invalid="ignore"):  # a foot past the float range; f0 decides
        r0 = [xi - vi * t + 0.5 * ai * t_sq for xi, vi, ai in zip(x, v, field.acceleration)]
        v0 = [vi - ai * t for vi, ai in zip(v, field.acceleration)]
    return f0(r0, v0)


def _check_mesh(nx: int, length: float, nv: int, vmax: float, prefix: str = ""):
    """(nx, length, nv, vmax), the lengths as floats, if a mesh; each error names prefix + key."""
    nx, nv = require_count(f"{prefix}nx", nx, 4), require_count(f"{prefix}nv", nv, 4)
    length = require_positive(f"{prefix}length", length)
    vmax = require_positive(f"{prefix}vmax", vmax)
    require_positive(f"{prefix}length / nx", length / nx)
    require_positive(f"{prefix}2 * vmax / (nv - 1)", 2.0 * vmax / (nv - 1))
    return nx, length, nv, vmax


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


def _grid_allocation(nx: int, nv: int):
    """The allocation context of a grid of nx by nv nodes; see errors.grid_allocation."""
    return grid_allocation(f"nx {nx} by nv {nv}", 8 * int(nx) * int(nv))


def phase_grid_from_function(fn, nx: int, length: float, nv: int, vmax: float) -> PhaseGrid1D1V:
    """Sample fn(x, v) on the grid nodes; x and v are the x_axis column and v_axis row.

    fn must return a new array, as arithmetic on x and v does: the result is
    sealed read-only and the grid adopts it without a copy.
    """
    _check_mesh(nx, length, nv, vmax)
    with _grid_allocation(nx, nv):
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


def _v_plan(shift: float, nv: int, width: int):
    """Back-trace plan along v for a uniform node shift, on flat rows of the given width.

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
            plan.append((float(w), np.s_[lo * width:hi * width],
                         np.s_[(lo + d) * width:(hi + d) * width]))
    return plan


def _advect(source: np.ndarray, terms, out: np.ndarray, scratch: np.ndarray) -> None:
    """Set out to the sum of the terms' w * source[src], each added into out[dst], from +0.0
    in plan order; scratch holds the products.

    The first product goes straight into its destination and gets 0.0 added,
    which gives the bits of 0.0 + product, a -0.0 product included; the rest
    of out is set to +0.0.
    """
    if not terms:
        out.fill(0.0)
        return
    (w, dst, src), *rest = terms
    first = np.multiply(w, source[src], out=out[dst])
    first += 0.0
    out[:dst.start] = 0.0
    out[dst.stop:] = 0.0
    for w, dst, src in rest:
        product = np.multiply(w, source[src], out=scratch[dst])
        np.add(out[dst], product, out=out[dst])


def _floats(modes: np.ndarray) -> np.ndarray:
    """The flat float64 view of C-contiguous complex mode rows: re, im of each mode in turn."""
    return modes.reshape(-1).view(np.float64)


@dataclass(frozen=True)
class TransportRunResult:
    grid: PhaseGrid1D1V
    mass_drift: float


def semi_lagrangian_run(f0: PhaseGrid1D1V, field: ForceField, dt: float,
                        n_steps: int) -> TransportRunResult:
    """Advance n_steps of Strang-split advection; reports relative mass drift.

    The velocity axis is driven by the x-component of the force. Each step is
    v/2 x v/2, run as v/2 (x v)^(n-1) x v/2: the v half-steps that meet add up
    to one full step. The grid is kept as nv velocity rows of nx // 2 + 1
    complex x modes, from one rfft before the first step to one irfft after
    the last. An x sweep multiplies mode k of row j in place by
    exp(-2 pi i k s_j / nx), s_j = v_j dt / dx; the table is built once, from
    np.fmod(s_j, nx), which is exact, so a large shift loses no phase. A v
    sweep is _advect of whole rows, viewed as float64, with real weights. The
    k = 0 phase is exactly 1, so the mass is the k = 0 column's real sum,
    taken after each v sweep but the first: between steps half a v step past
    the step boundary, and last at the end state. For even nx, irfft reads
    only the real part of the Nyquist column, the nodes' values of the real
    interpolant Re(c exp(i pi x / dx)), which the phases shift exactly. A run
    of no steps returns f0 itself.
    """
    require_member("f0", f0, PhaseGrid1D1V)
    require_member("field", field, ForceField)
    require_positive("dt", dt)
    require_count("n_steps", n_steps, 0)
    ax = float(field.acceleration[0])
    nx, nv = f0.nx, f0.nv
    x_shift = f0.v_axis * dt / f0.dx
    v_shift = ax * dt / f0.dv
    if not (np.all(np.abs(x_shift) < _MAX_SHIFT) and abs(v_shift) < _MAX_SHIFT):
        raise ValueError(f"dt {dt} moves the grid by a node shift that is not finite "
                         f"or not below 2**62 nodes")
    if not n_steps:
        return TransportRunResult(grid=f0, mass_drift=0.0)
    n_modes = nx // 2 + 1
    with _grid_allocation(nx, nv):
        phase = np.exp((-2j * np.pi / nx) * np.multiply.outer(np.fmod(x_shift, nx),
                                                               np.arange(n_modes)))
        v_half = _v_plan(0.5 * v_shift, nv, 2 * n_modes)
        v_full = _v_plan(v_shift, nv, 2 * n_modes)
        values, moved, scratch = (np.zeros((nv, n_modes), np.complex128) for _ in range(3))
        np.fft.rfft(f0.values.T, axis=1, out=values)
    worst_drift = 0.0
    mass0 = float(np.sum(values[:, 0].real)) * f0.dx * f0.dv
    _advect(_floats(values), v_half, _floats(moved), _floats(scratch))
    values, moved = moved, values
    for step in range(1, n_steps + 1):
        values *= phase
        _advect(_floats(values), v_half if step == n_steps else v_full, _floats(moved),
                _floats(scratch))
        values, moved = moved, values
        if mass0 != 0.0:
            mass = float(np.sum(values[:, 0].real)) * f0.dx * f0.dv
            drift = abs(mass - mass0) / abs(mass0)
            if not np.isfinite(drift):
                raise NonFiniteEstimate(f"mass drift is not finite ({mass0!r} -> {mass!r})")
            worst_drift = max(worst_drift, drift)
    phase = moved = scratch = None  # freed first, so the result does not raise the peak
    values /= nx  # before the inverse, whose unscaled sums reach nx times a value
    with _grid_allocation(nx, nv):
        xmajor = np.empty((nx, nv))
        np.fft.irfft(values, n=nx, axis=1, norm="forward", out=xmajor.T)
    xmajor.setflags(write=False)  # a fresh array, adopted by the grid
    grid = PhaseGrid1D1V(nx, f0.length, nv, f0.vmax, xmajor)
    return TransportRunResult(grid=grid, mass_drift=worst_drift)


def phase_snapshot(grid: PhaseGrid1D1V) -> bytes:
    """Snapshot bytes of a phase grid: a one-line JSON header, a newline, then the
    values as little-endian float64, v fastest; load_phase_grid reads them back."""
    header = {"kind": "phase-1d1v", "nx": grid.nx, "length": grid.length,
              "nv": grid.nv, "vmax": grid.vmax, "order": SNAPSHOT_ORDER_1D1V}
    payload = np.ascontiguousarray(grid.values, dtype="<f8")
    return json.dumps(header).encode("ascii") + b"\n" + payload.tobytes()


def load_phase_grid(path) -> PhaseGrid1D1V:
    """The phase grid of a phase_snapshot file. A malformed file raises ValueError
    naming its defect: no header line, a header that is not a JSON object, a wrong
    kind or order, a bad nx, nv, length or vmax, or a payload of the wrong size."""
    head, newline, payload = Path(path).read_bytes().partition(b"\n")
    if not newline:
        raise ValueError("snapshot has no header line")
    try:
        header = json.loads(head.decode("ascii"))
    except (ValueError, RecursionError):
        header = None
    if not isinstance(header, dict):
        raise ValueError("snapshot header is not a JSON object")
    for key, value in (("kind", "phase-1d1v"), ("order", SNAPSHOT_ORDER_1D1V)):
        if header.get(key) != value:
            raise ValueError(f"snapshot {key} is {header.get(key)!r}, expected {value!r}")
    nx, length, nv, vmax = _check_mesh(*map(header.get, ("nx", "length", "nv", "vmax")),
                                       prefix="snapshot ")
    if len(payload) != 8 * nx * nv:
        raise ValueError(f"snapshot payload is {len(payload)} bytes, expected 8 x {nx} x {nv}")
    values = np.frombuffer(payload, dtype="<f8").reshape(nx, nv)
    return PhaseGrid1D1V(nx, length, nv, vmax, values)
