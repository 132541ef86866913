"""One-particle velocity distributions on a uniform Cartesian grid.

The grid spans ``[-vmax, vmax]^3`` with an odd or even number of nodes per
axis; values are number density per velocity volume. Distributions are
spatially homogeneous here; transport handles position dependence
analytically.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .constants import BOLTZMANN
from .errors import (UnderResolved, frozen_array, require_count, require_positive,
                     require_vector3)

SNAPSHOT_ORDER_3D = "row-major-z-fastest"


@dataclass(frozen=True)
class VelocityGrid:
    """Uniform node-centered grid on [-vmax, vmax] per axis."""

    vmax: float
    nodes_per_axis: int

    def __post_init__(self) -> None:
        require_positive("vmax", self.vmax)
        require_count("nodes_per_axis", self.nodes_per_axis, 4)

    @property
    def spacing(self) -> float:
        return 2.0 * self.vmax / (self.nodes_per_axis - 1)

    @cached_property
    def axis(self) -> np.ndarray:
        ax = np.linspace(-self.vmax, self.vmax, self.nodes_per_axis)
        ax.setflags(write=False)
        return ax

    @property
    def hull_volume(self) -> float:
        return (2.0 * self.vmax) ** 3

    @property
    def node_volume(self) -> float:
        return self.spacing**3


@dataclass(frozen=True)
class DiscreteDistribution:
    """Distribution samples, shape (n, n, n), indexed [ix, iy, iz], z fastest."""

    grid: VelocityGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.nodes_per_axis
        values = frozen_array(self, "values", self.values, (n, n, n))
        if values.min() < 0.0:
            raise ValueError("distribution values must be nonnegative")


class Moments(NamedTuple):
    density: float
    momentum: np.ndarray
    kinetic_energy: float


def _node_array(grid: VelocityGrid) -> np.ndarray:
    """A zeroed (n, n, n) array; MemoryError naming nodes_per_axis if none can be allocated."""
    n = grid.nodes_per_axis
    try:
        return np.zeros((n, n, n))
    except (MemoryError, ValueError):  # ValueError: more bytes than an index can hold
        raise MemoryError(f"nodes_per_axis {n} needs {8 * n**3} bytes for one grid "
                          f"array, more than can be allocated") from None


def _gaussian_values(grid: VelocityGrid, density: float, bulk_velocity,
                     temperature: float, mass: float, velocity_name: str,
                     temperature_name: str) -> np.ndarray:
    """One Maxwellian mode at the nodes; UnderResolved where the grid cannot hold it.

    The array is fresh and sealed, so a DiscreteDistribution adopts it without a copy.
    """
    require_positive(temperature_name, temperature)
    u = require_vector3(velocity_name, bulk_velocity)
    vth = np.sqrt(BOLTZMANN * temperature / mass)
    if grid.spacing > vth / 3.0:
        raise UnderResolved(
            f"spacing {grid.spacing:g} exceeds a third of the thermal speed {vth:g}")
    speed = math.hypot(*u)  # no overflow, so the message names the true |u|
    if grid.vmax < speed + 4.0 * vth:
        raise UnderResolved(
            f"vmax {grid.vmax:g} below |u| + 4 thermal speeds = {speed + 4.0 * vth:g}")
    sq = _node_array(grid)
    ax = grid.axis
    dx = ax - u[0]
    dy = ax - u[1]
    dz = ax - u[2]
    np.add((dx**2)[:, None, None] + (dy**2)[None, :, None], (dz**2)[None, None, :], out=sq)
    kt = BOLTZMANN * temperature
    coef = density * (mass / (2.0 * np.pi * kt)) ** 1.5
    # coef * exp(-0.5 * mass * sq / kt) in place on sq: one grid array, same bits
    sq *= -0.5 * mass
    sq /= kt
    np.exp(sq, out=sq)
    sq *= coef
    sq.setflags(write=False)
    return sq


def maxwellian(grid: VelocityGrid, density: float, bulk_velocity,
               temperature: float, mass: float) -> DiscreteDistribution:
    """Drifting Maxwellian sampled at the grid nodes."""
    require_positive("density", density)
    require_positive("mass", mass)
    return DiscreteDistribution(grid, _gaussian_values(grid, density, bulk_velocity,
                                                       temperature, mass, "bulk_velocity",
                                                       "temperature"))


def bimodal(grid: VelocityGrid, density1: float, u1, temperature1: float,
            density2: float, u2, temperature2: float, mass: float) -> DiscreteDistribution:
    """Sum of two Maxwellian modes; a mode with zero density contributes nothing."""
    require_positive("mass", mass)
    total = _node_array(grid)
    for mode, (density, u, temperature) in enumerate(((density1, u1, temperature1),
                                                      (density2, u2, temperature2)), 1):
        if not density >= 0.0:  # NaN fails too
            raise ValueError(f"density{mode} must be nonnegative, got {density}")
        if density == 0.0:
            continue
        total += _gaussian_values(grid, density, u, temperature, mass, f"u{mode}",
                                  f"temperature{mode}")
    total.setflags(write=False)
    return DiscreteDistribution(grid, total)


def moments(f: DiscreteDistribution, mass: float) -> Moments:
    """Node-weight sums: density, momentum, kinetic energy per volume."""
    h3 = f.grid.node_volume
    ax = f.grid.axis
    density = float(np.sum(f.values)) * h3
    px = float(np.sum(f.values * ax[:, None, None]))
    py = float(np.sum(f.values * ax[None, :, None]))
    pz = float(np.sum(f.values * ax[None, None, :]))
    momentum = mass * h3 * np.array([px, py, pz])
    sq = (ax**2)[:, None, None] + (ax**2)[None, :, None] + (ax**2)[None, None, :]
    kinetic = 0.5 * mass * h3 * float(np.sum(f.values * sq))
    return Moments(density=density, momentum=momentum, kinetic_energy=kinetic)


def _axis_index_frac(ax: np.ndarray, coords: np.ndarray, spacing: float):
    """Lower node index and fractional offset per query coordinate.

    The index is ``searchsorted(ax, coords, "right") - 1`` clipped to
    ``[0, n - 2]``, computed without a search: on the uniform axis,
    ``(c - ax[0]) * (1 / spacing)`` truncated is off by at most one node, and
    only for a coordinate within a few ulps of a node. One comparison with the
    node below and one with the node above put such an index in the right
    cell; the second clip handles the hull faces. The fraction snaps to
    exactly 1.0 when the query sits on the upper node, so node queries
    reproduce stored values bit-exactly.
    """
    n = ax.shape[0]
    idx = ((coords - ax[0]) * (1.0 / spacing)).astype(np.intp)
    np.clip(idx, 0, n - 2, out=idx)
    idx -= ax[idx] > coords
    idx += ax[idx + 1] <= coords
    np.clip(idx, 0, n - 2, out=idx)
    frac = (coords - ax[idx]) / spacing
    frac[coords == ax[idx + 1]] = 1.0
    return idx, frac


def interpolate_many(f: DiscreteDistribution, points) -> np.ndarray:
    """Trilinear interpolation at (..., 3) query points; zero outside the hull.

    Points outside the hull (NaN and infinite coordinates included) are looked
    up at the origin and zeroed afterwards. The 8 corners are read from the
    flat value array at offsets from one base index and added in a fixed order.
    """
    pts = np.asarray(points, dtype=np.float64)
    flat = pts.reshape(-1, 3)
    ax = f.grid.axis
    n = f.grid.nodes_per_axis
    h = f.grid.spacing
    within = np.abs(flat) <= f.grid.vmax
    inside = within[:, 0] & within[:, 1] & within[:, 2]
    ix, fx = _axis_index_frac(ax, np.where(inside, flat[:, 0], 0.0), h)
    iy, fy = _axis_index_frac(ax, np.where(inside, flat[:, 1], 0.0), h)
    iz, fz = _axis_index_frac(ax, np.where(inside, flat[:, 2], 0.0), h)
    corner = (ix * n + iy) * n + iz
    vals = f.values.ravel()
    acc = np.zeros(flat.shape[0])
    for dx in (0, 1):
        wx = fx if dx else 1.0 - fx
        for dy in (0, 1):
            wxy = wx * (fy if dy else 1.0 - fy)
            for dz in (0, 1):
                wz = fz if dz else 1.0 - fz
                acc += wxy * wz * vals.take(corner + ((dx * n + dy) * n + dz))
    acc[~inside] = 0.0
    return acc.reshape(pts.shape[:-1])


def interpolate(f: DiscreteDistribution, v) -> float:
    """Trilinear interpolation at one velocity; zero outside the hull."""
    return float(interpolate_many(f, require_vector3("v", v)[None, :])[0])


def snapshot_bytes(header: dict, array: np.ndarray) -> bytes:
    """One-line JSON header, newline, then little-endian float64 payload."""
    payload = np.ascontiguousarray(array, dtype="<f8")
    return json.dumps(header).encode("ascii") + b"\n" + payload.tobytes()


def read_snapshot(path, expect: dict, dims: tuple[str, ...],
                  floats: tuple[str, ...]) -> tuple[dict, np.ndarray]:
    """Header and payload of a snapshot whose header holds ``expect``.

    The payload is shaped by the integer header fields named in ``dims``; the
    header fields named in ``floats`` must be positive finite numbers. A
    malformed file raises ValueError that names what is wrong with it.
    """
    head, newline, payload = Path(path).read_bytes().partition(b"\n")
    if not newline:
        raise ValueError("snapshot has no header line")
    try:
        header = json.loads(head.decode("ascii"))
    except (ValueError, RecursionError):
        header = None
    if not isinstance(header, dict):
        raise ValueError("snapshot header is not a JSON object")
    for key, value in expect.items():
        if header.get(key) != value:
            raise ValueError(f"snapshot {key} is {header.get(key)!r}, expected {value!r}")
    shape = [header.get(name) for name in dims]
    for name, size in zip(dims, shape):
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise ValueError(f"snapshot dimension {name} is missing or not a positive integer")
    for name in floats:
        value = header.get(name)
        real = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (real and 0.0 < value <= sys.float_info.max):
            raise ValueError(f"snapshot {name} is missing or not a positive finite number")
    if len(payload) != 8 * math.prod(shape):
        raise ValueError(f"snapshot payload is {len(payload)} bytes, expected 8 x "
                         f"{' x '.join(map(str, shape))}")
    return header, np.frombuffer(payload, dtype="<f8").reshape(shape)


def save_distribution(f: DiscreteDistribution, path) -> None:
    header = {"nodes_per_axis": f.grid.nodes_per_axis, "vmax": f.grid.vmax,
              "order": SNAPSHOT_ORDER_3D}
    Path(path).write_bytes(snapshot_bytes(header, f.values))


def load_distribution(path) -> DiscreteDistribution:
    header, values = read_snapshot(path, {"order": SNAPSHOT_ORDER_3D},
                                   ("nodes_per_axis",) * 3, ("vmax",))
    grid = VelocityGrid(vmax=float(header["vmax"]), nodes_per_axis=header["nodes_per_axis"])
    return DiscreteDistribution(grid, values)
