"""One-particle velocity distributions on a uniform Cartesian grid.

The grid spans ``[-vmax, vmax]^3`` with an odd or even number of nodes per
axis; values are number density per velocity volume. Distributions are
spatially homogeneous here; transport handles position dependence
analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import BOLTZMANN
from .errors import (UnderResolved, frozen_array, grid_allocation, require_count,
                     require_nonnegative, require_positive, require_vector3)


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


def _node_array(grid: VelocityGrid) -> np.ndarray:
    """A zeroed (n, n, n) array; MemoryError naming nodes_per_axis if none can be allocated."""
    n = grid.nodes_per_axis
    with grid_allocation(f"nodes_per_axis {n}", 8 * int(n)**3):
        return np.zeros((n, n, n))


def _gaussian_values(grid: VelocityGrid, density: float, u: np.ndarray,
                     temperature: float, mass: float) -> np.ndarray:
    """One Maxwellian mode at the nodes; UnderResolved where the grid cannot hold it.

    The array is fresh and sealed, so a DiscreteDistribution adopts it without a copy.
    """
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
    require_positive("temperature", temperature)
    u = require_vector3("bulk_velocity", bulk_velocity)
    return DiscreteDistribution(grid, _gaussian_values(grid, density, u, temperature, mass))


def bimodal(grid: VelocityGrid, density1: float, u1, temperature1: float,
            density2: float, u2, temperature2: float, mass: float) -> DiscreteDistribution:
    """Sum of two Maxwellian modes; a mode with zero density contributes nothing."""
    require_positive("mass", mass)
    # a skipped mode is still a mode: its temperature and velocity keep their rules
    modes = [(require_nonnegative(f"density{i}", density),
              require_positive(f"temperature{i}", temperature), require_vector3(f"u{i}", u))
             for i, (density, u, temperature) in enumerate(((density1, u1, temperature1),
                                                            (density2, u2, temperature2)), 1)]
    total = _node_array(grid)
    for density, temperature, u in modes:
        if density != 0.0:
            total += _gaussian_values(grid, density, u, temperature, mass)
    total.setflags(write=False)
    return DiscreteDistribution(grid, total)


def _axis_index_frac(ax: np.ndarray, coords: np.ndarray, spacing: float):
    """Lower node index and fractional offset per query coordinate.

    The index is ``searchsorted(ax, coords, "right") - 1`` clipped to
    ``[0, n - 2]``, computed without a search: on the uniform axis,
    ``(c - ax[0]) * (1 / spacing)`` truncated is off by at most one node, and
    only for a coordinate within a few ulps of a node. One comparison with the
    node below and one with the node above put such an index in the right
    cell; the second clip handles the hull faces. The fraction snaps to
    exactly 1.0 when the query sits on the upper node, so node queries
    reproduce stored values bit-exactly. ``ax[1:].take(idx)`` is ``ax[idx + 1]``,
    and at -1 the top node, which lies above any coordinate that sent it there.
    """
    n = ax.shape[0]
    idx = ((coords - ax[0]) * (1.0 / spacing)).astype(np.intp)
    np.minimum(np.maximum(idx, 0, out=idx), n - 2, out=idx)
    idx -= ax.take(idx) > coords
    idx += ax[1:].take(idx) <= coords
    np.minimum(np.maximum(idx, 0, out=idx), n - 2, out=idx)
    frac = coords - ax.take(idx)
    frac /= spacing
    np.copyto(frac, 1.0, where=coords == ax[1:].take(idx))
    return idx, frac


def interpolate_many(f: DiscreteDistribution, points) -> np.ndarray:
    """Trilinear interpolation at (..., 3) query points; zero outside the hull.

    Points outside the hull (NaN and infinite coordinates included) are looked
    up at the origin and zeroed afterwards. The coordinates are copied once
    into contiguous (3, m) rows, which one _axis_index_frac call indexes. The
    8 corners are read from the flat value array at offsets from one base
    index, into reused buffers, and added in a fixed order.
    """
    pts = np.asarray(points, dtype=np.float64)
    coords = pts.reshape(-1, 3).T.copy()
    n = f.grid.nodes_per_axis
    within = np.abs(coords) <= f.grid.vmax
    outside = ~(within[0] & within[1] & within[2])
    np.copyto(coords, 0.0, where=outside)
    idx, frac = _axis_index_frac(f.grid.axis, coords, f.grid.spacing)
    corner = (idx[0] * n + idx[1]) * n + idx[2]
    del idx  # the corner loop's buffers take its place
    weights = (1.0 - frac, frac)  # per axis, the weights of the lower and upper node
    vals = f.values.ravel()
    acc = np.zeros(coords.shape[1])
    wxy, term, corner_vals = np.empty_like(acc), np.empty_like(acc), np.empty_like(acc)
    for dx in (0, 1):
        for dy in (0, 1):
            np.multiply(weights[dx][0], weights[dy][1], out=wxy)
            for dz in (0, 1):
                # corner indices are in range by construction; "clip" lets take fill out in place
                vals[(dx * n + dy) * n + dz:].take(corner, out=corner_vals, mode="clip")
                np.multiply(wxy, weights[dz][2], out=term)
                term *= corner_vals
                acc += term
    np.copyto(acc, 0.0, where=outside)
    return acc.reshape(pts.shape[:-1])


def interpolate(f: DiscreteDistribution, v) -> float:
    """Trilinear interpolation at one finite velocity; zero outside the hull."""
    return float(interpolate_many(f, require_vector3("v", v)[None, :])[0])

