"""Index arithmetic and flat gather against the searchsorted lookup they replace.

``_reference_axis_index_frac`` and ``_reference_interpolate_many`` are the
former bodies of ``distribution._axis_index_frac`` and
``distribution.interpolate_many``, kept here verbatim as the reference. The
current code must give the same indices and the same bits, on the nodes,
one ulp either side of them, at the hull faces and outside the hull.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kinetics.collision_kernel import _dot3
from kinetics.distribution import (
    DiscreteDistribution,
    VelocityGrid,
    _axis_index_frac,
    interpolate_many,
)


def _reference_axis_index_frac(ax: np.ndarray, coords: np.ndarray, spacing: float):
    n = ax.shape[0]
    idx = np.searchsorted(ax, coords, side="right") - 1
    np.clip(idx, 0, n - 2, out=idx)
    frac = (coords - ax[idx]) / spacing
    on_upper = coords == ax[idx + 1]
    frac = np.where(on_upper, 1.0, frac)
    return idx, frac


def _reference_interpolate_many(f: DiscreteDistribution, points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    flat = pts.reshape(-1, 3)
    ax = f.grid.axis
    vmax = f.grid.vmax
    h = f.grid.spacing
    inside = np.all((flat >= -vmax) & (flat <= vmax), axis=1)
    out = np.zeros(flat.shape[0])
    if np.any(inside):
        q = flat[inside]
        ix, fx = _reference_axis_index_frac(ax, q[:, 0], h)
        iy, fy = _reference_axis_index_frac(ax, q[:, 1], h)
        iz, fz = _reference_axis_index_frac(ax, q[:, 2], h)
        vals = f.values
        acc = np.zeros(q.shape[0])
        for dx in (0, 1):
            wx = fx if dx else 1.0 - fx
            for dy in (0, 1):
                wy = fy if dy else 1.0 - fy
                for dz in (0, 1):
                    wz = fz if dz else 1.0 - fz
                    acc += wx * wy * wz * vals[ix + dx, iy + dy, iz + dz]
        out[inside] = acc
    return out.reshape(pts.shape[:-1])


VMAX = st.floats(min_value=1e-3, max_value=1e3)


def _coordinate(ax: np.ndarray, outside: bool):
    """One coordinate in the hull, on a node, a node +-1 ulp or a face."""
    vmax = float(ax[-1])
    node = st.integers(0, ax.shape[0] - 1).map(lambda i: float(ax[i]))
    kinds = [
        st.floats(min_value=-vmax, max_value=vmax),
        node,
        node.map(lambda c: float(np.nextafter(c, np.inf))),
        node.map(lambda c: float(np.nextafter(c, -np.inf))),
        st.sampled_from([-vmax, vmax]),
    ]
    if outside:
        kinds += [
            st.floats(min_value=-4.0 * vmax, max_value=4.0 * vmax),
            st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308]),
        ]
    return st.one_of(kinds)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.all(a.view(np.uint64) == b.view(np.uint64)))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(4, 256), VMAX)
def test_axis_index_frac_matches_searchsorted(data, nodes, vmax):
    grid = VelocityGrid(vmax=vmax, nodes_per_axis=nodes)
    ax = grid.axis
    coords = np.array(data.draw(st.lists(_coordinate(ax, outside=False),
                                         min_size=1, max_size=64)))
    idx, frac = _axis_index_frac(ax, coords, grid.spacing)
    ref_idx, ref_frac = _reference_axis_index_frac(ax, coords, grid.spacing)
    np.testing.assert_array_equal(idx, ref_idx)
    assert _same_bits(frac, ref_frac)


def test_axis_index_frac_on_every_node_and_its_neighbouring_floats():
    for nodes, vmax in ((4, 1e-3), (41, 4.0), (61, 6.0), (197, 5.5), (256, 1e3)):
        grid = VelocityGrid(vmax=vmax, nodes_per_axis=nodes)
        ax = grid.axis
        coords = np.concatenate([ax, np.nextafter(ax, np.inf), np.nextafter(ax, -np.inf)])
        idx, frac = _axis_index_frac(ax, coords, grid.spacing)
        ref_idx, ref_frac = _reference_axis_index_frac(ax, coords, grid.spacing)
        np.testing.assert_array_equal(idx, ref_idx)
        assert _same_bits(frac, ref_frac)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(4, 48), VMAX, st.integers(0, 2**32 - 1))
def test_interpolate_many_matches_reference(data, nodes, vmax, seed):
    grid = VelocityGrid(vmax=vmax, nodes_per_axis=nodes)
    values = np.random.default_rng(seed).exponential(size=(nodes,) * 3)
    f = DiscreteDistribution(grid, values)
    coordinate = _coordinate(grid.axis, outside=True)
    points = np.array(data.draw(st.lists(st.tuples(coordinate, coordinate, coordinate),
                                         min_size=1, max_size=48)))
    assert _same_bits(interpolate_many(f, points), _reference_interpolate_many(f, points))


def test_interpolate_many_matches_reference_on_random_batches():
    generator = np.random.default_rng(11)
    for nodes, vmax in ((17, 3.0), (61, 6.0)):
        grid = VelocityGrid(vmax=vmax, nodes_per_axis=nodes)
        f = DiscreteDistribution(grid, generator.exponential(size=(nodes,) * 3))
        points = generator.uniform(-1.05 * vmax, 1.05 * vmax, (4, 5000, 3))
        assert _same_bits(interpolate_many(f, points),
                          _reference_interpolate_many(f, points))


ANY_FLOAT = st.one_of(st.floats(allow_nan=False),
                      st.sampled_from([0.0, -0.0, np.inf, -np.inf]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(*[ANY_FLOAT] * 6), min_size=1, max_size=32))
def test_dot3_matches_numpy_sum(rows):
    pairs = np.array(rows).reshape(-1, 2, 3)
    a, b = pairs[:, 0], pairs[:, 1]
    with np.errstate(all="ignore"):
        got = _dot3(a, b)
        want = np.sum(a * b, axis=-1)
        broadcast = _dot3(a[:, None, :], b[None, :, :])
        want_broadcast = np.sum(a[:, None, :] * b[None, :, :], axis=-1)
    assert _same_bits(got, want)
    assert _same_bits(broadcast, want_broadcast)
