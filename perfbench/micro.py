"""Layer microbenches on fixed inputs, for costs that spans cannot isolate.

- ``interpolate_many`` on a 61^3 grid (1.7 MB, fits a 2-4 MB L2) and a
  197^3 grid (58 MB, past L2), on the same query points;
- ``transform_velocities`` over 10^6 pairs;
- ``moment_rates`` on a 61^3 grid at 1 and 2 threads.

Each figure is the median of several repeats. The query points come from
the benchmark seed; the grids and sizes are fixed.
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import now

UNIT_MASS = 1.380649e-23
INTERP_BATCH = 1 << 15     # the estimator's chunk size
INTERP_BATCHES = 8
PAIRS = 1_000_000
MOMENT_SAMPLES = 1 << 18
REPEATS = 5


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = now()
        fn()
        times.append(now() - start)
    return statistics.median(times)


def run(seed: int) -> tuple[dict[str, float], dict]:
    """Returns (metrics, description of the fixed inputs)."""
    from kinetics.collision_kernel import CollisionBranch, transform_velocities
    from kinetics.collision_operator import QuadratureSpec, moment_rates
    from kinetics.distribution import VelocityGrid, interpolate_many, maxwellian

    rng = np.random.default_rng(seed)
    metrics: dict[str, float] = {}
    grids = {}
    for nodes in (61, 197):
        f = maxwellian(VelocityGrid(vmax=5.5, nodes_per_axis=nodes), 1.0,
                       (0.0, 0.0, 0.0), 1.0, UNIT_MASS)
        batches = rng.uniform(-5.5, 5.5, (INTERP_BATCHES, INTERP_BATCH, 3))
        seconds = _median_time(lambda: [interpolate_many(f, b) for b in batches])
        metrics[f"micro.interpolate_many.grid{nodes}.ns_per_point"] = (
            1e9 * seconds / (INTERP_BATCHES * INTERP_BATCH))
        grids[f"grid{nodes}"] = {"nodes_per_axis": nodes, "bytes": f.values.nbytes}
        del f

    v1 = rng.uniform(-3.0, 3.0, (PAIRS, 3))
    v2 = rng.uniform(-3.0, 3.0, (PAIRS, 3))
    n = rng.standard_normal((PAIRS, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    seconds = _median_time(lambda: transform_velocities(
        v1, v2, n, 0.9, CollisionBranch.REFLECTIVE, 1.0, 1.0), repeats=3)
    metrics["collision_kernel.transform_velocities.ns_per_pair"] = 1e9 * seconds / PAIRS
    del v1, v2, n

    f = maxwellian(VelocityGrid(vmax=4.5, nodes_per_axis=61), 1.0, (0.0, 0.0, 0.0),
                   1.0, UNIT_MASS)
    spec = QuadratureSpec(samples=MOMENT_SAMPLES, seed=seed, diameter=1.0,
                          mass=UNIT_MASS, epsilon=0.8, branch=CollisionBranch.REFLECTIVE)
    for workers in (1, 2):
        seconds = _median_time(lambda: moment_rates(f, spec, threads=workers), repeats=3)
        metrics[f"micro.moment_rates.threads{workers}.ns_per_sample"] = (
            1e9 * seconds / MOMENT_SAMPLES)
    inputs = {"interpolate_points": [INTERP_BATCHES, INTERP_BATCH], "grids": grids,
              "transform_pairs": PAIRS, "moment_samples": MOMENT_SAMPLES,
              "moment_threads": [1, 2]}
    return metrics, inputs
