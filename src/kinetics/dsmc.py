"""Spatially homogeneous direct-simulation particle gas.

Candidate pairs follow the no-time-counter scheme: the ensemble fills a unit
volume, so at number density rho the expected candidate count per step is
N(N-1)/2 * (rho/N) * pi d^2 * g_max * dt, and a candidate
with relative velocity g and a direction n drawn uniformly on the sphere is
accepted with probability |g . n| / g_max. Accepted pairs are transformed by
the selected impact rule, so the realized collision frequency matches the
quadrature kernel (1/4) d^2 |g . n| integrated over the full sphere.

The majorant in force at each step is max(2 * speed bound, config majorant),
the bound being the largest particle speed at the step's start, read from
squared speeds kept beside the velocities. A collision chain that pushes a
relative speed above it aborts the step, which is retried with the majorant
doubled. Draws come from streams keyed by (seed, step index): a run is
bit-reproducible.

A step's candidates are drawn up front and run in dependency waves: a
candidate's wave is 1 + the largest wave of any earlier candidate sharing
one of its particles. Candidates on disjoint particles commute, and each one
runs after every earlier candidate it shares a particle with, accepted or
not, so it reads the velocities that a one-by-one sweep in draw order would
give it. Each wave is one numpy pass using the same IEEE operation order as
that sweep, which makes the two bit-identical. A pierced majorant is caught
before the wave that reads it writes anything, and the earlier waves are
undone from a journal, so the whole attempt is discarded as in the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import rng
from .collision_kernel import CollisionBranch, Species, _dot3, _validate_restitution
from .constants import BOLTZMANN
from .errors import (MajorantExceeded, NonFiniteEstimate, frozen_array, require_count,
                     require_member, require_nonnegative, require_positive, require_vector3)

_MAJORANT_RETRIES = 8
_UNOWNED = np.iinfo(np.intp).max  # _wave_schedule's free-particle mark, above every index


@dataclass(frozen=True)
class ParticleEnsemble:
    """Simulator particles in a unit volume: velocities (N, 3) of one species."""

    velocities: np.ndarray
    species: Species

    def __post_init__(self) -> None:
        velocities = frozen_array(self, "velocities", self.velocities)
        if velocities.ndim != 2 or velocities.shape[1] != 3:
            raise ValueError(f"velocities must have shape (N, 3), got {velocities.shape}")

    @property
    def count(self) -> int:
        return self.velocities.shape[0]


@dataclass(frozen=True)
class DsmcConfig:
    """Step size, gas state, impact rule, and the majorant floor."""

    dt: float
    number_density: float
    epsilon: float
    branch: CollisionBranch
    seed: int
    majorant_relative_speed: float

    def __post_init__(self) -> None:
        require_positive("dt", self.dt)
        require_positive("number_density", self.number_density)
        _validate_restitution(self.epsilon)
        require_member("branch", self.branch, CollisionBranch)
        require_count("seed", self.seed, -math.inf)
        require_positive("majorant_relative_speed", self.majorant_relative_speed)


class EnsembleMoments(NamedTuple):
    density: float
    momentum: np.ndarray
    temperature: float


def sample_maxwellian_ensemble(count: int, species: Species, bulk_velocity,
                               temperature: float, seed: int) -> ParticleEnsemble:
    """Gaussian velocities with the requested mean and temperature.

    T = 0 collapses every velocity onto the bulk velocity exactly.
    """
    require_count("count", count, 2)
    require_count("seed", seed, -math.inf)
    require_nonnegative("temperature", temperature)
    u = require_vector3("bulk_velocity", bulk_velocity)
    sigma = math.sqrt(BOLTZMANN * temperature / require_member("species", species, Species).mass)
    generator = rng.stream(seed, "dsmc-maxwellian")
    velocities = generator.standard_normal((count, 3))
    velocities *= sigma  # scaled, then shifted, in place: the bits of u + sigma * normals
    velocities += u
    velocities.setflags(write=False)  # fresh, so the ensemble adopts it
    return ParticleEnsemble(velocities=velocities, species=species)


def moments(v: np.ndarray, m: float, density: float) -> EnsembleMoments:
    """Density as given, then momentum per volume and temperature (K).

    v is (N, 3) in a unit volume, so each particle of mass m counts density / N times.
    """
    n = v.shape[0]
    w = density / n
    total = np.sum(v, axis=0)
    momentum = m * w * total
    # E|v - E v|^2 in two passes, since E|v|^2 - |E v|^2 cancels under a bulk velocity
    mean = total / n  # the bits of np.mean(v, axis=0)
    peculiar_sq = np.zeros(n)
    for axis in range(3):  # one (N,) component at a time, x + y + z in _dot3's order
        component = v[:, axis] - mean[axis]
        component *= component
        peculiar_sq += component
    temperature = m * float(np.mean(peculiar_sq)) / (3.0 * BOLTZMANN)
    return EnsembleMoments(density=density, momentum=momentum, temperature=temperature)


def _wave_schedule(first: np.ndarray, second: np.ndarray,
                   owner: np.ndarray) -> list[np.ndarray]:
    """Candidate indices grouped into dependency waves, earliest wave first.

    A candidate's wave is 1 + the largest wave of any earlier candidate that
    shares one of its particles (Kahn layering: each round takes the remaining
    candidates that are the earliest remaining user of both their particles).
    So no particle occurs twice in a wave, and every candidate runs after the
    earlier candidates it shares a particle with. owner is a scratch array of
    _UNOWNED, one per particle, which each round returns to all _UNOWNED.
    """
    remaining = np.arange(first.size)
    i, j = first, second
    waves = []
    while remaining.size:
        np.minimum.at(owner, i, remaining)
        np.minimum.at(owner, j, remaining)
        ready = (owner[i] == remaining) & (owner[j] == remaining)
        waves.append(remaining[ready])
        owner[i] = _UNOWNED
        owner[j] = _UNOWNED
        later = ~ready
        remaining, i, j = remaining[later], i[later], j[later]
    return waves


def _attempt_step(v: np.ndarray, speed_sq: np.ndarray, config: DsmcConfig,
                  species: Species, generator: np.random.Generator, majorant: float,
                  owner: np.ndarray) -> bool:
    """One candidate sweep on v and its squared speeds in place; False if pierced.

    owner is _wave_schedule's scratch array, reused across steps.

    Accepted collisions are journaled wave by wave with their pre-collision
    velocities and squared speeds, so a pierced attempt is unwound exactly
    instead of copying the whole ensemble every step.
    """
    n = v.shape[0]
    expected = (0.5 * n * (n - 1) * (config.number_density / n) * math.pi
                * species.diameter**2 * majorant * config.dt)
    pairs = n * (n - 1) // 2
    if not expected <= pairs:  # past this some pair would be drawn twice in one step
        raise ValueError(f"dt {config.dt!r} is too long for no-time-counter selection: "
                         f"{expected!r} expected candidates exceed the {pairs} pairs")
    n_candidates = int(math.floor(expected + generator.uniform()))
    if n_candidates == 0:
        return True
    first = generator.integers(0, n, n_candidates)
    second = generator.integers(0, n - 1, n_candidates)
    second = second + (second >= first)
    normals = generator.standard_normal((n_candidates, 3))
    uniforms = generator.uniform(0.0, 1.0, n_candidates)
    norms = np.sqrt(_dot3(normals, normals))
    usable = norms >= 1e-300
    norms[~usable] = 1.0  # never accepted; keeps the division quiet
    thresholds = uniforms * majorant
    factor = 0.5 * config.branch.normal_factor(config.epsilon)
    majorant_sq = majorant * majorant
    journal: list[tuple] = []
    for wave in _wave_schedule(first, second, owner):
        i = first[wave]
        j = second[wave]
        vi = v.take(i, axis=0)
        vj = v.take(j, axis=0)
        g = vj - vi
        if np.any(_dot3(g, g) > majorant_sq):
            for accepted_i, accepted_j, old_i, old_j, old_si, old_sj in reversed(journal):
                v[accepted_i] = old_i
                v[accepted_j] = old_j
                speed_sq[accepted_i] = old_si
                speed_sq[accepted_j] = old_sj
            return False
        nw = normals.take(wave, axis=0)
        gn = _dot3(g, nw) / norms[wave]
        hit = np.flatnonzero(usable[wave] & ~(thresholds[wave] >= np.abs(gn)))
        if hit.size == 0:
            continue
        i = i[hit]
        j = j[hit]
        vi = vi.take(hit, axis=0)
        vj = vj.take(hit, axis=0)
        journal.append((i, j, vi, vj, speed_sq[i], speed_sq[j]))
        impulse = (factor * gn[hit] / norms[wave[hit]])[:, None] * nw.take(hit, axis=0)
        w1 = vi + impulse
        w2 = vj - impulse
        v[i] = w1
        v[j] = w2
        speed_sq[i] = _dot3(w1, w1)
        speed_sq[j] = _dot3(w2, w2)
    return True


def advance(ensemble: ParticleEnsemble, config: DsmcConfig, indices: range,
            on_step: Callable[[int, np.ndarray], None] | None = None
            ) -> ParticleEnsemble:
    """The ensemble after the steps in indices; on_step(index, v) after each.

    A step reads only the velocities: its speed bound is the largest speed at
    its start, from squared speeds kept beside them. So range(i, i + 1), from
    the state before step i, recomputes step i of any run bit for bit.
    """
    if ensemble.count < 2 and len(indices):
        raise ValueError("need at least 2 particles to step")
    v = np.array(ensemble.velocities)
    speed_sq = _dot3(v, v)
    owner = np.full(ensemble.count, _UNOWNED)
    for index in indices:
        generator = rng.stream(config.seed, "dsmc-step", index)
        majorant = max(config.majorant_relative_speed, 2.0 * math.sqrt(np.max(speed_sq)))
        for _ in range(_MAJORANT_RETRIES):
            if _attempt_step(v, speed_sq, config, ensemble.species, generator, majorant,
                             owner):
                break
            majorant *= 2.0
        else:
            raise MajorantExceeded(
                f"relative speed still above majorant after {_MAJORANT_RETRIES} doublings")
        if on_step is not None:
            on_step(index, v)
    v.setflags(write=False)  # this call's own copy, so the ensemble adopts it
    return ParticleEnsemble(velocities=v, species=ensemble.species)


def run(ensemble: ParticleEnsemble, config: DsmcConfig, n_steps: int,
        sample_every: int = 1) -> np.ndarray:
    """Step repeatedly, sampling moments; rows are (t, density, px, py, pz, T).

    Row 0 is always the initial state, so n_steps = 0 yields one row.
    """
    require_count("n_steps", n_steps, 0)
    require_count("sample_every", sample_every, 1)
    mass = ensemble.species.mass

    def row(t: float, v: np.ndarray) -> list[float]:
        m = moments(v, mass, config.number_density)
        values = [t, m.density, m.momentum[0], m.momentum[1], m.momentum[2], m.temperature]
        if not np.all(np.isfinite(values)):
            raise NonFiniteEstimate(f"moments are not finite at t = {t!r}")
        return values

    rows = [row(0.0, ensemble.velocities)]

    def sample(index: int, v: np.ndarray) -> None:
        if (index + 1) % sample_every == 0:
            rows.append(row((index + 1) * config.dt, v))

    advance(ensemble, config, range(n_steps), sample)
    return np.array(rows)
