"""Reference check: a probe's stream key is derive_key(0, *v), the former velocity label.

_reference_velocity_label is the label function the operator keyed its probe
streams with before derive_key took its place, kept verbatim, so the probe
streams (and every rate the operator writes) keep their bits.
"""

import re
import warnings

import numpy as np
import pytest

from kinetics import rng
from kinetics.collision_kernel import CollisionBranch
from kinetics.collision_operator import QuadratureSpec, evaluate_at
from kinetics.constants import BOLTZMANN
from kinetics.distribution import VelocityGrid, maxwellian
from kinetics.rng import _GOLDEN, _MASK64, _mix64, derive_key


def _reference_velocity_label(v) -> int:
    """Stable 64-bit label for a velocity 3-vector (bit pattern, not value hash).

    Equal float triples give equal labels, so duplicated probe nodes receive
    identical streams.
    """
    bits = np.asarray(v, dtype=np.float64).reshape(3).view(np.uint64)
    h = 0
    for b in bits:
        h = _mix64((h + _GOLDEN + int(b)) & _MASK64)
    return h


def _probe_vectors(count: int) -> np.ndarray:
    rng = np.random.default_rng(20111)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-310, 1e-300, -1e-300,
                        1e300, -1e300, 1.7976931348623157e308, 1.0, -1.0])
    uniform = rng.uniform(-6.0, 6.0, (count, 3))
    spread = rng.choice([-1.0, 1.0], (count, 3)) * 10.0 ** rng.uniform(-320.0, 308.0, (count, 3))
    mixed = rng.choice(special, (count, 3))
    return np.concatenate([uniform, spread, mixed])


def test_derive_key_from_zero_is_the_velocity_label():
    for v in _probe_vectors(2000):
        assert derive_key(0, *v) == _reference_velocity_label(v)


def test_evaluate_at_keys_its_probe_stream_by_the_velocity_label(monkeypatch):
    keys = []
    real_stream = rng.stream
    monkeypatch.setattr(rng, "stream", lambda seed, *parts: keys.append((seed, parts))
                        or real_stream(seed, *parts))
    f = maxwellian(VelocityGrid(vmax=4.5, nodes_per_axis=41), 1.0, (0, 0, 0), 1.0, BOLTZMANN)
    spec = QuadratureSpec(samples=16, seed=7, diameter=1.0, mass=BOLTZMANN, epsilon=0.9,
                          branch=CollisionBranch.REFLECTIVE)
    v = np.array([0.5, -0.0, 1e-310])
    evaluate_at(f, v, spec)
    assert keys == [(7, ("operator-node", _reference_velocity_label(v)))]


def test_equal_probes_share_a_key_and_signed_zeros_do_not():
    assert derive_key(0, 0.5, -0.0, 2.0) == derive_key(0, *np.array([0.5, -0.0, 2.0]))
    assert derive_key(0, 0.5, -0.0, 2.0) != derive_key(0, 0.5, 0.0, 2.0)


def test_a_bool_part_keys_as_its_int():
    for seed in (0, 1, 7, 2**63, -5):
        assert derive_key(seed, True) == derive_key(seed, 1)
        assert derive_key(seed, False) == derive_key(seed, 0)


@pytest.mark.parametrize("part", [None, 1.5j, [1, 2]])
def test_an_unsupported_key_part_is_rejected_by_its_type(part):
    with pytest.raises(TypeError, match=f"^cannot derive a stream from part of type "
                                        f"{re.escape(repr(type(part)))}$"):
        rng.stream(0, "label", part)


@pytest.mark.parametrize("seed", [5, np.int64(5), np.uint64(5)])
def test_a_numpy_integer_seed_or_part_draws_as_its_int(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rng.stream(seed, "label", type(seed)(3)).random(8)
    assert got.tobytes() == rng.stream(5, "label", 3).random(8).tobytes()
