"""Counter-based random streams with stable derivation from (seed, labels).

Every stochastic routine in the package draws from a Philox generator whose
128-bit key is derived here. Streams are independent of scheduling: a worker
that evaluates node 17 gets the same draws whether it runs first, last, or
alone, so parallel results are bitwise equal to sequential ones.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    # splitmix64 finalizer; full 64-bit avalanche
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _part_to_int(part: int | float | str | bytes) -> int:
    if isinstance(part, int):
        return part & _MASK64
    if isinstance(part, float):
        return int(np.float64(part).view(np.uint64))
    if isinstance(part, str):
        part = part.encode("utf-8")
    if isinstance(part, (bytes, bytearray)):
        h = 0xCBF29CE484222325
        for b in part:
            h = ((h ^ b) * 0x100000001B3) & _MASK64
        return h
    raise TypeError(f"cannot derive a stream from part of type {type(part)!r}")


def derive_key(seed: int, *parts: int | float | str | bytes) -> int:
    """Mix a base seed with arbitrary labels into one 64-bit stream key."""
    h = _mix64(seed & _MASK64)
    for part in parts:
        h = _mix64((h + _GOLDEN + _part_to_int(part)) & _MASK64)
    return h


def stream(seed: int, *parts: int | float | str | bytes) -> np.random.Generator:
    """Philox generator keyed by (seed, parts); independent across distinct parts."""
    key = np.array([seed & _MASK64, derive_key(seed, *parts)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
