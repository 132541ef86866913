"""Exception hierarchy shared by all kinetics modules, and the value rules."""

import math

import numpy as np


def require_positive(name: str, value):
    """value, if it is a positive finite number; else ValueError naming it."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def require_count(name: str, value, minimum):
    """value, if it is an integer (not a bool) of at least minimum; else ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


def frozen_array(obj, name: str, array) -> np.ndarray:
    """Set obj.name to an owned, read-only float64 copy of array; ValueError if not finite."""
    array = np.array(array, dtype=np.float64, order="C")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} must be finite")
    array.setflags(write=False)
    object.__setattr__(obj, name, array)
    return array


class KineticsError(Exception):
    """Base class for all errors raised by this package."""


# The three input-rejecting kernel errors are also ValueErrors, so callers that
# map bad input to a configuration failure catch them without a special case.
class NonUnitNormal(KineticsError, ValueError):
    """Collision normal deviates from unit length beyond tolerance."""


class InvalidRestitution(KineticsError, ValueError):
    """Restitution coefficient outside the admissible interval (0, 1]."""


class SingularRestitution(KineticsError, ValueError):
    """Inverse collision requested at a restitution where it is singular."""


class SpeedExceedsLambda(KineticsError):
    """Velocity magnitude at or above the embedding radius."""


class ChartSingularity(KineticsError):
    """Chart evaluation too close to the excluded projection point."""


class UnderResolved(KineticsError):
    """Velocity grid too coarse or too small for the requested distribution."""


class MajorantExceeded(KineticsError):
    """Relative-speed majorant exceeded after the bounded number of retries."""


class NonFiniteEstimate(KineticsError):
    """Monte Carlo estimate, collision outcome or transported mass overflowed or became NaN."""


class ConfigError(KineticsError):
    """Base class for run-configuration errors."""


class ParseError(ConfigError):
    """Configuration text is not a valid JSON object."""


class ValidationError(ConfigError):
    """Configuration contains an unknown or invalid field."""
