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


def require_vector3(name: str, value) -> np.ndarray:
    """value as a float64 array, if its shape is exactly (3,); else ValueError naming it."""
    vector = np.asarray(value, dtype=np.float64)
    if vector.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {vector.shape}")
    return vector


def _sealed(array) -> bool:
    """Whether array is a plain, owned, read-only, C-contiguous float64 ndarray."""
    return (type(array) is np.ndarray and array.dtype == np.float64
            and array.flags.c_contiguous and array.flags.owndata
            and not array.flags.writeable)


def frozen_array(obj, name: str, array, shape=None) -> np.ndarray:
    """Set obj.name to an owned, read-only float64 array, of exactly shape if given.

    A sealed array (see _sealed) of that shape is stored as it is, so a
    builder that seals its fresh array and drops it hands it over without a
    copy; anything else is copied. Nothing in the package unseals an array,
    so the stored one cannot change. ValueError if of another shape or not finite.
    """
    if shape is not None and np.shape(array) != shape:
        raise ValueError(f"{name} must have shape {shape}, got {np.shape(array)}")
    if not _sealed(array):
        array = np.array(array, dtype=np.float64, order="C")
        array.setflags(write=False)
    # min propagates NaN, and min and max catch -inf and +inf, without a full-size mask
    if array.size and not (np.isfinite(array.min()) and np.isfinite(array.max())):
        raise ValueError(f"{name} must be finite")
    object.__setattr__(obj, name, array)
    return array


class KineticsError(Exception):
    """Base class for all errors raised by this package."""


# The errors that reject input (the kernel's three, and a grid too coarse for its
# distribution) are also ValueErrors, so callers that map bad input to a
# configuration failure catch them without a special case.
class NonUnitNormal(KineticsError, ValueError):
    """Collision normal deviates from unit length beyond tolerance."""


class InvalidRestitution(KineticsError, ValueError):
    """Restitution coefficient outside the admissible interval (0, 1]."""


class SingularRestitution(KineticsError, ValueError):
    """Inverse collision requested at a restitution where it is singular."""


class UnderResolved(KineticsError, ValueError):
    """Velocity grid too coarse or too small for the requested distribution."""


class SpeedExceedsLambda(KineticsError):
    """Velocity magnitude at or above the embedding radius."""


class ChartSingularity(KineticsError):
    """Chart evaluation too close to the excluded projection point."""


class MajorantExceeded(KineticsError):
    """Relative-speed majorant exceeded after the bounded number of retries."""


class NonFiniteEstimate(KineticsError):
    """An estimate, collision outcome, particle moment or transported mass is inf or NaN."""


class ConfigError(KineticsError):
    """Base class for run-configuration errors."""


class ParseError(ConfigError):
    """Configuration text is not a valid JSON object."""


class ValidationError(ConfigError):
    """Configuration contains an unknown or invalid field."""
