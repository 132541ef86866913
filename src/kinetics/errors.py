"""Exception hierarchy shared by all kinetics modules."""


class KineticsError(Exception):
    """Base class for all errors raised by this package."""


class NonUnitNormal(KineticsError):
    """Collision normal deviates from unit length beyond tolerance."""


class InvalidRestitution(KineticsError):
    """Restitution coefficient outside the admissible interval (0, 1]."""


class SingularRestitution(KineticsError):
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
    """Monte Carlo estimate overflowed or became NaN."""


class ConfigError(KineticsError):
    """Base class for run-configuration errors."""


class ParseError(ConfigError):
    """Configuration text is not a valid JSON object."""


class ValidationError(ConfigError):
    """Configuration contains an unknown or invalid field."""
