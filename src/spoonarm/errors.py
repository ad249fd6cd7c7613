"""Exception types shared across the package.

Everything raised on purpose derives from SpoonArmError so callers (and the
CLI) can separate domain failures from programming errors.
"""


class SpoonArmError(Exception):
    """Base class for all domain errors."""


class UnreachableError(SpoonArmError):
    """Target lies outside the reachable workspace."""


class LimitViolationError(SpoonArmError):
    """Target is reachable but only outside the joint limits."""


class InfeasibleBoundsError(SpoonArmError):
    """Spring synthesis has no joint range to fit: it is degenerate."""


class NonFiniteStateError(SpoonArmError):
    """Integration produced NaN/inf; usually the timestep is too large."""


class TimestepTooCoarseError(NonFiniteStateError):
    """The timestep is too coarse for a validity bound of the model."""


class DeflectionExceededError(SpoonArmError):
    """Compliant mount deflected beyond its validity limit."""


class NotBracketedError(SpoonArmError):
    """Calibration target cannot be bracketed by the search interval."""


class GridMismatchError(SpoonArmError):
    """Two time series do not share the same time grid."""


class ConfigError(SpoonArmError):
    """Base class for configuration / scenario file problems."""


class ParseError(ConfigError):
    """Structurally invalid file: bad JSON, wrong type, unknown, missing or
    repeated key.

    `path` names the offending field, e.g. "mechanism.link1_length_m".
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class ValidationError(ConfigError):
    """Well-formed value violating a domain constraint.

    Carries the field path and the violated constraint text.
    """

    def __init__(self, path, constraint):
        self.path = path
        self.constraint = constraint
        super().__init__(f"{path}: {constraint}")


class VersionMismatchError(ConfigError):
    """File schema_version differs from the version this tool supports."""

    def __init__(self, found, supported):
        self.found = found
        self.supported = supported
        super().__init__(
            f"schema_version: file has {found}, this tool supports {supported}"
        )
