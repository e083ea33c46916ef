"""Exception types shared across the simulator."""


class PartialEraserError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PartialEraserError, ValueError):
    """Argument outside the mathematically valid domain."""


class DegenerateState(PartialEraserError, ValueError):
    """State has no usable amplitude content (both components ~ 0)."""


class ZeroSurvival(PartialEraserError, ValueError):
    """A no-click outcome was requested but has probability zero."""


class AxisMismatch(PartialEraserError, ValueError):
    """Operator composition requested across different measurement axes."""


class ConfigError(PartialEraserError, ValueError):
    """Experiment description is malformed or internally inconsistent."""


class InsufficientStatistics(PartialEraserError, RuntimeError):
    """Too few post-selected trials to report a conditional estimate."""
