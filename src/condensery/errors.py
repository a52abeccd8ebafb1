"""Exception types shared across the package."""


class CondenseryError(Exception):
    """Base class for all package errors."""


class DimensionError(CondenseryError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class InputError(CondenseryError, ValueError):
    """Input data violates a precondition (bad label, missing class, ...)."""


class ConfigError(CondenseryError, ValueError):
    """A configuration value is out of its allowed range or unknown."""


class UsageError(CondenseryError, RuntimeError):
    """API misuse: missing gradients, non-scalar backward root, empty queue."""


class DivergenceError(CondenseryError, FloatingPointError):
    """A loss, the synthetic pixels or the network weights went NaN or Inf."""


class ParseError(CondenseryError, ValueError):
    """A binary container or dataset file failed to parse.

    ``offset`` is the byte offset at which parsing failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset
