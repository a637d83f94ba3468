"""Exception taxonomy shared across the package."""


class AdatmError(Exception):
    """Base class for all errors raised by this package."""


class RangeError(AdatmError, ValueError):
    """A numeric argument is outside its permitted range."""


class PreconditionError(AdatmError):
    """An operation was called on inputs that violate its precondition."""


class LifecycleError(AdatmError):
    """An operation was attempted on a datum in an incompatible lifecycle state."""


class ConflictError(AdatmError):
    """An identifier is already in use."""


class NotFoundError(AdatmError, KeyError):
    """A referenced identifier does not exist."""


class DomainError(AdatmError, ValueError):
    """A value is structurally valid but outside the modelled domain."""


class ValidationError(AdatmError, ValueError):
    """A scenario, query, or field value failed validation.

    ``path`` locates the offending field (dotted/indexed, e.g.
    ``flights[2].waypoints``); ``message`` is the text without it.
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
        self.message = message


class ParseError(ValidationError):
    """Input text could not be parsed at all."""


class UsageError(AdatmError):
    """A tool was invoked with incompatible arguments."""
