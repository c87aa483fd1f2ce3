"""Exception types shared across the package."""


class SubsymError(Exception):
    """Base class for all library errors."""


class ValidationError(SubsymError):
    """Malformed input data (bad spec file, inconsistent pattern, ...)."""


class ScopeError(SubsymError):
    """An operation was called outside its stated preconditions."""


class CapExceeded(SubsymError):
    """A materialization would exceed the configured cell-count cap."""
