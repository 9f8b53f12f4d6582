"""Exception types shared across the package."""

__all__ = ["DraSimError", "ConfigurationError", "DomainError", "InfeasibilityError", "NumericError"]


class DraSimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(DraSimError):
    """Invalid parameter, config key, or inconsistent option combination."""


class DomainError(DraSimError):
    """Input outside the mathematical domain of an operation."""


class InfeasibilityError(DraSimError):
    """No point satisfies the requested constraints."""


class NumericError(DraSimError):
    """A numerical routine failed to reach its tolerance."""
