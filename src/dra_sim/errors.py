"""Exception types shared across the package, and the outside-file reader."""

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


def read_input_text(path, what: str) -> str:
    """The UTF-8 text of an outside input file.

    A file that is missing, unreadable or not UTF-8 raises ConfigurationError
    naming ``what`` and the path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigurationError(f"{what}: cannot read {str(path)!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"{what}: {str(path)!r} is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
