"""Exception hierarchy shared by all depfuse modules.

The CLI maps these onto exit codes: ConfigError and an OSError (an output
path that cannot be written) -> 2, DataFormatError -> 3, NumericalError -> 4.
Everything else is a programming error and escapes.
"""

from contextlib import contextmanager
from typing import Iterator


class DepfuseError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DepfuseError, ValueError):
    """Invalid or contradictory configuration (bad ratio, bad model dims, ...).
    A bad argument value, so it is also a ValueError."""


class DataFormatError(DepfuseError):
    """A file or stream does not conform to its documented format."""


class UsageError(DepfuseError):
    """An API was called in a way its contract forbids."""


class DimensionError(UsageError):
    """Tensor shapes are incompatible for the requested operation."""


class NumericalError(DepfuseError):
    """A forward operation produced a non-finite value."""


class FeatureError(DepfuseError):
    """Feature extraction failed (e.g. a sentiment scorer raised)."""


@contextmanager
def input_errors(path, what: str) -> Iterator[None]:
    """Report an input file that is missing, unreadable (a directory, no
    permission) or not UTF-8 as a ConfigError naming ``what`` and ``path``."""
    try:
        yield
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
