"""Exception types shared across the package.

Every error raised by qsumm derives from QsummError so callers can catch
library failures with a single except clause while still distinguishing
the failure class.
"""

import dataclasses
import math


class QsummError(Exception):
    """Base class for all qsumm errors."""


class DimensionError(QsummError, ValueError):
    """Operand shapes are inconsistent with the operation's contract."""


class ConfigError(QsummError, ValueError):
    """A configuration value is out of its legal range."""


class ContractError(QsummError, ValueError):
    """A call violated an API precondition (empty input, reused tape, ...)."""


class NumericError(QsummError, ArithmeticError):
    """A non-finite value appeared where finite math is required."""


class FormatError(QsummError, ValueError):
    """A file's bytes do not parse as the declared on-disk format."""


class VersionError(FormatError):
    """A file's format version is incompatible with this build."""


class ConceptLookupError(QsummError, KeyError):
    """A concept id is absent from the concept table."""


class GenerationError(QsummError, RuntimeError):
    """The synthetic corpus generator could not satisfy its guarantees."""


def require_finite_floats(cfg, section: str) -> None:
    """Raise ConfigError for a NaN or infinite float field of a config
    dataclass.  Range checks such as x <= 0 are false for NaN, so each
    config runs this before its own checks."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{section}: {f.name} must be finite, got {value}")
