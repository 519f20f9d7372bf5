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


def is_json_int(value) -> bool:
    """An int that is no bool: the one integer test for config fields,
    checkpoint counts and the numbers of a corpus manifest."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    try:
        return (is_json_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


# annotated type name -> (test, what the message says a value must be)
_FIELD_TYPES = {
    "int": (is_json_int, "int"),
    "float": (_is_finite_number, "finite float"),
    "str": (lambda v: isinstance(v, str), "str"),
}


def check_fields(record, section: str, min_int=None) -> None:
    """Raise ConfigError unless every field of the dataclass `record`
    holds its annotated type: an int is no bool, a float field takes an
    int or a float that is finite as a float, and nothing is converted.
    With min_int, every int field must also be >= min_int.  Range checks
    such as x <= 0 are false for NaN, so each record runs this before
    its own."""
    for f in dataclasses.fields(record):
        kind = getattr(f.type, "__name__", f.type)
        test, expected = _FIELD_TYPES[kind]
        value = getattr(record, f.name)
        if not test(value):
            raise ConfigError(f"{section}: {f.name} must be {expected}, got {value!r}")
        if min_int is not None and kind == "int" and value < min_int:
            raise ConfigError(f"{section}: {f.name} must be >= {min_int}, got {value}")
