"""Exception types shared across the package.

Every error raised by qsumm derives from QsummError so callers can catch
library failures with a single except clause while still distinguishing
the failure class.
"""

import dataclasses
import math
import operator


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


def bounded(default=dataclasses.MISSING, *, ge=None, gt=None, le=None, lt=None):
    """A dataclass field, required unless a default is given, whose value
    check_fields holds to the bounds given: value >= ge or > gt from
    below, value <= le or < lt from above."""
    tests = [(op, b) for op, b in ((operator.ge, ge), (operator.gt, gt),
                                   (operator.le, le), (operator.lt, lt)) if b is not None]
    lo, hi = (gt if ge is None else ge), (lt if le is None else le)
    if hi is None:
        text = f"{'>' if ge is None else '>='} {lo}"
    elif lo is None:
        text = f"{'<' if le is None else '<='} {hi}"
    else:
        text = f"in {'(' if ge is None else '['}{lo}, {hi}{')' if le is None else ']'}"
    return dataclasses.field(default=default, metadata={"bounds": (tests, text)})


def check_fields(record, section: str) -> None:
    """Raise ConfigError unless every field of the dataclass `record`
    holds its annotated type and then lies within the bounds bounded()
    declared for it.  An int is no bool, a float field takes an int or a
    float that is finite as a float, and nothing is converted.  Every
    type is checked before any bound, so no bound ever compares a NaN."""
    fields = dataclasses.fields(record)
    for f in fields:
        kind = getattr(f.type, "__name__", f.type)
        test, expected = _FIELD_TYPES[kind]
        value = getattr(record, f.name)
        if not test(value):
            raise ConfigError(f"{section}: {f.name} must be {expected}, got {value!r}")
    for f in fields:
        tests, text = f.metadata.get("bounds", ((), ""))
        value = getattr(record, f.name)
        if not all(op(value, b) for op, b in tests):
            raise ConfigError(f"{section}: {f.name} must be {text}, got {value}")
