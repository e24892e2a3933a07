"""Exception taxonomy shared across the package."""

import sys


class InvalidArgumentError(ValueError):
    """Malformed or out-of-range input to a public operation."""


class AssumptionViolatedError(RuntimeError):
    """A structural assumption (e.g. no weakly dominated target action) fails."""


_TYPES = {"integer": int, "number": (int, float), "boolean": bool, "string": str,
          "list": (list, tuple)}


def check_type(value, what: str, kind: str = "number"):
    """Return value if it is of kind "integer", "number", "boolean", "string"
    or "list", where a bool is never a number and an int has a float value;
    else raise InvalidArgumentError naming what."""
    types = _TYPES[kind]
    if isinstance(value, types) and (kind == "boolean") == isinstance(value, bool):
        if not isinstance(value, int) or abs(value) <= sys.float_info.max:
            return value
        raise InvalidArgumentError(f"{what} must be within the float range, got an integer "
                                   f"of {value.bit_length()} bits")
    article = "an" if kind == "integer" else "a"
    raise InvalidArgumentError(f"{what} must be {article} {kind}, got {value!r}")
