"""Exception taxonomy shared across the package."""


class InvalidArgumentError(ValueError):
    """Malformed or out-of-range input to a public operation."""


class ProtocolViolationError(RuntimeError):
    """Learner act/observe protocol broken, or feedback mode mismatch."""


class AssumptionViolatedError(RuntimeError):
    """A structural assumption (e.g. no weakly dominated target action) fails."""


def check_type(value, what: str, kind: str = "number"):
    """Return value if it is an "integer", a "number" or a "boolean" (kind),
    where a bool is never a number; else raise InvalidArgumentError naming what."""
    types = {"integer": int, "number": (int, float), "boolean": bool}[kind]
    if isinstance(value, types) and (kind == "boolean") == isinstance(value, bool):
        return value
    article = "an" if kind == "integer" else "a"
    raise InvalidArgumentError(f"{what} must be {article} {kind}, got {value!r}")
