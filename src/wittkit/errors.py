"""Exception types shared across the package, and ``required``, which reads
a field of a JSON input object."""


class GroupMismatchError(ValueError):
    """Operands belong to different value-group variants (or primes)."""


class PrecisionError(ArithmeticError):
    """An operation ran out of p-adic or exponent precision."""


class TableCapError(RuntimeError):
    """A Witt polynomial table beyond its level cap of 6 was requested."""


class ZeroSeriesError(ZeroDivisionError):
    """Division or inversion of a series that is zero at its precision."""


class UnsupportedFormError(ValueError):
    """Input is outside the structured family an algorithm supports."""


class NotAFactorizationError(ValueError):
    """A claimed factorization does not reproduce the target element."""


def required(obj: dict, key: str, owner: str):
    """obj[key]; a missing field raises ``ValueError`` naming it and
    ``owner``, the input object it belongs to."""
    if key not in obj:
        raise ValueError(f"{owner} has no field {key!r}")
    return obj[key]
