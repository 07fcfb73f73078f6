"""Exception hierarchy shared across the package."""


class IncalgError(Exception):
    """Base class for all errors raised by incalg."""


class FieldMismatchError(IncalgError):
    """Operands belong to different coefficient fields."""


class ScalarError(IncalgError):
    """A value that is not an exact scalar of the field: a float, a
    non-integral value for a prime field, or a raw number where a
    ``Scalar`` is required."""


class InfiniteFieldError(IncalgError):
    """An exhaustive operation was requested over the rationals."""


class PosetError(IncalgError):
    """Invalid poset input: duplicate labels, bad label syntax, or a cycle."""


class MismatchError(IncalgError):
    """Operands live over different posets (or a poset/ambient-set mismatch)."""


class NotAUnitError(IncalgError):
    """Inversion requested for an element with a zero diagonal coefficient."""


class GateError(IncalgError):
    """A size gate was exceeded; carries the computed search-space size."""

    def __init__(self, message: str, size: int | None = None):
        super().__init__(message)
        self.size = size


class ParseError(IncalgError):
    """Malformed input text; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ClassificationError(IncalgError):
    """A linear map failed structural classification; names the violated law."""

    def __init__(self, law: str, message: str, witness: str | None = None):
        super().__init__(f"{law}: {message}")
        self.law = law
        self.witness = witness
