"""Exception taxonomy shared by the library and the CLI exit codes."""


class HorofanoError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(HorofanoError):
    """Malformed problem input (bad JSON shape, unparsable rational, ...).

    ``field`` carries the dotted path of the offending entry when known.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")


class MathValidationError(HorofanoError):
    """Input parses but violates a mathematical precondition."""

    def __init__(self, message: str, condition: str | None = None):
        self.condition = condition
        super().__init__(message)


class SolverError(HorofanoError):
    """A numerical routine failed; the message says where and why."""


class QuadratureError(SolverError):
    """Quadrature error estimate stayed above tolerance after refinement."""

    def __init__(self, message: str, estimate: float):
        self.estimate = estimate
        super().__init__(message)
