"""Exception types shared across the workbench.

Every error that a scenario query can surface maps to one of these, so the
runner can report a machine-readable kind next to the human-readable message.
"""


class WorkbenchError(Exception):
    """Base class for all workbench errors."""

    kind = "ERROR"


class UnknownVariableError(WorkbenchError):
    kind = "UNKNOWN_VARIABLE"


class NotAPthPowerError(WorkbenchError):
    kind = "NOT_A_PTH_POWER"


class DepthExceededError(WorkbenchError):
    """An OPAQUE derivative image was required by the computation."""

    kind = "DEPTH_EXCEEDED"


class SizeCapError(WorkbenchError):
    kind = "SIZE_CAP"


class AmbientTooSmallError(WorkbenchError):
    """An embedded constant has no p-th root in the ambient presentation."""

    kind = "AMBIENT_TOO_SMALL"


class PreconditionError(WorkbenchError):
    kind = "PRECONDITION"


class BadParameterError(WorkbenchError):
    kind = "BAD_PARAMETER"


class InapplicableError(WorkbenchError):
    """The requested reduction does not exist for these parameters."""

    kind = "INAPPLICABLE"


class ZeroDenominatorError(WorkbenchError):
    """A denominator vanished when values were substituted into it."""

    kind = "ZERO_DENOMINATOR"


class InexactDivisionError(WorkbenchError):
    """Internal invariant violation: a division expected to be exact was not."""

    kind = "INEXACT_DIVISION"


class InternalError(WorkbenchError):
    """A result failed its own exact re-verification: a bug, not a verdict."""

    kind = "INTERNAL"


class ScenarioError(WorkbenchError):
    """Scenario file problem, carrying position information.

    ``kind`` is one of PARSE_ERROR, UNKNOWN_NAME, DUPLICATE_NAME, BAD_PRIME.
    """

    def __init__(self, message, line=None, column=None, token=None, kind="PARSE_ERROR"):
        self.line = line
        self.column = column
        self.token = token
        self.kind = kind
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        tok = f" near {token!r}" if token else ""
        super().__init__(f"{kind}: {message}{where}{tok}")


class ValidationError(WorkbenchError):
    """A scenario failed commutation or embedding validation."""

    kind = "VALIDATION"
