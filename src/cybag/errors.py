"""Exception types shared across the package.

Every error carries a stable ``code`` string so CLI and library callers can
dispatch on it without parsing messages.
"""


class CybagError(Exception):
    """Base class for all package errors."""

    code = "ERROR"


class UnknownNodeError(CybagError):
    code = "UNKNOWN_NODE"


class GraphCyclicError(CybagError):
    """Raised by operations that require an acyclic graph."""

    code = "GRAPH_CYCLIC"


class PlainCycleError(CybagError):
    """The bipartite exploit/condition graph contains a directed cycle."""

    code = "PLAIN_CYCLE"


class TooLargeError(CybagError):
    """A resource limit was hit; the base of every limit error."""

    code = "TOO_LARGE"


class CycleLimitError(TooLargeError):
    """More simple cycles exist than the caller allowed.

    ``cycles`` holds the partial list collected before the limit was hit.
    """

    code = "CYCLE_LIMIT_EXCEEDED"

    def __init__(self, message: str, cycles):
        super().__init__(message)
        self.cycles = cycles


class WidthLimitError(TooLargeError):
    """A conditional-probability table is too wide to materialize."""

    code = "WIDTH_LIMIT"


class TargetRequiredError(CybagError):
    """Cycle classification beyond the never-fires case needs a target node."""

    code = "TARGET_REQUIRED"


class InfeasibleError(CybagError):
    """Generator parameters cannot be satisfied."""

    code = "INFEASIBLE"


class IoError(CybagError):
    """A file could not be read or written."""

    code = "IO_ERROR"


class SchemaError(CybagError):
    """Well-formed JSON that breaks a document schema. ``path`` locates the element."""

    code = "SCHEMA_ERROR"

    def __init__(self, message: str, path: str = ""):
        super().__init__(message if not path else f"{path}: {message}")
        self.path = path


class ParseError(CybagError):
    """Bytes that are not UTF-8 text or not JSON; ``line`` is 1-based."""

    code = "PARSE_ERROR"

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
