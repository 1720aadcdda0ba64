"""Exception types shared across the package."""


class ToolError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ToolError):
    """Operands have incompatible shapes."""


class NotHermitian(ToolError):
    """A matrix required to be Hermitian fails the symmetry check."""


class NoConvergence(ToolError):
    """An iterative or factorization routine failed to converge."""


class SizeCapExceeded(ToolError):
    """Requested algebra size exceeds the configured assembly cap."""


class SchemaError(ToolError):
    """A problem or config document, or an argument, violates the expected
    schema.

    Carries a dotted ``path`` locating the offending field or argument.
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)
