"""Exception types shared across the package, and the default enumeration cap."""

# Largest number of candidate words an exhaustive enumeration accepts by default.
DEFAULT_LIMIT = 100_000


class IncreasingPropertyViolation(ValueError):
    """A base weight does not strictly exceed the monoid identity."""


class OutOfRange(ValueError):
    """A position query asked for a weight no prefix reaches, or a length no factor has."""


class CapacityExceeded(RuntimeError):
    """An enumeration would exceed its configured cap.

    ``count`` carries the size that was refused, when it is known.
    """

    def __init__(self, message: str, count: int | None = None):
        super().__init__(message)
        self.count = count


class MeasureSpecError(ValueError):
    """A measure spec file could not be parsed; ``line`` points at the culprit."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)
