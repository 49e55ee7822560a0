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


def refuse(count: int, what: str, limit: int = DEFAULT_LIMIT) -> None:
    """Raise ``CapacityExceeded`` when ``count`` items exceed ``limit``: the one count gate."""
    if count > limit:
        raise CapacityExceeded(f"refusing: {count} {what} exceed the limit of {limit}", count=count)


def refuse_power(size: int, length: int, what: str, limit: int = DEFAULT_LIMIT) -> None:
    """Raise ``CapacityExceeded`` when ``size**length`` items exceed ``limit``.

    A huge length is refused without building a huge power: the refusal's
    ``count`` is exact up to length 64 and ``None`` beyond.  A single
    choice per position (size 1) is never refused.
    """
    if size > 1 and (length >= limit.bit_length() or size**length > limit):
        raise CapacityExceeded(
            f"refusing: {size}^{length} {what} exceed the limit of {limit}",
            count=size**length if length <= 64 else None,
        )


class MeasureSpecError(ValueError):
    """A measure spec file could not be parsed; ``line`` points at the culprit."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)
