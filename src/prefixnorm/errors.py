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


# The least count past Python's default 4300-digit ``int`` -> ``str`` limit.
_UNPRINTABLE = 10**4300


def refuse(count: int, what: str, limit: int = DEFAULT_LIMIT) -> None:
    """Raise ``CapacityExceeded`` when ``count`` items exceed ``limit``: the one count gate.

    The exception's ``count`` is exact; its message writes a count too long
    for ``str`` by default as a power of ten below it, whatever the limit.
    """
    if count > limit:
        if count < _UNPRINTABLE:
            text = str(count)
        else:  # 0.301029 < log10(2), so the power stays below the count
            text = f"more than 10^{(count.bit_length() - 1) * 301029 // 10**6}"
        raise CapacityExceeded(f"refusing: {text} {what} exceed the limit of {limit}", count=count)


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
