"""Strictly ordered commutative monoids that carry word weights.

Three carriers are supported:

* ``nat-sum``     -- nonnegative integers under addition,
* ``nat-product`` -- positive integers under multiplication,
* ``vec2-lex``    -- pairs of nonnegative integers under componentwise
  addition, ordered lexicographically.

Every carrier is cancellative: for weights a and b at most one element x
has a . x == b.  ``payload_residual`` returns that x, or ``None`` when the
carrier holds none; it answers every "which step leads from a to b"
question (gaps, steps, normal forms) without scanning candidates.

All payloads are arbitrary-precision Python integers, so long product
weights never overflow.  Payloads of every kind compare correctly with
the native ``<`` operator, so measures and every algorithm work on bare
payloads.  ``int_view`` is the one view of a carrier as Python ints for the
hot loops, and its ``decode`` the one way back: vec2-lex pairs are folded
into ints, the integer carriers pass through.  ``log_view`` is a second,
approximate view of nat-product letters, which only the profile kernels'
packed rows ask for: fixed-point base-2 logs that add where the weights
multiply, with a bound on how far a sum of them lies below the exact log.
``window_products`` decodes it back: the exact product of any window.
``MonoidValue`` tags the values the package hands out (profiles, steps,
word weights) with their kind; its comparisons refuse to mix kinds.
``computed_value`` builds one from a payload the package computed from
checked ones, without checking it again.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from functools import total_ordering
from itertools import accumulate
from operator import add, mul


class MonoidKind(enum.Enum):
    NAT_SUM = "nat-sum"
    NAT_PRODUCT = "nat-product"
    VEC2_LEX = "vec2-lex"

    @classmethod
    def _missing_(cls, name):
        known = ", ".join(k.value for k in cls)
        raise ValueError(f"unknown monoid {name!r} (expected one of: {known})")


Payload = int | tuple[int, int]

_IDENTITY: dict[MonoidKind, Payload] = {
    MonoidKind.NAT_SUM: 0,
    MonoidKind.NAT_PRODUCT: 1,
    MonoidKind.VEC2_LEX: (0, 0),
}


def _vec_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


_COMBINE = {
    MonoidKind.NAT_SUM: add,
    MonoidKind.NAT_PRODUCT: mul,
    MonoidKind.VEC2_LEX: _vec_add,
}


_RESIDUAL = {
    MonoidKind.NAT_SUM: lambda a, b: b - a if b >= a else None,
    MonoidKind.NAT_PRODUCT: lambda a, b: None if b % a else b // a,
    MonoidKind.VEC2_LEX: lambda a, b: (
        (b[0] - a[0], b[1] - a[1]) if b[0] >= a[0] and b[1] >= a[1] else None
    ),
}


def payload_identity(kind: MonoidKind) -> Payload:
    return _IDENTITY[kind]


def payload_combine(kind: MonoidKind):
    """The carrier's combine, over bare payloads."""
    return _COMBINE[kind]


def payload_residual(kind: MonoidKind):
    """Raw ``(a, b) -> x`` with ``a . x == b``, or ``None`` when no carrier element fits."""
    return _RESIDUAL[kind]


def int_view(weights, comb, length: int):
    """``(ints, comb, decode)`` for sums of at most ``length`` of ``weights``.

    The one code that encodes a carrier for the hot loops and decodes it
    back.  vec2-lex pairs ``(a, b)`` become the ints ``a * scale + b`` under
    ``operator.add``, with the one scale ``length * (largest second
    component) + 1``.  It exceeds the second component of every such sum,
    so no sum carries into the first component: the ints order exactly as
    the pairs do lexicographically, and ``decode`` (``divmod`` by the
    scale) maps a sum back to its pair.  The other carriers pass through,
    with ``decode`` None.
    """
    if comb is not _vec_add:
        return weights, comb, None
    scale = length * max(b for _, b in weights) + 1
    # ``scale.__rdivmod__(v)`` is ``divmod(v, scale)``, called without a Python frame.
    return [a * scale + b for a, b in weights], add, scale.__rdivmod__


# Fraction bits b of ``log_view``: a letter's log is kept to 2^-b.
LOG_BITS = 16


def log_view(weights) -> tuple[dict, int]:
    """``(logs, slack)``: fixed-point base-2 logs of nat-product weights.

    ``logs`` maps each weight w to an int L no larger than T = 2^b log2 w
    (b = ``LOG_BITS``), so the logs of a window's letters add up to at
    most the window's own T, and windows with equal letter counts to equal
    ints.  L is the floor of T, taken from a float lowered by a bound on
    its error.  Where T lies within that bound of an integer (a power of
    two, or 2^64 + 1, whose float is 2^64) the floor is uncertain and L may
    be one less.  ``slack`` bounds T - L from above: 1 when every floor is
    certain, else 2 (more only for weights of over 2^28 bits, whose float
    error reaches half a unit).  A window of k letters therefore sums to
    less than ``slack`` * k below its T, and never above it.
    """
    scale = 1 << LOG_BITS
    logs, slack = {}, 1
    for w in weights:
        x = math.log2(w) * scale
        # math.log2 of an int errs by a few units in the last place of its
        # result, plus the rounding of w to a float: far below this bound.
        err = (scale + x) * 2.0**-45
        low, high = max(0, math.floor(x - err)), math.floor(x + err)
        logs[w] = low
        slack = max(slack, high - low + 1)
    return logs, slack


def window_products(letters):
    """``window(start, size)``: the exact nat-product weight of ``letters[start:start + size]``.

    The decode of ``log_view``.  A window one letter longer than the last
    one asked for, at the same start or one before it, costs one multiply.
    Any other is the quotient of two prefix products, which are built as
    far as a window first needs them; but while the letters multiplied out
    directly stay fewer than those the prefix products would have to
    grow by, a window beyond them is multiplied out instead, so a caller
    that stops after a few short windows builds none.
    """
    prefix = [1]
    was = length = 0  # start and size of the last window
    value = 1  # its product
    direct = 0  # letters multiplied out so far instead of growing the prefix products

    def window(start, size):
        nonlocal was, length, value, direct
        end = start + size
        if size == length + 1 and was - 1 <= start <= was:
            value *= letters[start if start < was else end - 1]
        elif end < len(prefix):
            value = prefix[end] // prefix[start]
        elif direct + size < end - len(prefix):
            direct += size
            value = math.prod(letters[start:end])
        else:
            more = accumulate(letters[len(prefix) - 1:end], mul, initial=prefix[-1])
            next(more)
            prefix.extend(more)
            value = prefix[end] // prefix[start]
        was, length = start, size
        return value

    return window


def check_payload(kind: MonoidKind, payload: Payload) -> None:
    """Reject payloads outside the kind's carrier."""
    if kind is MonoidKind.VEC2_LEX:
        ok = (
            isinstance(payload, tuple)
            and len(payload) == 2
            and all(isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in payload)
        )
        if not ok:
            raise ValueError(
                f"{kind.value} payload must be a pair of nonnegative integers, got {payload!r}"
            )
        return
    if not isinstance(payload, int) or isinstance(payload, bool):
        raise ValueError(f"{kind.value} payload must be an integer, got {payload!r}")
    if kind is MonoidKind.NAT_SUM and payload < 0:
        raise ValueError(f"nat-sum payload must be nonnegative, got {payload}")
    if kind is MonoidKind.NAT_PRODUCT and payload < 1:
        raise ValueError(f"nat-product payload must be positive, got {payload}")


def format_payload(kind: MonoidKind, payload: Payload) -> str:
    if kind is MonoidKind.VEC2_LEX:
        return f"({payload[0]},{payload[1]})"
    return str(payload)


_VEC_RE = re.compile(r"\((\d+),(\d+)\)\Z")
_INT_RE = re.compile(r"\d+\Z")


def parse_payload(kind: MonoidKind, text: str) -> Payload:
    """Parse the textual value syntax: decimal integers, or ``(a,b)`` pairs."""
    if kind is MonoidKind.VEC2_LEX:
        match = _VEC_RE.match(text)
        if not match:
            raise ValueError(f"expected a pair like (a,b) without spaces, got {text!r}")
        return (int(match.group(1)), int(match.group(2)))
    if not _INT_RE.match(text):
        raise ValueError(f"expected a decimal integer, got {text!r}")
    payload = int(text)
    check_payload(kind, payload)
    return payload


@total_ordering
@dataclass(frozen=True)
class MonoidValue:
    """A carrier element tagged with its monoid kind.

    Values of different kinds are never comparable or combinable; mixing
    them raises immediately instead of producing nonsense.
    """

    kind: MonoidKind
    payload: Payload

    def __post_init__(self):
        check_payload(self.kind, self.payload)

    def _require_same_kind(self, other: "MonoidValue") -> None:
        if not isinstance(other, MonoidValue):
            raise TypeError(f"expected a MonoidValue, got {type(other).__name__}")
        if self.kind is not other.kind:
            raise ValueError(f"cannot mix {self.kind.value} and {other.kind.value} values")

    def __lt__(self, other):
        self._require_same_kind(other)
        return self.payload < other.payload

    def __str__(self):
        return format_payload(self.kind, self.payload)



def computed_value(kind: MonoidKind, payload: Payload) -> MonoidValue:
    """``MonoidValue(kind, payload)`` for a payload the package computed from checked ones, unchecked.

    The fields are set with ``object.__setattr__``, as the frozen
    dataclass's own ``__init__`` sets them, so the value keeps CPython's
    key-sharing instance dict (a literal ``__dict__`` would cost about
    twice the memory).  Public construction still checks its payload.
    """
    value = object.__new__(MonoidValue)
    object.__setattr__(value, "kind", kind)
    object.__setattr__(value, "payload", payload)
    return value
