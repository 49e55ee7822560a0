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
payloads.  ``MonoidValue`` tags a payload with its kind for the values the
package hands out (profiles, steps, word weights); its comparisons refuse
to mix kinds.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import total_ordering
from operator import add, mul


class MonoidKind(enum.Enum):
    NAT_SUM = "nat-sum"
    NAT_PRODUCT = "nat-product"
    VEC2_LEX = "vec2-lex"

    @classmethod
    def from_name(cls, name: str) -> "MonoidKind":
        for kind in cls:
            if kind.value == name:
                return kind
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


def fold_pairs(pairs, scale: int) -> list[int]:
    """vec2-lex pairs as the ints ``a * scale + b``.

    When ``scale`` exceeds the second component of every sum that will be
    formed, no sum carries into the first component: the ints then order
    exactly as the pairs do lexicographically, ``operator.add`` combines
    them in C, and ``divmod(v, scale)`` decodes a sum.  The profile kernel
    and the trie walk share this fold; each picks its own scale.
    """
    return [a * scale + b for a, b in pairs]


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

