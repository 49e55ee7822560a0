"""Spans around the public functions of each prefixnorm layer.

``install`` replaces every public function of the layer modules with a
timing wrapper, at every module that binds it: ``normalform`` and
``oracle`` import ``factor_max_payloads`` by name, so patching
``profile`` alone would miss most kernel calls.  The payload combine of
``monoid`` is not wrapped: it runs inside the kernel's inner loop, where a
wrapper would cost more than the combine itself, so the benchmark times it
separately (``combine_ns``).

The first wrapped function entered with an empty stack opens a top-level
span (one per top-level call of the workload), kept with its name, start,
end and parent.  Nested calls are hot (the kernel runs up to hundreds of
thousands of times per top-level call), so they are aggregated per name
under their top-level span as call count, total time and self time.  Self
time is a call's duration minus the time of the wrapped calls inside it.
"""

from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter

import prefixnorm
from prefixnorm import cli, measure, normalform, oracle, profile

LAYER_MODULES = (profile, measure, normalform, oracle, cli)

_KIND_OF_IDENTITY = {0: "nat-sum", 1: "nat-product", (0, 0): "vec2-lex"}
LONG_N = 250
SHORT_N = 16
COMBINE_BUDGET_S = 0.05


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        # Per monoid kind, the arguments of the longest kernel call seen.
        self.longest: dict[str, tuple] = {}
        self._stack: list[list[float]] = []
        self._inner: dict[str, list] | None = None

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn):
        count = _COUNTERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = not stack
            if top:
                self._inner = {}
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                if top:
                    self.spans.append(
                        {
                            "id": len(self.spans),
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": None,
                            "self_s": own,
                            "inner": self._inner,
                        }
                    )
                else:
                    stack[-1][0] += duration
                    entry = self._inner.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += own
            if count is not None:
                count(self, args, kwargs, result, duration)
            return result

        return wrapper

    def aggregate(self) -> dict[str, list]:
        """Per function name: [calls, total_s, self_s] over the whole run."""
        out: dict[str, list] = {}
        for span in self.spans:
            rows = [(span["name"], 1, span["end"] - span["start"], span["self_s"])]
            rows += [(name, *entry) for name, entry in span["inner"].items()]
            for name, calls, total, own in rows:
                entry = out.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.spans, "aggregate": self.aggregate(), "counters": self.counters},
                handle,
            )


def _count_kernel(tracer, args, kwargs, result, duration):
    n = len(args[1])
    cells = n * (n + 1) // 2
    tracer.add("profile.cells", cells)
    kind = _KIND_OF_IDENTITY[args[2]]
    longest = tracer.longest.get(kind)
    if longest is None or n > len(longest[1]):
        tracer.longest[kind] = args
    if n >= LONG_N:
        tracer.add(f"kernel.long_s.{kind}", duration)
        tracer.add(f"kernel.long_cells.{kind}", cells)
    elif n <= SHORT_N:
        tracer.add("kernel.short_s", duration)
        tracer.add("kernel.short_calls", 1)


def _count_class(tracer, args, kwargs, result, duration):
    tracer.add("class.candidates", len(args[0].alphabet) ** len(args[1]))
    tracer.add("class.members", len(result))


def _count_binary(tracer, args, kwargs, result, duration):
    tracer.add("binary.count", result)
    tracer.add("binary.words", 2 ** args[0])


def _count_levels(tracer, args, kwargs, result, duration):
    size = len(args[0].alphabet)
    tracer.add("equivalence.payloads", sum(size**length for length in range(1, args[2] + 1)))


_COUNTERS = {
    "profile.factor_max_payloads": _count_kernel,
    "normalform.equivalence_class": _count_class,
    "oracle.count_binary_prefix_normal": _count_binary,
    "measure.bounded_equivalence": _count_levels,
}


def install(tracer: Tracer) -> None:
    """Wrap every public layer function wherever the package binds it."""
    wrappers = {}
    for module in LAYER_MODULES:
        layer = module.__name__.rsplit(".", 1)[1]
        for attribute, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attribute.startswith("_")
            ):
                wrappers[value] = tracer.wrap(f"{layer}.{attribute}", value)
    for module in (prefixnorm, *LAYER_MODULES):
        for attribute, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attribute, wrappers[value])


def combine_ns(tracer: Tracer) -> dict[str, float]:
    """Nanoseconds per payload combine, folding the longest word of each kind.

    The fold walks the same payload sizes the kernel reached, from single
    letters up to the whole word's weight.
    """
    out = {}
    for kind, (weights, indices, ident, comb) in sorted(tracer.longest.items()):
        letters = [weights[i] for i in indices]
        if not letters:
            continue
        combines = 0
        start = perf_counter()
        while True:
            acc = ident
            for w in letters:
                acc = comb(acc, w)
            combines += len(letters)
            elapsed = perf_counter() - start
            if elapsed >= COMBINE_BUDGET_S:
                break
        out[kind] = elapsed / combines * 1e9
    return out
