#!/usr/bin/env python3
"""Benchmark runner for prefixnorm.

Run from the repository root::

    python3 perfbench/run.py --workload long-words --seed 1 --seconds 10 --trace 0

One process, one closed-loop caller, no threads: each top-level call starts
after the previous one returned and its output was checked.  Checks run
outside the timed region.  Calls repeat in whole rounds until the timed
calls add up to ``--seconds``.

Every latency is scaled to a reference machine speed by a calibration
loop timed between calls (``calibrate.py``), and a call repeated over the
rounds counts with its fastest execution.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also runs one
round in a separate traced process and prints the per-layer metrics.
Either way the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every call returned a correct output.

The package is always imported from ``src/`` next to this directory, never
from an installed copy, so the numbers belong to the checked-out source.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("long-words", "enumerate", "verify-sweeps")

# Fresh processes that each import prefixnorm and build the inputs; the
# median of their times is setup_s.
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mib": "MiB",
}

# Per-layer metric names are fixed here, not read from the package, so that
# they stay comparable across commits.
SUITES = (
    "binary-reduction",
    "equivalence",
    "exchange",
    "gap-decision",
    "pn-equivalences",
    "position-functions",
    "prime-gapful",
    "projection",
    "stepped-gapfree",
    "subadditivity",
    "trichotomy",
    "vector-gapfree",
)
KINDS = ("nat-sum", "nat-product", "vec2-lex")
BRUTE_ORACLES = (
    "oracle.brute_gap_search",
    "oracle.brute_prefix_normal_set",
    "oracle.verify_trichotomy",
    "oracle.classic_max_ones",
    "oracle.classic_prefix_ones",
    "oracle.is_prefix_normal_classic",
)
SHARE_LAYERS = ("profile", "measure", "normalform", "oracle", "cli")


def _use_checkout_source() -> None:
    if not (SRC / "prefixnorm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no prefixnorm source under {SRC}")
    sys.path.insert(0, str(SRC))


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full", help="tiny is for the self-tests"
    )
    # Internal: set-up probe and traced child processes.
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Timed rounds


class RunStats:
    """Timings of every execution of every call, in execution order.

    Each execution is scaled to the reference machine speed by the
    calibration loop timed around it (see ``calibrate.py``).  Rounds of
    ``long-words`` and ``enumerate`` repeat the same calls, so
    ``latencies`` holds, per distinct call, the fastest of its scaled
    executions; ``verify-sweeps`` draws new sweep seeds each round, so each
    of its calls runs once.
    """

    def __init__(self):
        self.slot: dict[int, int] = {}
        self.labels: list[str] = []
        self.cases: list[int] = []
        self.executions: list[tuple[int, float, float]] = []  # slot, start, seconds
        self.clock = calibrate.Clock()
        self.failures: list[str] = []
        self.busy_s = 0.0
        self.rounds = 0

    @property
    def attempted(self) -> int:
        return len(self.executions)

    def record(self, call, start: float, elapsed: float) -> int:
        slot = self.slot.setdefault(id(call), len(self.slot))
        if slot == len(self.labels):
            self.labels.append(call.label)
            self.cases.append(0)
        self.executions.append((slot, start, elapsed))
        self.busy_s += elapsed
        return slot

    @property
    def raw_latencies(self) -> list[float]:
        return self._fastest([elapsed for _, _, elapsed in self.executions])

    @property
    def scaled(self) -> list[float]:
        return [elapsed * self.clock.scale_at(start) for _, start, elapsed in self.executions]

    @property
    def latencies(self) -> list[float]:
        return self._fastest(self.scaled)

    def _fastest(self, times: list[float]) -> list[float]:
        best = [float("inf")] * len(self.labels)
        for (slot, _, _), value in zip(self.executions, times):
            best[slot] = min(best[slot], value)
        return best


def run_rounds(workload, seconds: float, min_rounds: int | None = None) -> RunStats:
    """Run whole rounds until the timed calls reach ``seconds``.

    At least ``min_rounds`` rounds run, by default the workload's own minimum.
    """
    if min_rounds is None:
        min_rounds = workload.min_rounds
    stats = RunStats()
    while stats.rounds < min_rounds or stats.busy_s < seconds:
        for call in workload.round(stats.rounds):
            stats.clock.sample()
            fn = call.resolve()
            args = call.prepare()
            error = None
            start = perf_counter()
            try:
                out = fn(*args)
            except Exception as exc:  # a raising call is a failed call
                elapsed = perf_counter() - start
                error = f"raised {type(exc).__name__}: {exc}"
            else:
                elapsed = perf_counter() - start
            slot = stats.record(call, start, elapsed)
            if error is None:
                try:
                    error = call.check(out)
                    if call.count is not None:
                        stats.cases[slot] = call.count(out)
                except Exception as exc:  # so is an output the check cannot read
                    error = f"check raised {type(exc).__name__}: {exc}"
                del out
            if error is not None:
                stats.failures.append(f"{call.func} [{call.label}]: {error}")
        stats.rounds += 1
    stats.clock.sample(force=True)
    return stats


# ---------------------------------------------------------------------------
# Child processes


def _child(args, *extra) -> dict:
    command = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--scale",
        args.scale,
        *extra,
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(extra)} child failed:\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def probe(args) -> int:
    start = perf_counter()
    import prefixnorm  # noqa: F401

    imported = perf_counter()
    import workloads

    workloads.build(args.workload, args.seed, args.scale)
    built = perf_counter()
    loop = statistics.median(calibrate.loop_s() for _ in range(6))
    scale = calibrate.REFERENCE_S / loop
    times = {"import_s": (imported - start) * scale, "inputs_s": (built - imported) * scale}
    print(json.dumps(times))
    return 0


def traced_child(args) -> int:
    import spans
    import workloads

    tracer = spans.Tracer()
    spans.install(tracer)
    workload = workloads.build(args.workload, args.seed, args.scale)
    stats = run_rounds(workload, 0.0, min_rounds=1)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
    tracer.dump(path)
    print(
        json.dumps(
            {
                "path": str(path),
                "scaled_s": sum(stats.scaled),
                "attempted": stats.attempted,
                "failures": stats.failures,
                "combine_ns": spans.combine_ns(tracer),
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# Metrics


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _summary(latencies: list[float]) -> tuple[float, float, float, int]:
    """ops per second, p50 and p95 in ms, and the samples beyond the p95."""
    p95 = statistics.quantiles(latencies, n=20)[18] if len(latencies) > 1 else latencies[0]
    return (
        len(latencies) / sum(latencies),
        statistics.median(latencies) * 1e3,
        p95 * 1e3,
        sum(1 for x in latencies if x > p95),
    )


def end_to_end(setup: list[dict], stats: RunStats) -> tuple[dict, list[str]]:
    ops, p50, p95, beyond = _summary(stats.latencies)
    raw_ops, raw_p50, raw_p95, _ = _summary(stats.raw_latencies)
    values = {
        "setup_s": statistics.median(p["import_s"] + p["inputs_s"] for p in setup),
        "ops_per_s": ops,
        "op_p50_ms": p50,
        "op_p95_ms": p95,
        "success_rate": (stats.attempted - len(stats.failures)) / stats.attempted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"latency samples {len(stats.labels)} (fastest execution of each call, "
        f"{stats.rounds} rounds); {beyond} beyond op_p95_ms"
        + ("" if beyond >= 10 else " (fewer than 10: op_p95_ms is close to the maximum)"),
        f"unscaled: ops_per_s {raw_ops:.4f}, op_p50_ms {raw_p50:.4f}, op_p95_ms {raw_p95:.4f}; "
        f"calibration loop median {statistics.median(stats.clock.loops) * 1e3:.4f} ms "
        f"(reference {calibrate.REFERENCE_S * 1e3:.2f} ms)",
        f"set-up probes {len(setup)}",
    ]
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}, notes


def per_layer(setup: list[dict], stats: RunStats, child: dict) -> dict:
    with open(child["path"], encoding="utf-8") as handle:
        traced = json.load(handle)
    agg = traced["aggregate"]
    counters = traced["counters"]
    wall = sum(span["end"] - span["start"] for span in traced["spans"])

    def own(*names: str) -> float:
        return sum(agg.get(name, [0, 0.0, 0.0])[2] for name in names)

    def layer(prefix: str, column: int) -> float:
        return sum(entry[column] for name, entry in agg.items() if name.startswith(prefix + "."))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {
        "profile.self_s": _metric(layer("profile", 2), "s"),
        "profile.calls": _metric(layer("profile", 0), "count"),
        "profile.cells": _metric(counters.get("profile.cells", 0), "count"),
    }
    for name in SHARE_LAYERS:
        out[f"{name}.share"] = _metric(ratio(layer(name, 2), wall), "ratio")
    for kind in KINDS:
        out[f"profile.ns_per_cell.{kind}"] = _metric(
            ratio(counters.get(f"kernel.long_s.{kind}", 0), counters.get(f"kernel.long_cells.{kind}", 0))
            * 1e9,
            "ns",
        )
    out["profile.us_per_short_call"] = _metric(
        ratio(counters.get("kernel.short_s", 0), counters.get("kernel.short_calls", 0)) * 1e6, "us"
    )
    out["profile.normality_conditions.self_s"] = _metric(own("profile.normality_conditions"), "s")
    for kind in KINDS:
        out[f"monoid.combine_ns.{kind}"] = _metric(child["combine_ns"].get(kind, 0.0), "ns")
    for name in ("prefix_normal_form", "equivalence_class", "prefix_normal_set"):
        out[f"normalform.{name}.self_s"] = _metric(own(f"normalform.{name}"), "s")
    candidates = counters.get("class.candidates", 0)
    out["normalform.equivalence_class.candidates"] = _metric(candidates, "count")
    out["normalform.equivalence_class.yield"] = _metric(
        ratio(counters.get("class.members", 0), candidates), "ratio"
    )
    out["oracle.count_binary.self_s"] = _metric(own("oracle.count_binary_prefix_normal"), "s")
    out["oracle.count_binary.yield"] = _metric(
        ratio(counters.get("binary.count", 0), counters.get("binary.words", 0)), "ratio"
    )
    out["oracle.brute.self_s"] = _metric(own(*BRUTE_ORACLES), "s")
    suite_s: dict[str, list[float]] = {}
    for label, latency in zip(stats.labels, stats.latencies):
        suite_s.setdefault(label, []).append(latency)
    for suite in SUITES:
        samples = suite_s.get(suite)
        out[f"oracle.suite.{suite}.s"] = _metric(statistics.mean(samples) if samples else 0.0, "s")
    sweep_s = sum(lat for label, lat in zip(stats.labels, stats.latencies) if label in SUITES)
    out["oracle.suite.cases_per_s"] = _metric(ratio(sum(stats.cases), sweep_s), "1/s")
    for name in ("find_gap", "classify", "bounded_equivalence"):
        out[f"measure.{name}.self_s"] = _metric(own(f"measure.{name}"), "s")
    out["measure.bounded_equivalence.payloads"] = _metric(
        counters.get("equivalence.payloads", 0), "count"
    )
    out["cli.main.self_s"] = _metric(own("cli.main"), "s")
    out["setup.import_s"] = _metric(statistics.median(p["import_s"] for p in setup), "s")
    out["setup.inputs_s"] = _metric(statistics.median(p["inputs_s"] for p in setup), "s")
    # The traced process runs one round; compare it with an untraced round.
    out["trace.overhead_ratio"] = _metric(
        ratio(child["scaled_s"], sum(stats.scaled) / stats.rounds), "ratio"
    )
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _args(argv)
    _use_checkout_source()
    if args.probe:
        return probe(args)
    if args.traced:
        return traced_child(args)

    # Probes before and after the timed rounds sample two moments of a
    # machine whose speed drifts.
    before = SETUP_PROBES // 2
    try:
        setup = [_child(args, "--probe") for _ in range(before)]
        import workloads

        workload = workloads.build(args.workload, args.seed, args.scale)
        stats = run_rounds(workload, args.seconds)
        setup += [_child(args, "--probe") for _ in range(SETUP_PROBES - before)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"perfbench: set-up failed: {err}", file=sys.stderr)
        return 2
    failures = list(stats.failures)
    attempted = stats.attempted
    if args.trace:
        try:
            child = _child(args, "--traced")
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
            print(f"perfbench: traced run failed: {err}", file=sys.stderr)
            return 2
        failures += child["failures"]
        attempted += child["attempted"]
        metrics = per_layer(setup, stats, child)
    else:
        metrics, notes = end_to_end(setup, stats)
        for note in notes:
            print(note)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for key, value in sorted(workload.describe().items()):
        print(f"input {key}: {value}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
