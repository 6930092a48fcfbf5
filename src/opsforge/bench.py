"""Dispatch-overhead benchmark built around benchmark.increment.

Six scenarios exercise the dispatch pipeline at increasing depth on the same
first-byte-increment workload:

- STATIC            direct call of the bound body, no framework
- MATCHED_NOCACHE   full match per call, caching disabled
- MATCHED_CACHED    full pipeline with the match cache enabled
- ADAPTED           inplace op requested as a function, cache disabled
- CONVERTED         inplace op driven through RealArray conversion, cache disabled
- ADAPTED_CONVERTED both of the above at once, cache disabled

The cache stays off everywhere except MATCHED_CACHED so that every other
framework scenario measures the matcher itself. All iterations of a scenario
reuse one pre-allocated input array; each call is verified against the
expected byte progression so no step can be optimized away or silently
miscompute. Timing wraps each repetition's whole measured loop; the reported
mean is ns per invocation and min/max range over per-repetition means.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

import numpy as np

from .stdlib import bodies, default_environment
from .values import wrap

SCENARIOS = (
    "STATIC",
    "MATCHED_NOCACHE",
    "MATCHED_CACHED",
    "ADAPTED",
    "CONVERTED",
    "ADAPTED_CONVERTED",
)

CSV_COLUMNS = ("scenario", "mean_ns", "min_ns", "max_ns", "iterations", "reps")


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str
    mean_ns: float
    min_ns: float
    max_ns: float
    iterations: int
    reps: int


@dataclass(frozen=True)
class BenchReport:
    results: tuple[ScenarioResult, ...]
    resolution_ns: int
    size: int

    @property
    def timer_caveat(self) -> bool:
        return self.resolution_ns > 100

    def result(self, scenario: str) -> ScenarioResult:
        for r in self.results:
            if r.scenario == scenario:
                return r
        raise KeyError(scenario)


def timer_resolution_ns(samples: int = 2000) -> int:
    """Smallest positive step the nanosecond timer can actually report."""
    best = None
    for _ in range(samples):
        a = time.perf_counter_ns()
        b = time.perf_counter_ns()
        while b == a:
            b = time.perf_counter_ns()
        delta = b - a
        if best is None or delta < best:
            best = delta
    return best


class _ChecksumError(RuntimeError):
    pass


def _fail(scenario: str, k: int, got, want) -> None:
    raise _ChecksumError(
        f"{scenario}: checksum mismatch after {k} calls (got {got!r}, want {want!r})"
    )


def _make_step(scenario: str, size: int):
    """Fresh step(k) callable per repetition; k counts total calls so far.

    Three step bodies serve the six scenarios: the bound body, ``mutate()`` and
    ``apply()``; only the payload and the cache flag vary. Each ends with a
    first-element check of the k-th call's result inside the timed region, so
    the dispatch result is consumed every iteration.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    converted = scenario.endswith("CONVERTED")
    data = np.zeros(size, dtype=np.float64) if converted else bytearray(size)

    if scenario == "STATIC":
        body = bodies.increment_u8

        def step(k: int):
            body(data)
            if data[0] != (k & 0xFF):
                _fail(scenario, k, data[0], k & 0xFF)

        return step

    cached = scenario == "MATCHED_CACHED"
    env = default_environment(cache_enabled=cached, include_legacy=False)
    value = wrap(data)

    if scenario.startswith("ADAPTED"):
        # fixed all-zero input; the adapter buffers a private copy, so every
        # call returns a fresh array whose first element is 1
        def step(k: int):
            result = env.op("benchmark.increment").input(value).apply()
            if result.payload[0] != 1:
                _fail(scenario, k, result.payload[0], 1)

        return step

    # a float64 first element k % 256 compares equal to the int k & 0xFF
    def step(k: int):
        env.op("benchmark.increment").input(value).mutate()
        if data[0] != (k & 0xFF):
            _fail(scenario, k, data[0], k & 0xFF)

    return step


def _run_scenario(scenario: str, size: int, warmup: int, iterations: int, reps: int):
    rep_means = []
    for _ in range(reps):
        step = _make_step(scenario, size)
        for k in range(1, warmup + 1):
            step(k)
        lo = warmup + 1
        hi = warmup + iterations + 1
        t0 = time.perf_counter_ns()
        for k in range(lo, hi):
            step(k)
        t1 = time.perf_counter_ns()
        rep_means.append((t1 - t0) / iterations)
    return ScenarioResult(
        scenario,
        sum(rep_means) / reps,
        min(rep_means),
        max(rep_means),
        iterations,
        reps,
    )


def run_benchmark(
    *,
    size: int = 1024,
    warmup: int = 10_000,
    iterations: int = 100_000,
    reps: int = 5,
    scenarios=SCENARIOS,
) -> BenchReport:
    for s in scenarios:
        if s not in SCENARIOS:
            raise ValueError(f"unknown scenario {s!r}")
    if size < 1 or warmup < 0 or iterations < 1 or reps < 1:
        raise ValueError("size/iterations/reps must be positive, warmup >= 0")
    results = tuple(
        _run_scenario(s, size, warmup, iterations, reps) for s in scenarios
    )
    return BenchReport(results, timer_resolution_ns(), size)


def to_csv(report: BenchReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    for r in report.results:
        writer.writerow(
            [
                r.scenario,
                f"{r.mean_ns:.1f}",
                f"{r.min_ns:.1f}",
                f"{r.max_ns:.1f}",
                r.iterations,
                r.reps,
            ]
        )
    return out.getvalue()


def render_table(report: BenchReport) -> str:
    header = f"{'scenario':<20}{'mean_ns':>12}{'min_ns':>12}{'max_ns':>12}{'iters':>9}{'reps':>6}"
    lines = [
        "single-threaded measurement loop; cpu pinning/affinity not controlled",
        header,
        "-" * len(header),
    ]
    for r in report.results:
        lines.append(
            f"{r.scenario:<20}{r.mean_ns:>12.1f}{r.min_ns:>12.1f}{r.max_ns:>12.1f}"
            f"{r.iterations:>9}{r.reps:>6}"
        )
    lines.append(f"timer resolution: {report.resolution_ns} ns")
    if report.timer_caveat:
        lines.append(
            "warning: timer resolution exceeds 100 ns; per-call means below "
            "that scale are unreliable"
        )
    return "\n".join(lines)
