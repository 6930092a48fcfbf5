"""Untraced measurement: set-up, the timed closed loop, metrics and report.

One caller issues a fixed, seed-determined stream of operations and waits
for each result before sending the next (closed loop, one client), because
every opsforge caller waits for its result. The stream length comes from
``--seconds`` times a per-workload rate, never from the clock, so memory and
history sizes compare across commits.
"""

from __future__ import annotations

import gc
import json
import platform
import resource
import statistics
import sys
import time
from array import array

import numpy as np
import yaml

import opsforge
from opsforge.bench import timer_resolution_ns

from workloads import OUT_DIR, WORKLOADS, nproc

# Set-up builds per run. They are spread over the timed stream, between
# chunks, so their median samples the host across the run, not in one burst.
SETUP_REPS = {"dispatch_hot": 21, "match_cold": 9, "imaging": 21}

END_TO_END_UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_ops(ops, calls, checks, kinds, idxs, start, stop, prev=None, lat=None, errors=None, base=0):
    """Issue operations [start, stop) one after another; count failed checks.

    With ``lat`` each operation's wall time goes to lat[i - base]. Checks
    run after the timed call, inside the loop, so throughput includes them.
    """
    ns = time.perf_counter_ns
    failed = 0
    for i in range(start, stop):
        k = kinds[i]
        j = idxs[i]
        t0 = ns()
        try:
            r = calls[k](j, prev)
        except Exception as exc:  # an unexpected raise is a failed operation
            r = exc
        t1 = ns()
        if lat is not None:
            lat[i - base] = t1 - t0
        try:
            ok = checks[k](j, r)
        except Exception:
            ok = False
        if not ok:
            failed += 1
            if errors is not None and len(errors) < 5:
                errors.append(f"{ops[k].label}[{j}]: {r!r:.300}")
        prev = r
    return failed, prev


def timed_setup(workload, times: list):
    """One fresh set-up; its wall time goes to ``times``."""
    gc.collect()
    t0 = time.perf_counter_ns()
    env = workload.setup()
    times.append(time.perf_counter_ns() - t0)
    return env


def setup_chunks(reps: int, chunks: int) -> set:
    """Chunks before which a further set-up is timed: reps - 1, evenly spaced."""
    return {round(i * chunks / reps) for i in range(1, reps)}


def host_facts(workload) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "yaml_with_libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "opsforge": opsforge.__version__,
        "machine": platform.machine(),
        "nproc": nproc(),
        "pool_budget": workload.pool_budget or 1,
        "timer_resolution_ns": timer_resolution_ns(),
        "seed": workload.seed,
        "warmup_ops": workload.n_warmup,
        "timed_ops": workload.n_timed,
        "op_kinds": len(workload.ops),
    }


def measure(workload) -> dict:
    """The untraced run: every end-to-end metric with its sample count."""
    setup_times: list[int] = []
    env = timed_setup(workload, setup_times)
    more_setups = setup_chunks(SETUP_REPS[workload.name], len(workload.chunks))
    calls, checks, plan_failures = workload.bind(env)
    kinds, idxs, ops = workload.kinds, workload.idxs, workload.ops
    W, N = workload.n_warmup, workload.n_timed
    errors: list[str] = []
    failed, prev = run_ops(ops, calls, checks, kinds, idxs, 0, W, errors=errors)
    lat = array("q", bytes(8 * N))
    walls = []
    history = 0
    for c, (start, stop) in enumerate(workload.chunks):
        if c in workload.fresh_env:
            calls = checks = env = prev = None
            env = timed_setup(workload, setup_times)
            calls, checks, more = workload.bind(env)
            plan_failures += more
        elif c in more_setups:
            timed_setup(workload, setup_times)
        t0 = time.perf_counter_ns()
        f, prev = run_ops(ops, calls, checks, kinds, idxs, start, stop, prev, lat, errors, W)
        walls.append(time.perf_counter_ns() - t0)
        failed += f
        history = max(history, len(env.history))
    failed += plan_failures
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    us = np.frombuffer(lat, dtype=np.int64) / 1000.0
    p99 = float(np.percentile(us, 99))
    metrics = {
        "throughput_ops_s": (N / (sum(walls) / 1e9), N),
        "latency_p50_us": (float(np.percentile(us, 50)), N),
        "latency_p99_us": (p99, N),
        "setup_s": (statistics.median(setup_times) / 1e9, len(setup_times)),
        "peak_rss_mb": (rss_mb, 1),
    }
    return {
        "attempted": W + N,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "notes": {
            "timed_wall_s": sum(walls) / 1e9,
            "p99_samples_beyond": int(np.count_nonzero(us > p99)),
            # equal-work chunks: their spread shows how steady the host was
            "chunk_throughput_ops_s": [round(N / len(walls) / (w / 1e9), 1) for w in walls],
            "setup_builds_s": [t / 1e9 for t in setup_times],
            "environments": 1 + len(workload.fresh_env),
            "max_history_records": history,
            "plan_failures": plan_failures,
        },
    }


def print_result(workload, trace: int, result: dict, units: dict) -> dict:
    """Human-readable report, the result file, then the one-line JSON result."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {workload.name}  seed {workload.seed}  trace {trace}  "
          "closed loop, one caller")
    for key, value in result["host"].items():
        print(f"  host.{key} = {value}")
    for name, (value, n) in result["metrics"].items():
        print(f"  {name:<34} {value:>14.6g} {units[name]:<6} n={n}")
    if not trace:
        print(f"  {'error_ratio':<34} {failed / attempted:>14.6g} {'1':<6} "
              f"n={attempted} ({failed} failed of {attempted} attempted)")
    for key, value in result.get("notes", {}).items():
        print(f"  note.{key} = {value}")
    for e in result["errors"]:
        print(f"  FAILED {e}")
    correct = failed == 0 and not result.get("incorrect")
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": workload.name,
        "trace": trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_ratio": failed / attempted,
        "host": result["host"],
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in result["metrics"].items()},
        "notes": result.get("notes", {}),
        "errors": result["errors"],
    }
    (OUT_DIR / f"result-{workload.name}-{workload.seed}-t{trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in result["metrics"].items()},
    }
    print(json.dumps(line))
    sys.stdout.flush()
    return record


def run(name: str, seed: int, seconds: float, trace: int, import_ms: float,
        overrides: dict | None = None) -> tuple[dict, int]:
    """Run one workload; returns the result record and the exit code."""
    workload = WORKLOADS[name](seed, seconds, overrides)
    workload.write_inputs()
    try:
        if trace:
            from spans import measure_traced, PER_LAYER_UNITS

            result = measure_traced(workload, import_ms)
            units = PER_LAYER_UNITS
        else:
            result = measure(workload)
            units = END_TO_END_UNITS
    finally:
        workload.remove_inputs()
    result["host"] = host_facts(workload)
    record = print_result(workload, trace, result, units)
    return record, 0 if record["correct"] else 1
