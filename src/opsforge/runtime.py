"""Execution-time context: progress reporting and the compute pool.

Every executing op has a frame: a (label, environment, pool) tuple. Bodies
report progress through report_progress (or report_steps, for a run of equal
steps) without knowing who is listening; the innermost frame labels the
report with the op name and fans it out to the listeners registered on the
environment when the report is made. Outside any op the report functions and
current_pool degrade to safe no-ops, so op bodies stay plain callables.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class ProgressReport:
    op_label: str
    fraction: float
    stage: str = ""


class ComputePool:
    """Bounded budget of compute slots for data-parallel op bodies.

    map_indexed partitions [0, count) into contiguous chunks, one per
    acquired slot, and evaluates fn(i) for every index. Results depend only
    on the index, never on the partitioning, so any budget yields identical
    output. At most ``budget`` slots are held at any moment; when none are
    free the caller simply computes sequentially.
    """

    def __init__(self, budget: int = 1):
        if budget < 1:
            raise ValueError("pool budget must be positive")
        self.budget = budget
        self._lock = threading.Lock()
        self._in_use = 0
        self._peak = 0

    def _try_acquire(self, want: int) -> int:
        with self._lock:
            granted = min(want, self.budget - self._in_use)
            if granted > 0:
                self._in_use += granted
                self._peak = max(self._peak, self._in_use)
                return granted
            return 0

    def _release(self, count: int) -> None:
        with self._lock:
            self._in_use -= count

    @property
    def peak_slots(self) -> int:
        with self._lock:
            return self._peak

    def map_indexed(self, fn: Callable[[int], object], count: int) -> list:
        if count <= 0:
            return []
        granted = self._try_acquire(min(self.budget, count))
        if granted <= 1:
            try:
                return [fn(i) for i in range(count)]
            finally:
                if granted:
                    self._release(granted)
        try:
            results: list = [None] * count
            errors: list[tuple[int, BaseException]] = []
            base, extra = divmod(count, granted)
            chunks: list[tuple[int, int]] = []
            start = 0
            for k in range(granted):
                size = base + (1 if k < extra else 0)
                chunks.append((start, start + size))
                start += size

            def run(lo: int, hi: int) -> None:
                try:
                    for i in range(lo, hi):
                        results[i] = fn(i)
                except BaseException as exc:
                    errors.append((lo, exc))

            threads = [
                threading.Thread(target=run, args=chunk, daemon=True)
                for chunk in chunks[1:]
            ]
            for t in threads:
                t.start()
            run(*chunks[0])
            for t in threads:
                t.join()
            if errors:
                raise min(errors)[1]
            return results
        finally:
            self._release(granted)


_DEFAULT_POOL = ComputePool(1)

# An op's frame is built once per compiled plan and held in the ``op_frame``
# local of the function that runs the op (see runs_op). Running an op pushes
# nothing, since that sits on every invocation's path: the innermost frame
# is found, only when a body asks for it, by walking the calling thread's
# own Python stack to the nearest such function. Each thread, pool workers
# included, thus sees only the ops it runs itself.
_RUNNER_CODES: set = set()


def runs_op(fn):
    """Mark ``fn`` as running an op whose frame is its ``op_frame`` local."""
    _RUNNER_CODES.add(fn.__code__)
    return fn


def _innermost_frame() -> tuple | None:
    f = sys._getframe(1)
    while f is not None:
        if f.f_code in _RUNNER_CODES:
            return f.f_locals["op_frame"]
        f = f.f_back
    return None


def report_progress(fraction: float, stage: str = "") -> None:
    """Report completion of the innermost executing op; no-op outside one."""
    frame = _innermost_frame()
    if frame is None:
        return
    label, env, _ = frame
    listeners = env._listeners
    if not listeners:
        return
    report = ProgressReport(label, float(fraction), stage)
    for listener in listeners:
        listener(report)


def report_steps(count: int, stage: str = "") -> None:
    """Report ``count`` equal steps of the innermost op, the last at 1.0.

    Same reports as ``report_progress((i + 1) / count, stage)`` for each
    step, with the frame and its listeners looked up once.
    """
    frame = _innermost_frame()
    if frame is None:
        return
    label, env, _ = frame
    listeners = env._listeners
    if not listeners:
        return
    for i in range(1, count + 1):
        report = ProgressReport(label, i / count, stage)
        for listener in listeners:
            listener(report)


def current_pool() -> ComputePool:
    frame = _innermost_frame()
    return frame[2] if frame is not None else _DEFAULT_POOL
