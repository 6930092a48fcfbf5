"""Traced run: spans around each call into a layer, and the per-layer metrics.

Spans come only from this benchmark's own code, around calls into
opsforge's public functions (``OpRequest``, ``env.match``, ``compile_tree``,
the compiled callable, ``Value``, ``write_back``, ``env.history``), plus a
``ComputePool`` subclass passed through the public ``pool=`` argument.
Each span records name, start ns, end ns, parent span and request id; they
stay in memory and are written out when the run ends. A span's self time is
its duration minus the part its children cover, so the self times of one
replayed operation add up to that operation's traced time.

The traced run has four parts: a traced set-up, the first operations of the
workload's stream issued untraced and then replayed decomposed into layer
calls (their throughput ratio is the tracing overhead), a probe that times
each layer call on this workload's registry and request keys, and direct
calls of the stdlib bodies, the CLI and the in-package micro-benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from opsforge import NoMatchError, OpEnvironment, OpRequest, Value, parse_descriptors, parse_type
from opsforge import cli
from opsforge.bench import SCENARIOS, run_benchmark
from opsforge.execution import compile_tree
from opsforge.registry import Kind
from opsforge.runtime import ComputePool
from opsforge.stdlib import adapt, bodies, default_describe_table, default_hierarchy
from opsforge.stdlib import legacy_descriptors_path
from opsforge.values import wrap, write_back

import reference as ref
from harness import run_ops
from workloads import OUT_DIR, make_call, make_handle, stdlib_ops

ns = time.perf_counter_ns

ROUTINES = ("DIRECT", "ADAPTED", "CONVERTED", "ADAPTED_AND_CONVERTED", "NO_MATCH")

# Per-layer metric -> unit. Timings are medians over the spans of one name.
PER_LAYER_UNITS = {
    "opsforge.import_ms": "ms",
    "registry.parse_ms": "ms",
    "registry.build_ms": "ms",
    "registry.candidates_us": "us",
    "registry.infos": "count",
    "matcher.request_us": "us",
    "matcher.cache_lookup_us": "us",
    **{f"matcher.match_us.{r}": "us" for r in ROUTINES},
    "matcher.near_misses": "count",
    "matcher.cache_hits": "count",
    "matcher.cache_misses": "count",
    "matcher.cache_hit_ratio": "1",
    "matcher.cache_entries": "count",
    "execution.compile_us": "us",
    "execution.compile_hit_us": "us",
    "execution.builder_us": "us",
    "execution.handle_us": "us",
    "execution.invoke_us": "us",
    "execution.history_record_us": "us",
    "execution.history_lookup_us": "us",
    "execution.history_records": "count",
    "runtime.frame_us": "us",
    "runtime.pool_map_ms": "ms",
    "runtime.pool_peak_slots": "count",
    "runtime.progress_reports": "count",
    "values.value_us": "us",
    "values.write_back_us": "us",
    "stdlib.gauss_ms": "ms",
    "stdlib.dog_ms": "ms",
    "stdlib.lift_sub_ms": "ms",
    "stdlib.convert_u8_ms": "ms",
    "stdlib.body_share": "1",
    "cli.run_ms": "ms",
    "cli.run_gauss_ms": "ms",
    **{f"bench.{s}_ns": "ns" for s in SCENARIOS},
    "bench.cache_factor": "1",
    "trace.overhead_ratio": "1",
}

# Span name -> (metric, divisor from ns to the metric's unit).
SPAN_METRICS = {
    "registry.parse": ("registry.parse_ms", 1e6),
    "registry.build": ("registry.build_ms", 1e6),
    "registry.candidates": ("registry.candidates_us", 1e3),
    "matcher.request": ("matcher.request_us", 1e3),
    "matcher.cache_lookup": ("matcher.cache_lookup_us", 1e3),
    **{f"matcher.match.{r}": (f"matcher.match_us.{r}", 1e3) for r in ROUTINES},
    "execution.compile": ("execution.compile_us", 1e3),
    "execution.compile_hit": ("execution.compile_hit_us", 1e3),
    "execution.builder": ("execution.builder_us", 1e3),
    "execution.handle": ("execution.handle_us", 1e3),
    "execution.invoke": ("execution.invoke_us", 1e3),
    "execution.history_record": ("execution.history_record_us", 1e3),
    "execution.history_lookup": ("execution.history_lookup_us", 1e3),
    "runtime.pool_map": ("runtime.pool_map_ms", 1e6),
    "values.value": ("values.value_us", 1e3),
    "values.write_back": ("values.write_back_us", 1e3),
}

# Operations of the stream replayed traced, and probe repetitions per key.
REPLAY_OPS = {"dispatch_hot": 20_000, "match_cold": 2_000, "imaging": 200}
PROBE_REPS = {"dispatch_hot": 200, "match_cold": 10, "imaging": 4}
SETUP_REPS = 5
BODY_REPS = 5


class Spans:
    """In-memory span store: parallel lists indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.stack: list[int] = []
        self.request = -1

    def open(self, name: str) -> None:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.requests.append(self.request)
        self.ends.append(0)
        self.stack.append(sid)
        self.starts.append(ns())

    def close(self, name: str | None = None) -> None:
        t = ns()
        sid = self.stack.pop()
        self.ends[sid] = t
        if name is not None:
            self.names[sid] = name

    def unwind(self, depth: int) -> None:
        while len(self.stack) > depth:
            self.close()

    def durations(self) -> list[int]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[int]:
        dur = self.durations()
        covered = [0] * len(dur)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += dur[sid]
        return [d - c for d, c in zip(dur, covered)]

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as f:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.requests):
                f.write(json.dumps(dict(zip(("name", "start_ns", "end_ns", "parent", "request"), row))))
                f.write("\n")


def pool_class(spans: Spans):
    class TracedPool(ComputePool):
        def map_indexed(self, fn, count):
            spans.open("runtime.pool_map")
            try:
                return super().map_indexed(fn, count)
            finally:
                spans.close()

    return TracedPool


def traced_setup(workload, spans: Spans, pool_cls):
    """The workload's set-up, split into parse and build, ``SETUP_REPS`` times."""
    bindings = workload.bindings()
    env = None
    for _ in range(SETUP_REPS):
        spans.open("setup")
        spans.open("registry.parse")
        infos = []
        for path in workload.descriptor_paths():
            infos += parse_descriptors(Path(path).read_text(encoding="utf-8"), origin=str(path))
        spans.close()
        spans.open("registry.build")
        env = OpEnvironment(
            infos, bindings, hierarchy=default_hierarchy(), describe_table=default_describe_table(),
            cache_enabled=workload.cache_enabled, pool=workload.make_pool(pool_cls),
        )
        spans.close()
        if workload.handles_in_setup:
            spans.open("setup.handles")
            for op in workload.ops:
                if op.via == "handle":
                    make_handle(env, op)
            spans.close()
        spans.close()
    return env


def _request(op, j: int) -> OpRequest:
    return OpRequest(
        op.name_at(j), op.kind, op.types,
        output_type=op.out if op.kind is Kind.FUNCTION else None,
        container_type=op.ctype if op.kind is Kind.COMPUTER else None,
        mutable_index=op.mutable if op.kind is Kind.INPLACE else None,
    )


def _match(env, req, spans: Spans):
    """env.match in a span named after what happened: cache hit or routine."""
    hits = env.cache.stats()[0]
    spans.open("matcher.match")
    try:
        tree = env.match(req)
    except NoMatchError:
        spans.close("matcher.match.NO_MATCH")
        raise
    hit = env.cache_enabled and env.cache.stats()[0] > hits
    spans.close("matcher.cache_lookup" if hit else f"matcher.match.{tree.routine.value}")
    return tree


def _execute(env, tree, op, j, vals, fn, spans: Spans):
    """The compiled callable, result wrap or write-back, history record."""
    payloads = [v.payload for v in vals]
    spans.open("execution.invoke")
    result = fn(*payloads)
    spans.close()
    if tree.eff_kind is Kind.FUNCTION:
        spans.open("values.value")
        out = Value(tree.out_type, result)
        spans.close()
    elif tree.eff_kind is Kind.COMPUTER:
        out = op.container(j)
        spans.open("values.write_back")
        write_back(out, result)
        spans.close()
    else:
        out = vals[tree.eff_mutable]
    spans.open("execution.history_record")
    env.history.record(out, tree.signature)
    spans.close()
    return out


def _wrap_inputs(op, j, spans: Spans):
    spans.open("values.wrap")
    vals = tuple(a if isinstance(a, Value) else wrap(a) for a in op.args(j))
    spans.close()
    return vals


def decomposed(env, op, j, prev, spans: Spans, fn=None, tree=None):
    """One operation as its sequence of public layer calls, each in a span."""
    if op.via == "lookup":
        spans.open("execution.history_lookup")
        rec = env.history.lookup(prev)
        spans.close()
        return rec
    if op.via == "handle":
        return _execute(env, tree, op, j, _wrap_inputs(op, j, spans), fn, spans)
    vals = _wrap_inputs(op, j, spans)
    spans.open("matcher.request")
    req = _request(op, j)
    spans.close()
    try:
        tree = _match(env, req, spans)
    except NoMatchError as exc:
        return exc
    spans.open("execution.compile")
    fn = compile_tree(env, tree)
    spans.close("execution.compile_hit" if env.cache_enabled else "execution.compile")
    out = _execute(env, tree, op, j, vals, fn, spans)
    return (tree, out) if op.via == "fresh" else out


def replay(workload, env, spans: Spans, n: int, errors: list) -> tuple[int, int]:
    """The stream's first n operations, decomposed. Returns (failed, wall ns)."""
    compiled = {}
    for k, op in enumerate(workload.ops):
        if op.via == "handle":
            tree = make_handle(env, op).tree
            compiled[k] = (tree, compile_tree(env, tree))
    failed = 0
    prev = None
    t0 = ns()
    for i in range(n):
        k, j = workload.kinds[i], workload.idxs[i]
        op = workload.ops[k]
        tree, fn = compiled.get(k, (None, None))
        spans.request = i
        spans.open(f"replay.{op.via}")
        try:
            r = decomposed(env, op, j, prev, spans, fn, tree)
        except Exception as exc:
            spans.unwind(1)
            r = exc
        spans.close()
        try:
            ok = op.check(j, r)
        except Exception:
            ok = False
        if not ok:
            failed += 1
            if len(errors) < 5:
                errors.append(f"traced {op.label}[{j}]: {r!r:.300}")
        prev = r
    return failed, ns() - t0


def probe(workload, spans: Spans, pool_cls, notes: dict) -> int:
    """Every layer call on this workload's registry, for its own request keys
    and for one stdlib request per routine. Returns the near-miss line count."""
    cold = workload.environment(workload.make_pool(pool_cls), cache_enabled=False)
    warm = workload.environment(workload.make_pool(pool_cls), cache_enabled=True)
    table = stdlib_ops(np.random.default_rng([workload.seed, 9]), 1)
    own = [op for op in workload.ops if op.via != "lookup"]
    names = sorted({op.name_at(j) for op in own + table for j in range(1 if op.names is None else 4)})
    spans.request = -1
    for _ in range(PROBE_REPS[workload.name]):
        for name in names:
            spans.open("registry.candidates")
            cold.candidates(name)
            spans.close()
    near = 0
    signatures = {}
    for rep in range(PROBE_REPS[workload.name]):
        for op in table:
            spans.open("probe.table")
            spans.open("matcher.request")
            req = _request(op, 0)
            spans.close()
            try:
                tree = _match(cold, req, spans)
            except NoMatchError as exc:
                near += len(exc.near_misses) if rep == 0 else 0
                spans.close()
                continue
            signatures[op.label] = tree.signature
            spans.open("execution.compile")
            fn = compile_tree(cold, tree)
            spans.close()
            spans.open("probe.invoke")
            fn(*[v.payload for v in (a if isinstance(a, Value) else wrap(a) for a in op.args(0))])
            spans.close()
            spans.close()
        for op in own:
            j = rep % 4
            try:
                handle = make_handle(warm, op, j)
            except NoMatchError:
                continue  # deliberate misses have no plan to time
            spans.open("probe.own")
            for env, compile_name in ((cold, "execution.compile"), (warm, "execution.compile_hit")):
                spans.open("matcher.request")
                req = _request(op, j)
                spans.close()
                tree = _match(env, req, spans)
                spans.open(compile_name)
                compile_tree(env, tree)
                spans.close()
            builder = make_call(warm, replace(op, via="builder", name=op.name_at(j), names=None))
            spans.open("execution.builder")
            builder(j, None)
            spans.close()
            spans.open("execution.handle")
            if op.kind is Kind.COMPUTER:
                out = handle(*op.args(j), container=op.container(j))
            else:
                out = handle(*op.args(j))
            spans.close()
            spans.open("execution.history_lookup")
            warm.history.lookup(out)
            spans.close()
            if op.kind is Kind.FUNCTION:
                target = Value(out.type, _blank(out.payload))
                spans.open("values.write_back")
                write_back(target, out.payload)
                spans.close()
            spans.close()
    notes["rescale2D_signatures"] = {k: signatures.get(k) for k in ("rescale_w", "rescale_wh")}
    notes["rescale2D_signatures_equal"] = signatures.get("rescale_w") == signatures.get("rescale_wh")
    return near


def _blank(payload):
    if isinstance(payload, np.ndarray):
        return np.zeros_like(payload)
    if isinstance(payload, bytearray):
        return bytearray(len(payload))
    return type(payload)()


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = ns()
        fn()
        times.append(ns() - t0)
    return statistics.median(times) / 1e6


def frame_us(env) -> float:
    """Compiled leaf callable minus its raw body, same arguments, per call."""
    req = OpRequest("math.add", Kind.FUNCTION, (parse_type("Integer"), parse_type("Integer")))
    tree = env.match(req)
    fn, body = compile_tree(env, tree), env.binding(tree.info.source)
    batch = range(2000)
    framed, raw = [], []
    for _ in range(15):
        t0 = ns()
        for _ in batch:
            fn(3, 4)
        t1 = ns()
        for _ in batch:
            body(3, 4)
        t2 = ns()
        framed.append(t1 - t0)
        raw.append(t2 - t1)
    return (statistics.median(framed) - statistics.median(raw)) / len(batch) / 1e3


def stdlib_bodies(seed: int) -> dict:
    """The numeric bodies and the lift adapter called directly at 128^2."""
    rng = np.random.default_rng([seed, 10])
    a = rng.uniform(0.0, 255.0, size=(128, 128))
    b = rng.uniform(0.0, 255.0, size=(128, 128))
    u8 = rng.integers(0, 256, size=(128, 128), dtype=np.uint8)
    lifted = adapt.lift2_elementwise(bodies.sub_reals)
    g = bodies.gaussian_blur
    return {
        "stdlib.gauss_ms": _median_ms(lambda: g(a, 2.0), BODY_REPS),
        "stdlib.dog_ms": _median_ms(lambda: bodies.difference_of_gaussians(g, g, lifted, a, 1.0, 2.0), BODY_REPS),
        "stdlib.lift_sub_ms": _median_ms(lambda: lifted(a, b), BODY_REPS),
        "stdlib.convert_u8_ms": _median_ms(lambda: bodies.f64_to_u8(bodies.u8_to_f64(u8)), BODY_REPS),
    }


def cli_runs(seed: int) -> tuple[float, float, bool]:
    """In-process ``ops run`` for math.add and a 32^2 gauss, stdout captured."""
    rng = np.random.default_rng([seed, 11])
    img = rng.uniform(0.0, 255.0, size=(32, 32))
    image_arg = "ImageF64:" + json.dumps({"w": 32, "h": 32, "data": img.ravel().tolist()})
    base = ["--descriptors", str(legacy_descriptors_path()), "run"]
    commands = {
        "add": base + ["math.add", "--in", "Integer:2", "--in", "Integer:3"],
        "gauss": base + ["filter.gauss", "--in", image_arg, "--in", "Real:1.5"],
    }
    times = {"add": [], "gauss": []}
    ok = True
    for _ in range(3):
        for key, argv in commands.items():
            out = io.StringIO()
            t0 = ns()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            times[key].append(ns() - t0)
            result = json.loads(out.getvalue())
            if key == "add":
                ok &= code == 0 and result == {"type": "Integer", "value": 5}
            else:
                got = np.array(result["value"]["data"], dtype=np.float64).reshape(32, 32)
                ok &= code == 0 and ref.floats_close(got, ref.gauss(img, 1.5), 255.0)
    return statistics.median(times["add"]) / 1e6, statistics.median(times["gauss"]) / 1e6, ok


def measure_traced(workload, import_ms: float) -> dict:
    spans = Spans()
    pool_cls = pool_class(spans)
    notes: dict = {}
    errors: list[str] = []
    env = traced_setup(workload, spans, pool_cls)
    reports = []
    env.add_progress_listener(reports.append)
    calls, checks, plan_failures = workload.bind(env)
    n = min(REPLAY_OPS[workload.name], len(workload.kinds))
    kinds, idxs, ops = workload.kinds, workload.idxs, workload.ops
    # one untimed pass first, so the timed untraced pass starts as warm as the replay
    failed, _ = run_ops(ops, calls, checks, kinds, idxs, 0, n, errors=errors)
    t0 = ns()
    f1, _ = run_ops(ops, calls, checks, kinds, idxs, 0, n, errors=errors)
    untraced_wall = ns() - t0
    replay_from = len(spans.names)
    f2, traced_wall = replay(workload, env, spans, n, errors)
    replay_to = len(spans.names)
    failed += f1 + f2 + plan_failures
    expected_reports = 3 * sum(
        ops[k].progress(j) for k, j in zip(kinds[:n], idxs[:n]) if ops[k].progress is not None)
    hits, misses = env.cache.stats()
    counts = {
        "registry.infos": len(env.infos),
        "matcher.cache_hits": hits,
        "matcher.cache_misses": misses,
        "matcher.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "matcher.cache_entries": len(env.cache),
        "execution.history_records": len(env.history),
        "runtime.pool_peak_slots": env.pool.peak_slots,
        "runtime.progress_reports": len(reports),
    }
    notes["cache_hit_ratio_base"] = f"{hits} hits of {hits + misses} lookups"
    incorrect = []
    if len(reports) != expected_reports:
        incorrect.append(f"progress reports {len(reports)} != expected {expected_reports}")

    near = probe(workload, spans, pool_cls, notes)
    expected_near = sum(len(r["near_misses"]) for r in ref.PLAN_TABLE.values() if "near_misses" in r)
    if near != expected_near:
        incorrect.append(f"near-miss lines {near} != expected {expected_near}")
    counts["matcher.near_misses"] = near

    # self-time accounting over the replayed operations
    dur, self_t = spans.durations(), spans.self_times()
    root_total = sum(dur[s] for s in range(replay_from, replay_to) if spans.parents[s] < 0)
    self_total = sum(self_t[s] for s in range(replay_from, replay_to))
    layer_self: dict[str, list[int]] = {}
    invoke_total = 0
    for s in range(replay_from, replay_to):
        layer_self.setdefault(spans.names[s], []).append(self_t[s])
        if spans.names[s] == "execution.invoke":
            invoke_total += dur[s]
    if self_total != root_total:
        incorrect.append(f"self times sum {self_total} != traced call time {root_total}")
    notes["self_time_sum_ns"] = self_total
    notes["traced_call_time_ns"] = root_total
    notes["call_path_self_ms"] = {
        name: {"spans": len(v), "self_ms": sum(v) / 1e6, "share": sum(v) / root_total,
               "median_self_us": statistics.median(v) / 1e3}
        for name, v in sorted(layer_self.items(), key=lambda kv: -sum(kv[1]))
    }
    notes["body_share_base"] = f"invoke {invoke_total / 1e6:.3f} ms of {root_total / 1e6:.3f} ms"

    samples: dict[str, list[int]] = {}
    for name, d in zip(spans.names, dur):
        if name in SPAN_METRICS:
            samples.setdefault(name, []).append(d)
    metrics = {"opsforge.import_ms": (import_ms, 1)}
    for span_name, (metric, div) in SPAN_METRICS.items():
        got = samples.get(span_name)
        if got:
            metrics[metric] = (statistics.median(got) / div, len(got))
        else:
            incorrect.append(f"no spans for {metric}")
            metrics[metric] = (0.0, 0)
    for key, value in counts.items():
        metrics[key] = (value, 1)
    metrics["runtime.frame_us"] = (frame_us(env), 15)
    for key, value in stdlib_bodies(workload.seed).items():
        metrics[key] = (value, BODY_REPS)
    metrics["stdlib.body_share"] = (invoke_total / root_total, n)
    add_ms, gauss_ms, cli_ok = cli_runs(workload.seed)
    if not cli_ok:
        incorrect.append("ops run output differs from the reference")
    metrics["cli.run_ms"] = (add_ms, 3)
    metrics["cli.run_gauss_ms"] = (gauss_ms, 3)
    report = run_benchmark(size=1024, warmup=100, iterations=1000, reps=3)
    for s in SCENARIOS:
        metrics[f"bench.{s}_ns"] = (report.result(s).mean_ns, 3)
    cached, nocache = report.result("MATCHED_CACHED").mean_ns, report.result("MATCHED_NOCACHE").mean_ns
    metrics["bench.cache_factor"] = (cached / nocache, 3)
    notes["bench_cache_factor_base"] = f"MATCHED_CACHED {cached:.0f} ns / MATCHED_NOCACHE {nocache:.0f} ns"
    metrics["trace.overhead_ratio"] = (untraced_wall / traced_wall, n)
    notes["trace_overhead_base"] = (
        f"{n} ops: untraced {untraced_wall / 1e6:.1f} ms, traced {traced_wall / 1e6:.1f} ms")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload.name}-{workload.seed}.jsonl"
    spans.write(path)
    notes["spans_file"] = str(path.relative_to(OUT_DIR.parent.parent))
    notes["spans"] = len(spans.names)
    ordered = {k: metrics[k] for k in PER_LAYER_UNITS}
    return {
        "attempted": 3 * n,
        "failed": failed,
        "errors": errors + incorrect,
        "incorrect": incorrect,
        "metrics": ordered,
        "notes": notes,
    }
