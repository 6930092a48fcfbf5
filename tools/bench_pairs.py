"""Alternating parent/HEAD benchmark pairs, written to one BENCH_<n>.json.

    python3 tools/bench_pairs.py --out BENCH_7.json --seeds 10 --criterion6 10

Unpacks the parent commit's tree (``git archive``) into a temporary
directory, and this checkout's tracked files as they stand in the working
tree into another, so that both sides run from a fresh tree with no
caches of its own. It runs ``perfbench/run.py --trace 0`` in each,
alternating which side runs first, for each workload over seeds 1..N. It reads the JSON last line of every run. For each end-to-end metric
it records the paired values, each side's median, q1 and q3, the change's
relative median delta and how many pairs the change won (ties count for
neither side). The summary it prints marks a metric "claim holds" when the
change won at least 9 of 10 pairs and its median delta exceeds the
parent's interquartile range; it also gives each head median's
relative delta against the head median of the newest committed
``BENCH_<n>.json`` (other than the one being written), so a change reads
against the trajectory as well as against its parent.

For the per-layer split it then runs ``perfbench/run.py --trace 1`` once
per side for each workload (seed 1), alternating which side runs first
from one workload to the next, and records both sides' per-layer metrics
(BENCHMARK.json's ``per_layer``) with the change's relative delta. One
traced pair shows where a change moved time; it is not a distribution.

The workloads and the run length are BENCHMARK.json's. The script also
runs criterion 6's own test (``pytest tests/test_acceptance.py -k
criterion_06``) K times per side, alternating, each in a fresh process, and
records the verdict line it prints: pass or fail, the cached and uncached
means in ns, the ratio as printed (two places) and the additivity. Per side
it records the medians of the two means and the ratio of those medians,
computed from the ns, since a printed 0.10 may be a failing 0.104. These
are pass counts for the record, not a gate. Paired, order-alternated runs follow Kalibera & Jones,
"Rigorous Benchmarking in Reasonable Time" (ISMM 2013). Standard library
only; run it from a checkout of the change.

Last, it counts, once per side in a fresh process, the bytecodes three cached
calls execute (``dispatch_opcodes``): a ``benchmark.increment`` ``mutate()``
on a ByteArray Value, a ``math.add`` ``apply()`` on two raw ints, and a
lifted ``math.sub`` ImageF64 handle on two raw arrays. Counts repeat exactly
on one interpreter version, so they show a change to the cached path where
timings drown in host noise. Beside them it counts the same ``mutate()`` on
an environment with its cache off, criterion 6's uncached call: a rise there
flatters criterion 6's ratio without making the cached call cheaper. On that
environment it also counts one ``env.match`` of the ``filter.dog`` computer
request, the cost of an op's dependency plans on an uncached match. Last it
counts one whole ``default_environment()`` build (``stdlib_build``): parse,
read every entry, build the tables. Its two descriptor files are read before
counting starts and served from memory under one-part paths, so the count
does not move with the depth of the checkout. A second counted build splits
it by stage (``stdlib_build.<stage>``): the JSON read, ``read_document``,
``OpEnvironment.__init__`` with ``matcher_tables`` (the tables built with
the environment), ``name_rows`` (the rows of the names that the fixed
dependency plans look up) and ``fixed_dependencies`` apart, and the rest.
``stdlib_rows_all`` counts the rows of every stdlib name built on a fresh
environment, the work a build leaves to first matches. ``synth_build``
counts one ``parse_descriptors`` of perfbench's synthetic registry (seed 1,
match_cold's size) plus the ``OpEnvironment`` build over it and the stdlib
entries, from a text and entries made before counting starts. These too are
reported, not pinned.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

CRITERION6_TEST = ["-m", "pytest", "tests/test_acceptance.py", "-k", "criterion_06",
                   "-s", "-q", "-p", "no:cacheprovider"]
# the verdict line tests/test_acceptance.py prints for criterion 6
CRITERION6_LINE = re.compile(
    r"criterion +6 \[(PASS|FAIL)\].*? cached=(\d+) nocache=(\d+) .*?ordering=(True|False), "
    r"cached/nocache=(\S+) .*?additivity=(\S+) in"
)


def parse_result(stdout: str) -> dict:
    """The one-line JSON result perfbench prints last."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            raise ValueError(f"perfbench result has no {key!r}")
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list[tuple[float, float]], better: str) -> dict:
    """Per-metric record from ``(parent, head)`` pairs."""
    parent = [p for p, _ in pairs]
    head = [h for _, h in pairs]
    sign = 1 if better == "higher" else -1
    p_stats, h_stats = quartiles(parent), quartiles(head)
    return {
        "better": better,
        "pairs": [list(pair) for pair in pairs],
        "parent": p_stats,
        "head": h_stats,
        "delta": (h_stats["median"] - p_stats["median"]) / p_stats["median"]
        if p_stats["median"]
        else None,
        "wins": sum(1 for p, h in pairs if sign * (h - p) > 0),
        "losses": sum(1 for p, h in pairs if sign * (h - p) < 0),
    }


def claim_holds(m: dict) -> bool:
    """Whether a ``summarise`` record supports claiming a gain: the change
    wins at least nine tenths of the pairs (ties count for neither side),
    and its median beats the parent's by more than the parent's own
    spread, the distance between the parent's quartiles."""
    sign = 1 if m["better"] == "higher" else -1
    gain = sign * (m["head"]["median"] - m["parent"]["median"])
    return 10 * m["wins"] >= 9 * len(m["pairs"]) and gain > m["parent"]["q3"] - m["parent"]["q1"]


def workload_record(runs: list[tuple[dict, dict]], directions: dict) -> dict:
    """One workload's record from ``(parent result, head result)`` pairs."""
    metrics = {}
    for name, better in directions.items():
        pairs = [
            (p["metrics"][name]["value"], h["metrics"][name]["value"])
            for p, h in runs
            if name in p["metrics"] and name in h["metrics"]
        ]
        if pairs:
            metrics[name] = summarise(pairs, better)
    sides = {"parent": [p for p, _ in runs], "head": [h for _, h in runs]}
    return {
        "runs": len(runs),
        "correct": {side: [r["correct"] for r in rs] for side, rs in sides.items()},
        "failed_of_attempted": {
            side: [sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)]
            for side, rs in sides.items()
        },
        "metrics": metrics,
    }


def per_layer_record(parent: dict, head: dict, directions: dict, first: str) -> dict:
    """One workload's traced pair: per-layer values of both sides and the delta."""
    metrics = {}
    for name, better in directions.items():
        if name in parent["metrics"] and name in head["metrics"]:
            p, h = parent["metrics"][name]["value"], head["metrics"][name]["value"]
            metrics[name] = {"better": better, "parent": p, "head": h,
                             "delta": (h - p) / p if p else None}
    return {"first": first, "correct": {"parent": parent["correct"], "head": head["correct"]},
            "metrics": metrics}


def criterion6_verdict(stdout: str) -> dict:
    """The verdict criterion 6's test printed, read from the test run's output."""
    for line in stdout.splitlines():
        found = CRITERION6_LINE.search(line)
        if found:
            verdict, cached, nocache, ordering, ratio, additive = found.groups()
            return {
                "passed": verdict == "PASS",
                "ordering": ordering == "True",
                "cached_ns": int(cached),
                "nocache_ns": int(nocache),
                "ratio": float(ratio),
                "additivity": float(additive),
                "line": line.strip(),
            }
    raise ValueError(f"no criterion 6 verdict line in:\n{stdout[-2000:]}")


def criterion6_record(verdicts: list[dict]) -> dict:
    """Pass count, printed ratios, and the median cached and uncached means
    with the ratio of those medians; the medians are None for no runs."""
    cached = statistics.median(v["cached_ns"] for v in verdicts) if verdicts else None
    nocache = statistics.median(v["nocache_ns"] for v in verdicts) if verdicts else None
    return {
        "runs": len(verdicts),
        "passed": sum(1 for v in verdicts if v["passed"]),
        "ratios": [v["ratio"] for v in verdicts],
        "cached_ns_median": cached,
        "nocache_ns_median": nocache,
        "median_ratio": cached / nocache if nocache else None,
        "verdicts": verdicts,
    }


def count_opcodes(call) -> int:
    """Bytecodes one ``call()`` executes below its own frame (``sys.settrace``
    opcode events), with the garbage collector held off so that no finalizer
    runs inside the count."""
    count = 0
    top = call.__code__

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode" and frame.f_code is not top:
            count += 1
        return trace

    _traced(call, trace)
    return count


def count_opcodes_by_stage(call, stages: dict) -> dict:
    """The bytecodes ``count_opcodes`` counts for one ``call()``, split by
    stage. ``stages`` maps functions to stage names; a bytecode counts to
    the stage of the innermost listed function running it, or to
    ``"other"`` outside them all."""
    counts = dict.fromkeys([*stages.values(), "other"], 0)
    named = {f.__code__: name for f, name in stages.items()}
    top = call.__code__

    def counter(stage):
        def trace(frame, event, arg):
            if event == "opcode":
                counts[stage] += 1
            return trace

        return trace

    stage_of = {counter(name): name for name in counts}
    local = {name: trace for trace, name in stage_of.items()}

    def uncounted(frame, event, arg):
        return uncounted

    def enter(frame, event, arg):
        # a frame's stage is its function's, else its caller's
        frame.f_trace_opcodes = True
        if frame.f_code is top:
            return uncounted
        name = named.get(frame.f_code)
        if name is None:
            caller = frame.f_back
            name = stage_of.get(caller.f_trace if caller else None, "other")
        return local[name]

    _traced(call, enter)
    return counts


def _traced(call, trace) -> None:
    """``call()`` under ``sys.settrace(trace)``, with the garbage collector
    held off so that no finalizer runs inside the count."""
    was_enabled = gc.isenabled()
    gc.disable()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(None)
        if was_enabled:
            gc.enable()


def dispatch_opcodes() -> dict:
    """Bytecodes of three cached calls on a fresh stdlib environment, each
    counted after three warm-up calls: ``increment_mutate`` (a ByteArray
    Value), ``add_apply`` (two raw ints, an Integer result) and
    ``sub_handle`` (an ADAPTED ``math.sub`` ImageF64 handle through the
    elementwise lift, two raw 32x32 float64 arrays, an ImageF64 result).
    Each builds one Value at most: its result. ``increment_mutate_uncached``
    is ``increment_mutate`` on a twin environment with its cache off, so
    it matches, compiles and makes a runner on every call; it is reported,
    not pinned. So is ``dog_match_uncached``: ``env.match`` of the
    ``filter.dog`` computer request on that twin, whose three dependency
    plans were resolved when the twin was built, and ``stdlib_build``
    (``stdlib_build_opcodes``)."""
    import numpy as np

    from opsforge.matcher import computer_request
    from opsforge.stdlib import default_environment
    from opsforge.values import wrap

    env = default_environment(include_legacy=False)
    off = default_environment(include_legacy=False, cache_enabled=False)
    data = wrap(bytearray(16))
    sub = (env.op("math.sub").input_types("ImageF64", "ImageF64")
           .output_type("ImageF64").function())
    a, b = np.ones((32, 32)), np.zeros((32, 32))
    dog = computer_request("filter.dog", ["ImageF64", "Real", "Real"], "ImageF64")
    calls = {
        "increment_mutate": lambda: env.op("benchmark.increment").input(data).mutate(),
        "add_apply": lambda: env.op("math.add").input(2, 3).apply(),
        "sub_handle": lambda: sub(a, b),
        "increment_mutate_uncached": lambda: off.op("benchmark.increment").input(data).mutate(),
        "dog_match_uncached": lambda: off.match(dog),
    }
    counts = {}
    for name, call in calls.items():
        for _ in range(3):
            call()
        counts[name] = count_opcodes(call)
    counts.update(build_opcodes())
    return counts


def build_opcodes() -> dict:
    """``stdlib_build`` (``stdlib_build_opcodes``), its split by stage as
    ``stdlib_build.<stage>``, ``stdlib_rows_all`` (``stdlib_rows_opcodes``)
    and ``synth_build`` (``synth_build_opcodes``). A tree from before rows
    were built per name (a parent, say) has no ``name_rows`` stage and no
    ``stdlib_rows_all``: it built every name's rows in ``matcher_tables``."""
    from opsforge import matcher, registry

    stages = {json.loads: "json_loads", registry.read_document: "read_document",
              registry.OpEnvironment.__init__: "environment_init",
              matcher.matcher_tables: "matcher_tables",
              matcher.fixed_dependencies: "fixed_dependencies"}
    per_name = hasattr(matcher, "NameRows")
    if per_name:
        stages[registry._read_document] = "read_document"
        stages[matcher.NameRows.__call__] = "name_rows"
    counts = {"stdlib_build": stdlib_build_opcodes()}
    split = stdlib_build_opcodes(lambda build: count_opcodes_by_stage(build, stages))
    counts.update((f"stdlib_build.{stage}", n) for stage, n in split.items())
    if per_name:
        counts["stdlib_rows_all"] = stdlib_rows_opcodes()
    counts["synth_build"] = synth_build_opcodes()
    return counts


def stdlib_rows_opcodes() -> int:
    """Bytecodes of building every name's matcher rows on a fresh
    ``default_environment()``, the work a build leaves to each name's first
    match; counted after three warm-ups, each on its own environment."""
    from opsforge.stdlib import default_environment

    def rows_builder():
        env = default_environment()
        names = sorted({name for info in env.infos for name in info.names})

        def build_rows():
            for name in names:
                env.name_rows(name)

        return build_rows

    for _ in range(3):
        rows_builder()()
    return count_opcodes(rows_builder())


def stdlib_build_opcodes(count=count_opcodes):
    """Bytecodes of one ``default_environment()`` build with the legacy
    descriptors, counted after three warm-up builds. pathlib splits and joins
    paths part by part in Python, so building, testing and reading the two
    descriptor files' real paths costs more bytecodes the deeper the
    checkout lies. Here the files are read before counting starts, and the
    build gets them from memory under one-part relative paths: ``stdlib``'s
    two path functions return those paths, and ``Path.read_text`` and
    ``Path.is_dir`` answer for them, until the count is taken. ``count``
    takes the count of a call."""
    from opsforge import stdlib

    getters = ("builtin_descriptors_path", "legacy_descriptors_path")
    texts = {}
    for getter in getters:
        path = getattr(stdlib, getter)()
        texts[path.name] = path.read_text(encoding="utf-8")
    saved = [(stdlib, g, getattr(stdlib, g)) for g in getters]
    saved += [(Path, "read_text", Path.read_text), (Path, "is_dir", Path.is_dir)]
    for getter in getters:
        short = Path(getattr(stdlib, getter)().name)
        setattr(stdlib, getter, lambda short=short: short)
    Path.read_text = lambda self, encoding=None, errors=None: texts[str(self)]
    Path.is_dir = lambda self: False
    try:
        for _ in range(3):
            stdlib.default_environment()
        return count(stdlib.default_environment)
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def synth_build_opcodes() -> int:
    """Bytecodes of one build at match_cold's size, counted after three
    warm-up builds: ``parse_descriptors`` of perfbench's synthetic registry
    (``perfbench/synth.py``, seed 1, read and not changed) and the
    ``OpEnvironment`` over its entries and the stdlib's, with the stdlib's
    hierarchy. The text, the stdlib entries and the hierarchy are made
    before counting starts."""
    import opsforge
    from opsforge.registry import OpEnvironment, parse_descriptors, read_document
    from opsforge.stdlib import BINDINGS, builtin_descriptors_path, default_hierarchy

    path = Path(opsforge.__file__).resolve().parents[2] / "perfbench" / "synth.py"
    spec = importlib.util.spec_from_file_location("synth", path)
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    registry = synth.SynthRegistry(1)
    text = registry.text
    stdlib = builtin_descriptors_path()
    infos = read_document(json.loads(stdlib.read_text(encoding="utf-8")), str(stdlib))
    bindings = {**BINDINGS, **registry.bindings}
    hierarchy = default_hierarchy()

    def build():
        OpEnvironment(parse_descriptors(text, "synth") + infos, bindings, hierarchy=hierarchy)

    for _ in range(3):
        build()
    return count_opcodes(build)


# imports this file from its own directory, so a side's src/ (PYTHONPATH)
# supplies opsforge
OPCODES_SCRIPT = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import bench_pairs; "
    "print(json.dumps(bench_pairs.dispatch_opcodes()))"
)


def _run_opcodes(root: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    tools = str(Path(__file__).resolve().parent)
    return json.loads(_run([sys.executable, "-c", OPCODES_SCRIPT, tools], root, env)
                      .splitlines()[-1])


BENCH_NAME = re.compile(r"BENCH_(\d+)\.json")


def prior_deltas(report: dict, prior: dict) -> dict:
    """Per workload and metric, the relative delta of ``report``'s head median
    against ``prior``'s head median; None where ``prior`` lacks the metric
    or its median is 0."""
    deltas = {}
    for workload, record in report["workloads"].items():
        before = prior.get("workloads", {}).get(workload, {}).get("metrics", {})
        for name, m in record["metrics"].items():
            old = before.get(name, {}).get("head", {}).get("median")
            deltas.setdefault(workload, {})[name] = (
                (m["head"]["median"] - old) / old if old else None
            )
    return deltas


def last_committed_bench(root: Path, skip: str) -> tuple[str, dict] | None:
    """The newest BENCH_<n>.json committed at HEAD, other than ``skip``, and its report."""
    names = [
        name for name in _git("ls-tree", "--name-only", "HEAD", cwd=root).splitlines()
        if BENCH_NAME.fullmatch(name) and name != skip
    ]
    if not names:
        return None
    name = max(names, key=lambda n: int(BENCH_NAME.fullmatch(n).group(1)))
    return name, json.loads(_git("show", f"HEAD:{name}", cwd=root))


def _git(*args: str, cwd: Path) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def _export_worktree(root: Path, dest: Path) -> None:
    """Unpack the working tree's tracked files, changes included, into
    ``dest``; untracked files stay out, as ``head_dirty`` leaves them out."""
    # stash create commits the working tree without touching it or any ref,
    # and prints nothing when the tree is clean
    _export(root, _git("stash", "create", cwd=root) or "HEAD", dest)


def _export(root: Path, commit: str, dest: Path) -> None:
    """Unpack ``commit``'s committed tree into ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=root,
                         check=True, capture_output=True).stdout
    # extraction filters came with Python 3.10.12 and 3.11.4; a tree from
    # git archive needs none, so older patch releases extract without one
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **safe)


def _run(cmd: list[str], root: Path, env=None) -> str:
    """A fresh process's stdout; its stderr is shown when it printed nothing."""
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if not done.stdout.strip():
        raise RuntimeError(f"{' '.join(cmd)} in {root} failed:\n{done.stderr[-2000:]}")
    return done.stdout


def _run_perfbench(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    # a run whose output checks fail exits non-zero but still prints its result
    return parse_result(_run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)], root))


def _run_criterion6(root: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return criterion6_verdict(_run([sys.executable, *CRITERION6_TEST], root, env))


def host_facts() -> dict:
    """Interpreter, library and machine facts, and the load when it starts."""
    facts = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "loadavg_1_5_15": list(os.getloadavg()),
    }
    for module in ("numpy", "yaml"):
        try:
            facts[module] = importlib.import_module(module).__version__
        except ImportError:
            facts[module] = None
    facts["yaml_with_libyaml"] = hasattr(sys.modules.get("yaml"), "CSafeLoader")
    return facts


def _spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def benchmark_spec(root: Path) -> tuple[list[str], int, dict]:
    """BENCHMARK.json's workload names, run seconds and, per end-to-end
    metric, "higher" or "lower"."""
    spec = _spec(root)
    return (
        [w["name"] for w in spec["workloads"]],
        spec["run_seconds"],
        {m["name"]: m["better"] for m in spec["end_to_end"]},
    )


def per_layer_spec(root: Path) -> dict:
    """BENCHMARK.json's per-layer metrics, each "higher" or "lower"."""
    return {m["name"]: m["better"] for m in _spec(root)["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--parent", default="HEAD~1", help="commit to compare against")
    parser.add_argument("--seeds", type=int, default=10, help="pairs per workload")
    parser.add_argument("--criterion6", type=int, default=10, help="runs per side")
    parser.add_argument("--tmp", default=None, help="where to unpack the parent")
    args = parser.parse_args(argv)
    if args.seeds < 1 or args.criterion6 < 0:
        parser.error("--seeds must be at least 1, --criterion6 at least 0")

    root = Path(_git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    workloads, seconds, better = benchmark_spec(root)
    layers = per_layer_spec(root)
    report = {
        "parent": _git("rev-parse", args.parent, cwd=root),
        "head": _git("rev-parse", "HEAD", cwd=root),
        "head_dirty": bool(_git("status", "--porcelain", "--untracked-files=no", cwd=root)),
        "host": host_facts(),
        "settings": {"seeds": list(range(1, args.seeds + 1)), "seconds": seconds,
                     "criterion6_runs": args.criterion6,
                     "criterion6": " ".join(["python3", *CRITERION6_TEST])},
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
        "per_layer": {},
    }
    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        sides = {"parent": Path(tmp) / "parent", "head": Path(tmp) / "head"}
        _export(root, report["parent"], sides["parent"])
        _export_worktree(root, sides["head"])
        for workload in workloads:
            runs = []
            for i, seed in enumerate(report["settings"]["seeds"]):
                order = ("parent", "head") if i % 2 == 0 else ("head", "parent")
                got = {s: _run_perfbench(sides[s], workload, seed, seconds, 0) for s in order}
                runs.append((got["parent"], got["head"]))
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{s} {got[s]['metrics']['throughput_ops_s']['value']:.1f} ops/s"
                    for s in order), file=sys.stderr)
            report["workloads"][workload] = workload_record(runs, better)
        for i, workload in enumerate(workloads):
            order = ("parent", "head") if i % 2 == 0 else ("head", "parent")
            got = {s: _run_perfbench(sides[s], workload, 1, seconds, 1) for s in order}
            report["per_layer"][workload] = per_layer_record(
                got["parent"], got["head"], layers, order[0])
        verdicts = {"parent": [], "head": []}
        for i in range(args.criterion6):
            for s in ("parent", "head") if i % 2 == 0 else ("head", "parent"):
                verdicts[s].append(_run_criterion6(sides[s]))
        report["criterion6"] = {s: criterion6_record(v) for s, v in verdicts.items()}
        report["opcodes"] = {s: _run_opcodes(sides[s]) for s in ("parent", "head")}
    report["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    prior = last_committed_bench(root, skip=Path(args.out).name)
    against = prior_deltas(report, prior[1]) if prior else {}
    for workload, record in report["workloads"].items():
        for name, m in record["metrics"].items():
            delta = "n/a" if m["delta"] is None else f"{m['delta']:+.1%}"
            line = (f"{workload:<13} {name:<17} parent {m['parent']['median']:>12.4g} "
                    f"head {m['head']['median']:>12.4g} delta {delta} "
                    f"wins {m['wins']}/{len(m['pairs'])}")
            if claim_holds(m):
                line += " claim holds"
            if prior:
                was = against[workload][name]
                line += f" vs {prior[0]} head " + ("n/a" if was is None else f"{was:+.1%}")
            print(line)
    for workload, record in report["per_layer"].items():
        for name, m in record["metrics"].items():
            delta = "n/a" if m["delta"] is None else f"{m['delta']:+.1%}"
            print(f"{workload:<13} traced {name:<36} parent {m['parent']:>12.4g} "
                  f"head {m['head']:>12.4g} delta {delta}")
    for s, record in report.get("criterion6", {}).items():
        line = f"criterion 6 {s}: {record['passed']}/{record['runs']} passed"
        if record["median_ratio"] is not None:
            line += (f", median cached {record['cached_ns_median']:.0f} ns, uncached "
                     f"{record['nocache_ns_median']:.0f} ns, ratio {record['median_ratio']:.4f}")
        print(line)
    for s, counts in report["opcodes"].items():
        print(f"opcodes {s}: " + ", ".join(f"{k} {n}" for k, n in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
