"""Alternating parent/HEAD benchmark pairs, written to one BENCH_<n>.json.

    python3 tools/bench_pairs.py --out BENCH_7.json --seeds 10 --criterion6 10

Checks the parent commit out into a temporary ``git worktree`` and runs
``perfbench/run.py --trace 0`` there and in this checkout, alternating which
side runs first, for each workload over seeds 1..N. It reads the JSON last
line of every run. For each end-to-end metric it records the paired values,
each side's median, q1 and q3, the change's relative median delta and how
many pairs the change won (ties count for neither side).

The workloads and the run length are BENCHMARK.json's. The script also
runs criterion 6's own test (``pytest tests/test_acceptance.py -k
criterion_06``) K times per side, alternating, each in a fresh process, and
records the verdict line it prints: pass or fail, the cached/uncached ratio
and the additivity. These are pass counts for the record, not a gate. Paired, order-alternated runs follow Kalibera & Jones,
"Rigorous Benchmarking in Reasonable Time" (ISMM 2013). Standard library
only; run it from a checkout of the change.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CRITERION6_TEST = ["-m", "pytest", "tests/test_acceptance.py", "-k", "criterion_06",
                   "-s", "-q", "-p", "no:cacheprovider"]
# the verdict line tests/test_acceptance.py prints for criterion 6
CRITERION6_LINE = re.compile(
    r"criterion +6 \[(PASS|FAIL)\].*?ordering=(True|False), "
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


def criterion6_verdict(stdout: str) -> dict:
    """The verdict criterion 6's test printed, read from the test run's output."""
    for line in stdout.splitlines():
        found = CRITERION6_LINE.search(line)
        if found:
            verdict, ordering, ratio, additive = found.groups()
            return {
                "passed": verdict == "PASS",
                "ordering": ordering == "True",
                "ratio": float(ratio),
                "additivity": float(additive),
                "line": line.strip(),
            }
    raise ValueError(f"no criterion 6 verdict line in:\n{stdout[-2000:]}")


def criterion6_record(verdicts: list[dict]) -> dict:
    return {
        "runs": len(verdicts),
        "passed": sum(1 for v in verdicts if v["passed"]),
        "ratios": [v["ratio"] for v in verdicts],
        "verdicts": verdicts,
    }


def _git(*args: str, cwd: Path) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def _run(cmd: list[str], root: Path, env=None) -> str:
    """A fresh process's stdout; its stderr is shown when it printed nothing."""
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if not done.stdout.strip():
        raise RuntimeError(f"{' '.join(cmd)} in {root} failed:\n{done.stderr[-2000:]}")
    return done.stdout


def _run_perfbench(root: Path, workload: str, seed: int, seconds: int) -> dict:
    # a run whose output checks fail exits non-zero but still prints its result
    return parse_result(_run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"], root))


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


def benchmark_spec(root: Path) -> tuple[list[str], int, dict]:
    """BENCHMARK.json's workload names, run seconds and, per end-to-end
    metric, "higher" or "lower"."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        [w["name"] for w in spec["workloads"]],
        spec["run_seconds"],
        {m["name"]: m["better"] for m in spec["end_to_end"]},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--parent", default="HEAD~1", help="commit to compare against")
    parser.add_argument("--seeds", type=int, default=10, help="pairs per workload")
    parser.add_argument("--criterion6", type=int, default=10, help="runs per side")
    parser.add_argument("--tmp", default=None, help="where to put the worktree")
    args = parser.parse_args(argv)
    if args.seeds < 1 or args.criterion6 < 0:
        parser.error("--seeds must be at least 1, --criterion6 at least 0")

    root = Path(_git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    workloads, seconds, better = benchmark_spec(root)
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
    }
    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        parent_root = Path(tmp) / "parent"
        _git("worktree", "add", "--detach", str(parent_root), report["parent"], cwd=root)
        try:
            sides = {"parent": parent_root, "head": root}
            for workload in workloads:
                runs = []
                for i, seed in enumerate(report["settings"]["seeds"]):
                    order = ("parent", "head") if i % 2 == 0 else ("head", "parent")
                    got = {s: _run_perfbench(sides[s], workload, seed, seconds)
                           for s in order}
                    runs.append((got["parent"], got["head"]))
                    print(f"{workload} seed {seed}: " + ", ".join(
                        f"{s} {got[s]['metrics']['throughput_ops_s']['value']:.1f} ops/s"
                        for s in order), file=sys.stderr)
                report["workloads"][workload] = workload_record(runs, better)
            verdicts = {"parent": [], "head": []}
            for i in range(args.criterion6):
                for s in ("parent", "head") if i % 2 == 0 else ("head", "parent"):
                    verdicts[s].append(_run_criterion6(sides[s]))
            report["criterion6"] = {s: criterion6_record(v) for s, v in verdicts.items()}
        finally:
            _git("worktree", "remove", "--force", str(parent_root), cwd=root)
    report["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, record in report["workloads"].items():
        for name, m in record["metrics"].items():
            delta = "n/a" if m["delta"] is None else f"{m['delta']:+.1%}"
            print(f"{workload:<13} {name:<17} parent {m['parent']['median']:>12.4g} "
                  f"head {m['head']['median']:>12.4g} delta {delta} "
                  f"wins {m['wins']}/{len(m['pairs'])}")
    for s, record in report.get("criterion6", {}).items():
        print(f"criterion 6 {s}: {record['passed']}/{record['runs']} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
