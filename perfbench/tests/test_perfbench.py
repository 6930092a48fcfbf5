"""The benchmark's own tests: output contract, seed determinism, checks trip.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (ROOT / "src", BENCH):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import harness  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def one_setup(monkeypatch):
    """In-process runs build their environment once instead of timing many builds."""
    monkeypatch.setattr(harness, "SETUP_REPS", dict.fromkeys(harness.SETUP_REPS, 1))


def _run_cli(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_present_with_units(workload):
    proc = _run_cli(workload, 0)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(v["value"] > 0 for v in line["metrics"].values())
    # error_ratio and every sample count are in the human-readable report
    assert "error_ratio" in proc.stdout and " n=" in proc.stdout


def test_per_layer_metrics_present_with_units():
    proc = _run_cli("dispatch_hot", 1)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_cli("dispatch_hot", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("cls", [workloads.DispatchHot, workloads.MatchCold, workloads.Imaging])
def test_same_seed_same_stream(cls):
    a, b, c = cls(5, 0.1), cls(5, 0.1), cls(6, 0.1)
    assert (a.kinds, a.idxs) == (b.kinds, b.idxs)
    assert (a.kinds, a.idxs) != (c.kinds, c.idxs)
    assert [op.label for op in a.ops] == [op.label for op in b.ops]


def test_same_seed_same_registry():
    hashes = []
    for seed in (5, 5, 6):
        w = workloads.MatchCold(seed, 0.1)
        w.write_inputs()
        try:
            env = w.environment()
        finally:
            w.remove_inputs()
        assert len(env.infos) == 540
        assert not [i for i in env.infos if i.name.startswith("synth.") and "engine." in " ".join(i.names)]
        hashes.append(env.content_hash)
    assert hashes[0] == hashes[1] != hashes[2]


def _wrong_sub(a, b):
    return float(a - b + 1.0)


def _add_no_wrap(a, b):
    return a + b


def _increment_twice(data):
    data[0] = (data[0] + 2) & 0xFF
    return data


@pytest.mark.parametrize(
    "workload, overrides",
    [
        ("imaging", {"builtin:math/sub_reals": _wrong_sub}),
        ("match_cold", {"builtin:math/sub_reals": _wrong_sub}),
        ("dispatch_hot", {"builtin:math/add_ints": _add_no_wrap}),
        ("dispatch_hot", {"builtin:benchmark/increment_u8": _increment_twice}),
    ],
)
def test_wrong_body_trips_the_checks(workload, overrides, capsys, one_setup):
    record, code = harness.run(workload, 1, 0.05, 0, 0.0, overrides)
    assert record["error_ratio"] > 0
    assert code != 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is False


def test_wrong_near_miss_lines_trip_the_checks(monkeypatch, capsys, one_setup):
    row = dict(reference.PLAN_TABLE["miss_gauss_flag"])
    row["near_misses"] = row["near_misses"][:1]
    monkeypatch.setitem(reference.PLAN_TABLE, "miss_gauss_flag", row)
    record, code = harness.run("match_cold", 1, 0.05, 0, 0.0)
    assert record["failed"] > 0 and code != 0


def test_wrong_history_signature_trips_the_checks(monkeypatch, capsys, one_setup):
    monkeypatch.setitem(reference.HOT_SIGNATURES, "sum", "legacy:stats/sum|ADAPTED|[]|()")
    record, code = harness.run("dispatch_hot", 1, 0.05, 0, 0.0)
    assert record["failed"] > 0 and code != 0


def test_rounds_on_fresh_environments_stay_correct(monkeypatch, capsys, one_setup):
    monkeypatch.setattr(workloads.DispatchHot, "ROUND", 400)
    w = workloads.DispatchHot(1, 0.05)
    assert len(w.fresh_env) > 2
    record, code = harness.run("dispatch_hot", 1, 0.05, 0, 0.0)
    assert code == 0 and record["failed"] == 0
    assert record["notes"]["environments"] == 1 + len(w.fresh_env)


def test_chunks_hold_equal_work():
    for cls in (workloads.DispatchHot, workloads.MatchCold, workloads.Imaging):
        w = cls(4, 0.5)
        mixes = {tuple(sorted(w.kinds[a:b])) for a, b in w.chunks}
        assert len(mixes) == 1, cls.name
        assert w.chunks[-1][1] == len(w.kinds) == w.n_warmup + w.n_timed


def test_imaging_median_falls_inside_the_gauss64_cluster():
    w = workloads.Imaging(4, 0.5)
    labels = [w.ops[k].label for k in w.kinds[w.n_warmup:]]
    below = sum(label in ("sub@32", "gauss@32", "gauss_u8@32") for label in labels)
    middle = sum(label in ("gauss@64", "gauss_u8@64") for label in labels)
    assert 2 * below + middle == len(labels)
    assert middle > len(labels) / 8


def test_self_times_add_up_to_the_root():
    s = spans.Spans()
    s.open("root")
    s.open("a")
    s.open("a.child")
    s.close()
    s.close()
    s.open("b")
    s.close()
    s.close()
    dur, own = s.durations(), s.self_times()
    assert sum(own) == dur[0]
    assert own[1] == dur[1] - dur[2]
