"""tools/bench_pairs.py on canned perfbench output; perfbench itself never runs.

The bytecode counts the script records run here on this checkout, as the
guardrail on the cached call's length.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DIRECTIONS = {
    "throughput_ops_s": "higher",
    "latency_p50_us": "lower",
    "setup_s": "lower",
}


def _canned(throughput, p50, setup, correct=True, failed=0):
    """perfbench's stdout: human-readable lines, then the one-line JSON result."""
    line = {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "throughput_ops_s": {"value": throughput, "unit": "ops/s"},
            "latency_p50_us": {"value": p50, "unit": "us"},
            "setup_s": {"value": setup, "unit": "s"},
        },
    }
    return f"workload match_cold  seed 1  trace 0\n  host.seed = 1\n{json.dumps(line)}\n"


def test_parse_result_reads_the_last_line():
    result = bench_pairs.parse_result(_canned(5000.0, 100.0, 0.5))
    assert result["correct"] is True
    assert result["metrics"]["throughput_ops_s"]["value"] == 5000.0
    with pytest.raises(ValueError):
        bench_pairs.parse_result('{"metrics": {}}\n')
    with pytest.raises(ValueError):
        bench_pairs.parse_result("\n")


def test_workload_record_schema_and_win_counts():
    runs = [
        (
            bench_pairs.parse_result(_canned(5000.0 + i, 100.0, 0.5)),
            bench_pairs.parse_result(
                _canned(7000.0 + i, 90.0 if i else 100.0, 0.1, correct=i != 2, failed=i == 2)
            ),
        )
        for i in range(4)
    ]
    record = bench_pairs.workload_record(runs, {**DIRECTIONS, "peak_rss_mb": "lower"})
    assert record["runs"] == 4
    assert record["correct"] == {"parent": [True] * 4, "head": [True, True, False, True]}
    assert record["failed_of_attempted"] == {"parent": [0, 400], "head": [1, 400]}
    # a metric no run reported is left out
    assert set(record["metrics"]) == set(DIRECTIONS)
    for m in record["metrics"].values():
        assert set(m) == {"better", "pairs", "parent", "head", "delta", "wins", "losses"}
        assert len(m["pairs"]) == 4
        for side in ("parent", "head"):
            assert set(m[side]) == {"median", "q1", "q3"}
            assert m[side]["q1"] <= m[side]["median"] <= m[side]["q3"]
    through = record["metrics"]["throughput_ops_s"]
    assert (through["wins"], through["losses"]) == (4, 0)
    assert through["parent"]["median"] == 5001.5
    assert through["delta"] == pytest.approx(2000.0 / 5001.5)
    # lower is better; the tied first pair counts for neither side
    p50 = record["metrics"]["latency_p50_us"]
    assert (p50["wins"], p50["losses"]) == (3, 0)
    assert record["metrics"]["setup_s"]["delta"] == pytest.approx(-0.8)


def test_single_pair_quartiles_collapse_to_the_value():
    assert bench_pairs.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}


def _claim(parent, head, better="lower"):
    return bench_pairs.claim_holds(bench_pairs.summarise(list(zip(parent, head)), better))


def test_a_claim_needs_nine_of_ten_pairs_and_a_gain_past_the_parents_spread():
    parent = [50.0 + 0.1 * i for i in range(10)]  # quartiles 50.225 and 50.675
    lower = [p - 4.0 for p in parent]
    assert _claim(parent, lower)
    assert not _claim(parent, lower, better="higher")
    assert _claim(lower, parent, better="higher")
    # one lost pair still leaves nine wins in ten; two leave eight
    assert _claim(parent, [51.0] + lower[1:])
    assert not _claim(parent, [51.0, 52.0] + lower[2:])
    # a tie counts for neither side but still counts as a pair run
    assert _claim(parent, parent[:1] + lower[1:])
    assert not _claim(parent, parent[:2] + lower[2:])
    # every pair won, but by less than the parent's own spread (IQR 45)
    spread = [10.0 * i for i in range(1, 11)]
    assert not _claim(spread, [p - 1.0 for p in spread])
    assert _claim(spread, [p - 60.0 for p in spread])


def _canned_traced(layers, correct=True):
    """perfbench --trace 1 stdout: the per-layer metrics in the last line."""
    line = {"correct": correct, "attempted": 10, "failed": 0,
            "metrics": {k: {"value": v, "unit": "us"} for k, v in layers.items()}}
    return f"workload imaging  seed 1  trace 1\n{json.dumps(line)}\n"


def test_per_layer_record_pairs_each_traced_metric():
    parent = bench_pairs.parse_result(_canned_traced(
        {"matcher.request_us": 4.0, "stdlib.gauss_ms": 2.0, "matcher.cache_hits": 0}))
    head = bench_pairs.parse_result(_canned_traced(
        {"matcher.request_us": 3.0, "stdlib.gauss_ms": 2.5, "matcher.cache_hits": 7,
         "runtime.frame_us": 0.1}, correct=False))
    directions = {"matcher.request_us": "lower", "stdlib.gauss_ms": "lower",
                  "matcher.cache_hits": "higher", "runtime.frame_us": "lower",
                  "cli.run_ms": "lower"}
    record = bench_pairs.per_layer_record(parent, head, directions, "head")
    assert record["first"] == "head"
    assert record["correct"] == {"parent": True, "head": False}
    # a metric only one side or neither side reported is left out
    assert set(record["metrics"]) == {"matcher.request_us", "stdlib.gauss_ms",
                                      "matcher.cache_hits"}
    assert record["metrics"]["matcher.request_us"] == {
        "better": "lower", "parent": 4.0, "head": 3.0, "delta": pytest.approx(-0.25)}
    assert record["metrics"]["stdlib.gauss_ms"]["delta"] == pytest.approx(0.25)
    # a zero parent value has no relative delta
    assert record["metrics"]["matcher.cache_hits"]["delta"] is None


def test_per_layer_spec_is_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert bench_pairs.per_layer_spec(ROOT) == {
        m["name"]: m["better"] for m in spec["per_layer"]}


def _criterion6_output(verdict, ordering, ratio, additive):
    """pytest -s -q output of criterion 6's test around its verdict line."""
    line = (
        f"criterion  6 [{verdict}] overhead ordering, cache factor 10, additivity: "
        f"static=900 cached=2400 nocache=24000 adapted=60000 converted=170000 "
        f"both=190000 ns; ordering={ordering}, cached/nocache={ratio} (need <=0.10), "
        f"additivity={additive} in [0.5,1.5]=True; paper reference ~1us static / "
        f"~3us cached / ~100us matched, not asserted"
    )
    return f"{line}\n.\n1 passed, 10 deselected in 31.20s\n"


@pytest.mark.parametrize(
    "verdict, ordering, ratio, additive",
    [("PASS", "True", "0.06", "0.85"), ("FAIL", "False", "0.12", "1.02")],
)
def test_criterion6_verdict_reads_the_printed_line(verdict, ordering, ratio, additive):
    got = bench_pairs.criterion6_verdict(_criterion6_output(verdict, ordering, ratio, additive))
    assert got["passed"] is (verdict == "PASS")
    assert got["ordering"] is (ordering == "True")
    assert (got["ratio"], got["additivity"]) == (float(ratio), float(additive))
    assert got["line"].startswith("criterion  6 [")
    record = bench_pairs.criterion6_record([got, got])
    assert record["runs"] == 2 and record["passed"] == 2 * got["passed"]
    assert record["ratios"] == [float(ratio)] * 2


def test_criterion6_record_takes_the_medians_of_the_printed_means():
    # a failing 0.104 prints as 0.10; the record's ratio comes from the ns
    runs = [(2500, 24000, "FAIL"), (2000, 25000, "PASS"), (2600, 25000, "FAIL")]
    verdicts = [
        bench_pairs.criterion6_verdict(
            _criterion6_output(verdict, "True", f"{c / n:.2f}", "0.85")
            .replace("cached=2400 nocache=24000", f"cached={c} nocache={n}"))
        for c, n, verdict in runs
    ]
    assert [(v["cached_ns"], v["nocache_ns"]) for v in verdicts] == [(c, n) for c, n, _ in runs]
    assert verdicts[0]["ratio"] == 0.10
    record = bench_pairs.criterion6_record(verdicts)
    assert record["passed"] == 1
    assert (record["cached_ns_median"], record["nocache_ns_median"]) == (2500, 25000)
    assert record["median_ratio"] == pytest.approx(0.1)
    assert bench_pairs.criterion6_record([])["median_ratio"] is None


def test_criterion6_verdict_needs_the_line():
    with pytest.raises(ValueError):
        bench_pairs.criterion6_verdict("ERROR collecting tests/test_acceptance.py\n")


def test_benchmark_spec_is_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads, seconds, better = bench_pairs.benchmark_spec(ROOT)
    assert workloads == [w["name"] for w in spec["workloads"]]
    assert seconds == spec["run_seconds"]
    assert better == {m["name"]: m["better"] for m in spec["end_to_end"]}


BUILD_STAGES = {f"stdlib_build.{stage}" for stage in (
    "json_loads", "read_document", "environment_init", "matcher_tables",
    "name_rows", "fixed_dependencies", "other")}


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_files_follow_the_schema(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    assert {"parent", "head", "host", "settings", "workloads", "criterion6"} <= set(report)
    for record in report["workloads"].values():
        assert record["runs"] == len(report["settings"]["seeds"])
        for m in record["metrics"].values():
            assert len(m["pairs"]) == record["runs"]
            assert {"median", "q1", "q3"} <= set(m["parent"]) & set(m["head"])
    for side in ("parent", "head"):
        assert report["criterion6"][side]["runs"] == report["settings"]["criterion6_runs"]
    # the traced pair per workload; reports before BENCH_10.json have none
    for record in report.get("per_layer", {}).values():
        assert record["first"] in ("parent", "head")
        for m in record["metrics"].values():
            assert {"better", "parent", "head", "delta"} <= set(m)
    # bytecode counts per side; reports before BENCH_13.json have none
    for side, counts in report.get("opcodes", {}).items():
        assert side in ("parent", "head")
        # the third count, sub_handle, since BENCH_16.json, the uncached
        # mutate() beside them since BENCH_22.json, the uncached dog match
        # since BENCH_23.json, one stdlib build since BENCH_36.json, its
        # stages and the synthetic build since BENCH_40.json, and the
        # name_rows stage and every name's rows since BENCH_42.json
        assert {"increment_mutate", "add_apply"} <= set(counts)
        number = int(bench_pairs.BENCH_NAME.fullmatch(path.name).group(1))
        if number >= 36:
            assert "stdlib_build" in counts
        if number >= 40:
            assert BUILD_STAGES - {"stdlib_build.name_rows"} | {"synth_build"} <= set(counts)
        if number >= 42 and side == "head":
            assert {"stdlib_build.name_rows", "stdlib_rows_all"} <= set(counts)
        assert set(counts) <= {"increment_mutate", "add_apply", "sub_handle",
                               "increment_mutate_uncached", "dog_match_uncached",
                               "stdlib_build", "stdlib_rows_all",
                               "synth_build"} | BUILD_STAGES
        assert all(isinstance(n, int) and n > 0 for n in counts.values())


def _report(medians):
    """A BENCH report whose head medians are ``{workload: {metric: median}}``."""
    return {
        "workloads": {
            w: {"metrics": {m: {"head": {"median": v}} for m, v in ms.items()}}
            for w, ms in medians.items()
        }
    }


def test_prior_deltas_compare_head_medians_with_the_last_report():
    prior = _report({"dispatch_hot": {"peak_rss_mb": 200.0, "setup_s": 0.0},
                     "imaging": {"throughput_ops_s": 4000.0}})
    now = _report({"dispatch_hot": {"peak_rss_mb": 120.0, "setup_s": 0.1,
                                    "latency_p50_us": 5.0},
                   "match_cold": {"throughput_ops_s": 6000.0}})
    deltas = bench_pairs.prior_deltas(now, prior)
    assert deltas["dispatch_hot"]["peak_rss_mb"] == pytest.approx(-0.4)
    # a zero or missing prior median, or a workload the prior never ran, gives None
    assert deltas["dispatch_hot"]["setup_s"] is None
    assert deltas["dispatch_hot"]["latency_p50_us"] is None
    assert deltas["match_cold"]["throughput_ops_s"] is None
    assert set(deltas) == {"dispatch_hot", "match_cold"}


def test_last_committed_bench_is_the_highest_number_at_head(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    for name, median in (("BENCH_2.json", 2.0), ("BENCH_10.json", 10.0),
                         ("BENCH_x.json", 0.0)):
        (tmp_path / name).write_text(json.dumps(_report({"w": {"m": median}})))
    git("add", ".")
    git("commit", "-q", "-m", "reports")
    # written but not committed: never read
    (tmp_path / "BENCH_11.json").write_text(json.dumps(_report({"w": {"m": 11.0}})))
    name, report = bench_pairs.last_committed_bench(tmp_path, skip="BENCH_11.json")
    assert name == "BENCH_10.json"
    assert report["workloads"]["w"]["metrics"]["m"]["head"]["median"] == 10.0
    assert bench_pairs.last_committed_bench(tmp_path, skip="BENCH_10.json")[0] == "BENCH_2.json"
    # the parent side runs from the committed tree alone
    dest = tmp_path / "parent"
    bench_pairs._export(tmp_path, "HEAD", dest)
    assert sorted(p.name for p in dest.iterdir()) == ["BENCH_10.json", "BENCH_2.json",
                                                     "BENCH_x.json"]


def test_the_head_side_is_the_working_trees_tracked_files(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                       cwd=repo, check=True, capture_output=True)

    (repo / "a.py").write_text("committed\n")
    (repo / "b.py").write_text("committed\n")
    for args in (("init", "-q"), ("add", "."), ("commit", "-q", "-m", "tree")):
        git(*args)
    clean = tmp_path / "clean"
    bench_pairs._export_worktree(repo, clean)
    assert sorted(p.name for p in clean.iterdir()) == ["a.py", "b.py"]
    (repo / "a.py").write_text("changed\n")
    (repo / "b.py").write_text("staged\n")
    git("add", "b.py")
    (repo / "new.py").write_text("untracked\n")
    dirty = tmp_path / "dirty"
    bench_pairs._export_worktree(repo, dirty)
    assert sorted(p.name for p in dirty.iterdir()) == ["a.py", "b.py"]
    assert (dirty / "a.py").read_text() == "changed\n"
    assert (dirty / "b.py").read_text() == "staged\n"
    # the checkout itself is left as it was
    assert (repo / "a.py").read_text() == "changed\n"
    assert (repo / "new.py").exists()


def test_export_runs_without_extraction_filters(tmp_path, monkeypatch):
    # Python before 3.10.12 / 3.11.4 has no tarfile.data_filter and no
    # ``filter`` keyword on extractall
    monkeypatch.delattr(bench_pairs.tarfile, "data_filter")
    repo = tmp_path / "repo"
    (repo / "tools").mkdir(parents=True)
    (repo / "tools" / "run.py").write_text("print(1)\n")
    for args in (("init", "-q"), ("add", "."), ("commit", "-q", "-m", "tree")):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                       cwd=repo, check=True, capture_output=True)
    dest = tmp_path / "tree"
    bench_pairs._export(repo, "HEAD", dest)
    assert (dest / "tools" / "run.py").read_text() == "print(1)\n"


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the bounds are CPython 3.11 bytecode counts",
)
def test_cached_calls_stay_within_their_bytecode_counts():
    counts = bench_pairs.dispatch_opcodes()
    # ROADMAP's guardrail for the cached mutate(); the raw-int apply() is
    # pinned at its count since wrap's exact-type table (436 before it), and
    # the array handle since the table took array payloads (575 before).
    # All three fell by 10 when history records moved onto the values
    # (179, 310 and 397 before), and again when payloads, not Values, went
    # from the caller to the body (169, 300 and 387 before), and by 7 when
    # the history stopped logging records and only counts them (159, 236
    # and 342 before), and by 5 when a record took its tick in place of a
    # clock reading (152, 229 and 335 before). The builder terminals fell
    # again when they stopped testing cache_enabled and mutate() unpacked
    # its one staged input (147 and 224 before).
    assert counts["increment_mutate"] <= 135
    assert counts["add_apply"] <= 221
    assert counts["sub_handle"] <= 330
    # criterion 6's uncached call is reported beside them, not pinned: it
    # matches and compiles, so it runs several times the cached count
    assert counts["increment_mutate_uncached"] > 4 * counts["increment_mutate"]
    # so is the uncached filter.dog match, whose dependency plans are
    # resolved at build (4,641 bytecodes when each match resolved them)
    assert counts["dog_match_uncached"] > 0
    # and so is one default_environment() build, which reads every entry
    assert counts["stdlib_build"] > counts["dog_match_uncached"]


def test_the_stdlib_build_counts_alike_at_two_checkout_depths(tmp_path):
    # the same tree, copied to two depths, must count the same build
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import bench_pairs; "
              "print(bench_pairs.stdlib_build_opcodes())")
    counts = []
    for root in (tmp_path / "a", tmp_path.joinpath("a", "b", "c", "d", "e", "f", "g", "h")):
        shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "-c", script, str(ROOT / "tools")],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True, text=True, check=True, timeout=300,
        )
        counts.append(int(done.stdout.splitlines()[-1]))
    assert counts[0] == counts[1] > 0


def test_the_build_stages_add_up_to_the_build_and_both_builds_repeat():
    counts = bench_pairs.build_opcodes()
    assert set(counts) == {"stdlib_build", "stdlib_rows_all", "synth_build"} | BUILD_STAGES
    assert sum(counts[stage] for stage in BUILD_STAGES) == counts["stdlib_build"]
    assert all(counts[stage] > 0 for stage in BUILD_STAGES)
    # the fixed dependency plans build the rows of two names at build; every
    # name's rows take more than that
    assert counts["stdlib_rows_all"] > counts["stdlib_build.name_rows"]
    # the synthetic build reads ten times the entries, through the YAML walk
    assert counts["synth_build"] > 10 * counts["stdlib_build"]
    assert bench_pairs.build_opcodes() == counts


def test_stages_count_to_the_innermost_listed_function():
    def inner():
        return len([1, 2, 3])

    def outer():
        inner()
        return inner()

    def call():
        outer()
        inner()

    total = bench_pairs.count_opcodes(call)
    split = bench_pairs.count_opcodes_by_stage(call, {outer: "outer", inner: "inner"})
    assert sum(split.values()) == total
    assert split["other"] == 0
    # inner runs three times, twice inside outer
    once = bench_pairs.count_opcodes_by_stage(lambda: inner(), {inner: "inner"})
    assert once == {"inner": bench_pairs.count_opcodes(lambda: inner()), "other": 0}
    assert split["inner"] == 3 * once["inner"]
    assert split["outer"] == total - split["inner"] > 0


def test_count_opcodes_leaves_out_the_callers_frame():
    def add_one(x):
        return x + 1

    assert bench_pairs.count_opcodes(lambda: None) == 0
    assert bench_pairs.count_opcodes(lambda: len(())) == 0
    assert bench_pairs.count_opcodes(lambda: add_one(1)) > 0
