"""tools/bench_pairs.py on canned perfbench output; perfbench itself never runs."""

import importlib.util
import json
import subprocess
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


def test_criterion6_verdict_needs_the_line():
    with pytest.raises(ValueError):
        bench_pairs.criterion6_verdict("ERROR collecting tests/test_acceptance.py\n")


def test_benchmark_spec_is_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads, seconds, better = bench_pairs.benchmark_spec(ROOT)
    assert workloads == [w["name"] for w in spec["workloads"]]
    assert seconds == spec["run_seconds"]
    assert better == {m["name"]: m["better"] for m in spec["end_to_end"]}


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
