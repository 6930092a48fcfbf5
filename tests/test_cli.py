"""End-to-end command line behavior: exit codes, stream separation, flows."""

import json
import textwrap

import pytest
import yaml

from opsforge.cli import main

IMG4 = json.dumps({"w": 4, "h": 4, "data": [float(i) for i in range(16)]})
IMG4_U8 = json.dumps({"w": 4, "h": 4, "data": list(range(16))})

TAGGED = textwrap.dedent(
    """\
    /**
     * Copies a byte array into a preallocated buffer.
     * @implNote op names='copy.array'
     * @input src ByteArray bytes to copy
     * @container dst ByteArray receives the bytes
     */
    """
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- list -----------------------------------------------------------------------


def test_list_all_names_sorted_with_legacy(capsys):
    code, out, err = run(capsys, "list")
    names = out.splitlines()
    assert code == 0
    assert err == ""
    assert names == sorted(names)
    assert "math.add" in names
    assert "stats.sum" in names


def test_list_namespace_filter(capsys):
    code, out, _ = run(capsys, "list", "math")
    assert code == 0
    assert out.splitlines() == ["math.add", "math.div", "math.mul", "math.sub"]


def test_list_unknown_namespace_empty(capsys):
    code, out, _ = run(capsys, "list", "zzz")
    assert code == 0
    assert out == ""


def test_list_prefix_must_align_with_dots(capsys):
    _, out, _ = run(capsys, "list", "mat")
    assert out == ""


# -- help -----------------------------------------------------------------------


def test_help_uses_plain_type_words(capsys):
    code, out, _ = run(capsys, "help", "filter.gauss")
    assert code == 0
    assert "image" in out
    assert "ImageF64" not in out


def test_help_verbose_includes_source_and_priority(capsys):
    code, out, _ = run(capsys, "help", "math.add", "--verbose")
    assert code == 0
    assert "builtin:math/add_ints" in out
    assert "priority" in out


def test_help_unknown_suggests_and_exits_zero(capsys):
    code, out, _ = run(capsys, "help", "math.ad")
    assert code == 0
    assert "No ops found matching" in out
    assert "math.add" in out


# -- run ------------------------------------------------------------------------


def test_run_add(capsys):
    code, out, err = run(capsys, "run", "math.add", "--in", "Integer:2", "--in", "Integer:3")
    assert code == 0
    assert json.loads(out) == {"type": "Integer", "value": 5}
    assert err == ""


def test_run_dog_with_trace(capsys):
    code, out, err = run(
        capsys,
        "--trace",
        "run",
        "filter.dog",
        "--in",
        f"ImageF64:{IMG4}",
        "--in",
        "Real:1.0",
        "--in",
        "Real:2.0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "ImageF64"
    assert payload["value"]["w"] == 4
    signature_lines = [l for l in err.splitlines() if l.startswith("signature:")]
    assert len(signature_lines) == 1
    assert signature_lines[0].count("filter/gauss") == 2
    assert "math/sub" in signature_lines[0]


def test_run_gauss_on_u8_goes_through_conversion(capsys):
    code, out, err = run(
        capsys,
        "--trace",
        "run",
        "filter.gauss",
        "--in",
        f"ImageU8:{IMG4_U8}",
        "--in",
        "Real:1.0",
    )
    assert code == 0
    assert json.loads(out)["type"]
    routine = next(l for l in err.splitlines() if l.startswith("routine:"))
    assert "CONVERTED" in routine


def test_run_computer_kind(capsys):
    code, out, _ = run(
        capsys,
        "run",
        "copy.array",
        "--kind",
        "computer",
        "--in",
        "ByteArray:[1,2,3]",
        "--container",
        "ByteArray:[0,0,0]",
    )
    assert code == 0
    assert json.loads(out) == {"type": "ByteArray", "value": [1, 2, 3]}


def test_run_inplace_kind(capsys):
    code, out, _ = run(
        capsys,
        "run",
        "benchmark.increment",
        "--kind",
        "inplace",
        "--in",
        "ByteArray:[5,9]",
    )
    assert code == 0
    assert json.loads(out) == {"type": "ByteArray", "value": [6, 9]}


@pytest.mark.parametrize("pixel", ['"x"', "true"])
def test_run_bad_image_f64_pixel_exits_2(capsys, pixel):
    code, out, err = run(
        capsys,
        "run",
        "filter.gauss",
        "--in",
        f'ImageF64:{{"w":1,"h":1,"data":[{pixel}]}}',
        "--in",
        "Real:1.0",
    )
    assert code == 2
    assert out == ""
    assert "ImageF64 wants pixel numbers" in err


def test_run_no_match_exits_3_with_near_misses(capsys):
    code, out, err = run(
        capsys, "run", "math.add", "--in", "Integer:2", "--in", 'Text:"x"'
    )
    assert code == 3
    assert out == ""
    assert "no op matches" in err
    assert " :: " in err


def test_run_execution_failure_exits_4(capsys):
    code, out, err = run(
        capsys,
        "run",
        "filter.fft",
        "--in",
        f"ImageF64:{IMG4}",
        "--in",
        'Text:"forward"',
    )
    assert code == 4
    assert out == ""
    assert "signature:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "math.add", "--in", "Integer:nope"),
        ("run", "math.add", "--in", "List<:1"),
        ("run", "math.add", "--in", "no-colon"),
        ("run", "copy.array", "--kind", "computer", "--in", "ByteArray:[1]"),
        ("run", "benchmark.increment", "--kind", "inplace"),
        ("run", "benchmark.increment", "--kind", "inplace", "--in", "ByteArray:[1]", "--mutable", "4"),
    ],
)
def test_run_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


# -- descriptor paths -------------------------------------------------------------


def test_descriptors_flag_replaces_legacy(capsys, tmp_path):
    empty = tmp_path / "empty.yaml"
    empty.write_text("ops: []\n", encoding="utf-8")
    code, _, _ = run(
        capsys,
        "--descriptors",
        str(empty),
        "run",
        "stats.sum",
        "--in",
        "RealArray:[1.0,2.0]",
    )
    assert code == 3
    code, out, _ = run(
        capsys,
        "--descriptors",
        str(empty),
        "run",
        "math.add",
        "--in",
        "Integer:1",
        "--in",
        "Integer:2",
    )
    assert code == 0
    assert json.loads(out)["value"] == 3


def test_opsforge_path_env_var(capsys, tmp_path, monkeypatch):
    extra = tmp_path / "extra.yaml"
    extra.write_text(
        textwrap.dedent(
            """\
            ops:
              - name: custom.op
                source: custom:one
                parameters:
                  - {name: x, type: Integer, io: input}
                  - {name: out, type: Integer, io: output}
            """
        ),
        encoding="utf-8",
    )
    monkeypatch.setenv("OPSFORGE_PATH", str(extra))
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "custom.op" in out.splitlines()
    assert "stats.sum" not in out.splitlines()


def test_descriptors_flag_wins_over_env(capsys, tmp_path, monkeypatch):
    env_file = tmp_path / "env.yaml"
    env_file.write_text(
        "ops:\n  - name: env.op\n    source: env:one\n    parameters:\n"
        "      - {name: x, type: Integer, io: input}\n"
        "      - {name: out, type: Integer, io: output}\n",
        encoding="utf-8",
    )
    flag_file = tmp_path / "flag.yaml"
    flag_file.write_text("ops: []\n", encoding="utf-8")
    monkeypatch.setenv("OPSFORGE_PATH", str(env_file))
    code, out, _ = run(capsys, "--descriptors", str(flag_file), "list")
    assert code == 0
    assert "env.op" not in out.splitlines()


# -- index ----------------------------------------------------------------------


def test_index_to_stdout(capsys, tmp_path):
    (tmp_path / "demo.java").write_text(TAGGED, encoding="utf-8")
    code, out, err = run(capsys, "index", str(tmp_path))
    assert code == 0
    assert err == ""
    doc = yaml.safe_load(out)
    assert doc["ops"][0]["name"] == "copy.array"


def test_index_then_help_shows_indexed_op(capsys, tmp_path):
    (tmp_path / "demo.java").write_text(TAGGED, encoding="utf-8")
    out_file = tmp_path / "out.yaml"
    code, _, _ = run(capsys, "index", str(tmp_path), "-o", str(out_file))
    assert code == 0
    assert out_file.exists()
    code, out, _ = run(
        capsys, "--descriptors", str(out_file), "help", "copy.array", "--verbose"
    )
    assert code == 0
    assert "indexed:demo.java#L1" in out


def test_index_missing_directory_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "index", str(tmp_path / "nope"))
    assert code == 2
    assert "error:" in err


def test_index_strict_flips_exit_code(capsys, tmp_path):
    (tmp_path / "bad.py").write_text(
        "/// @implNote op names='a.b' priority='x'\n", encoding="utf-8"
    )
    code, _, err = run(capsys, "index", str(tmp_path))
    assert code == 0
    assert "priority" in err
    code, _, err = run(capsys, "index", str(tmp_path), "--strict")
    assert code == 1
    assert "priority" in err


def test_index_include_glob(capsys, tmp_path):
    (tmp_path / "demo.java").write_text(TAGGED, encoding="utf-8")
    (tmp_path / "extra.py").write_text(
        "/// @implNote op names='py.op'\n/// @output Integer\n", encoding="utf-8"
    )
    code, out, _ = run(capsys, "index", str(tmp_path), "--include", "*.java")
    assert code == 0
    names = [e["name"] for e in yaml.safe_load(out)["ops"]]
    assert names == ["copy.array"]


# -- bench ----------------------------------------------------------------------


def test_bench_smoke_with_csv(capsys, tmp_path):
    csv_path = tmp_path / "bench.csv"
    code, out, _ = run(
        capsys,
        "bench",
        "--reps",
        "1",
        "--iterations",
        "20",
        "--warmup",
        "5",
        "--size",
        "8",
        "--csv",
        str(csv_path),
    )
    assert code == 0
    assert "scenario" in out
    assert "ADAPTED_CONVERTED" in out
    header = csv_path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "scenario,mean_ns,min_ns,max_ns,iterations,reps"


def test_bench_scenario_subset(capsys):
    code, out, _ = run(
        capsys,
        "bench",
        "--scenarios",
        "STATIC",
        "--reps",
        "1",
        "--iterations",
        "10",
        "--warmup",
        "2",
        "--size",
        "4",
    )
    assert code == 0
    assert "STATIC" in out
    assert "MATCHED_NOCACHE" not in out


def test_bench_unknown_scenario_exits_2(capsys):
    code, _, err = run(capsys, "bench", "--scenarios", "WARP")
    assert code == 2
    assert "WARP" in err
