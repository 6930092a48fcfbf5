"""Descriptor parsing, optional-parameter reduction, environment assembly."""

import gc
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from opsforge import registry
from opsforge.errors import RegistrationError, SchemaError
from opsforge.registry import (
    Io,
    Kind,
    OpEnvironment,
    OpInfo,
    ParamSpec,
    build_environment,
    infer_kind,
    parse_descriptors,
    reduce_optional,
)
from opsforge.stdlib import (
    BINDINGS,
    builtin_descriptors_path,
    default_environment,
    default_hierarchy,
    legacy_descriptors_path,
)
from opsforge.types import parse_type

ROOT = Path(__file__).resolve().parent.parent


def _param(name, type_, io):
    return ParamSpec(name, parse_type(type_), io)


def test_parse_copy_array_computer_inferred():
    text = """
ops:
  - name: copy.array
    source: "builtin:copy/bytes"
    parameters:
      - {name: input, type: ByteArray, io: input}
      - {name: output, type: ByteArray, io: container}
"""
    (info,) = parse_descriptors(text)
    assert info.kind is Kind.COMPUTER
    assert info.name == "copy.array"
    assert len(info.params) == 2


def test_explicit_kind_cross_checked():
    text = """
ops:
  - name: copy.array
    kind: function
    source: "builtin:copy/bytes"
    parameters:
      - {name: input, type: ByteArray, io: input}
      - {name: output, type: ByteArray, io: container}
"""
    with pytest.raises(SchemaError) as err:
        parse_descriptors(text)
    assert "ops[0]" in str(err.value)


def test_empty_document_gives_empty_list():
    assert parse_descriptors("ops: []") == []


@pytest.mark.parametrize(
    "fragment, needle",
    [
        ("- source: 'builtin:x'\n    parameters: []", "name"),
        (
            "- name: a.b\n    source: 'builtin:x'\n    parameters:\n"
            "      - {name: p, type: Integer, io: sideways}",
            "io",
        ),
        (
            "- name: a.b\n    source: 'builtin:x'\n    parameters:\n"
            "      - {name: p, type: 'List<', io: input}",
            "type",
        ),
    ],
)
def test_schema_errors_carry_entry_and_field(fragment, needle):
    with pytest.raises(SchemaError) as err:
        parse_descriptors("ops:\n  " + fragment)
    msg = str(err.value)
    assert "ops[0]" in msg
    assert needle in msg


ENTRY = """
ops:
  - name: t.op
    source: "x:a"
    parameters:
      - {name: a, type: Integer, io: input}
      - {name: out, type: Integer, io: output}
"""


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("name: t.op", "name: ''", "ops[0].name: required string"),
        ("name: t.op", "name: t.op\n    aliases: [1]", "ops[0].aliases: must be a list of strings"),
        ("name: t.op", "name: t.op\n    optional: a", "ops[0].optional: must be a list of names"),
        ("name: t.op", "name: t.op\n    description: 3", "ops[0].description: must be a string"),
        ("name: t.op", "name: t.op\n    priority: .nan", "ops[0].priority: must be a number"),
        ("name: t.op", "name: t.op\n    kind: pure", "ops[0].kind: must be one of function/computer/inplace"),
        ("name: t.op", "name: t.op\n    colour: red", "ops[0]: unknown keys ['colour']"),
        ("- {name: a,", "- {name: 7,", "ops[0].parameters[0].name: required string"),
        ("io: output}", "io: output, description: [x]}", "ops[0].parameters[1].description: must be a string"),
        ("- {name: a, type: Integer, io: input}", "- [a]", "ops[0].parameters[0]: parameter must be a mapping"),
        ("type: Integer, io: input}", "type: 7, io: input}",
         "ops[0].parameters[0].type: expected a type string, got 7"),
        ("name: t.op", "name: t.op\n    dependencies: [{field: f, name: '', kind: function, signature: [Integer]}]",
         "ops[0].dependencies[0].name: required string"),
        ("name: t.op", "name: t.op\n    dependencies: [{field: f, name: g.h, kind: pure, signature: [Integer]}]",
         "ops[0].dependencies[0].kind: must be one of function/computer/inplace"),
        ("name: t.op", "name: t.op\n    dependencies: [f]", "ops[0].dependencies[0]: dependency must be a mapping"),
    ],
)
def test_each_field_rule_reports_its_path(old, new, message):
    with pytest.raises(SchemaError) as err:
        parse_descriptors(ENTRY.replace(old, new, 1), origin="t.yaml")
    assert str(err.value) == f"t.yaml: {message}"


def test_priority_too_large_for_a_float_is_a_schema_error():
    text = ENTRY.replace("name: t.op", f"name: t.op\n    priority: {10**400}", 1)
    with pytest.raises(SchemaError) as err:
        parse_descriptors(text, origin="t.yaml")
    assert str(err.value) == "t.yaml: ops[0].priority: must be a number"


def test_nan_priority_rejected_by_op_info():
    (info,) = parse_descriptors(ENTRY)
    with pytest.raises(RegistrationError, match="priority"):
        replace(info, priority=float("nan"))


def test_duplicate_entries_rejected():
    entry = """
  - name: math.add
    source: "builtin:math/add_ints"
    parameters:
      - {name: a, type: Integer, io: input}
      - {name: b, type: Integer, io: input}
      - {name: sum, type: Integer, io: output}
"""
    with pytest.raises(SchemaError) as err:
        parse_descriptors("ops:" + entry + entry)
    assert "duplicate" in str(err.value)


def test_kind_inference_totality():
    out = [_param("out", "Integer", Io.OUTPUT)]
    cont = [_param("out", "Integer", Io.CONTAINER)]
    mut = [_param("x", "Integer", Io.MUTABLE)]
    ins = [_param("a", "Integer", Io.INPUT)]
    assert infer_kind(ins + out) is Kind.FUNCTION
    assert infer_kind(ins + cont) is Kind.COMPUTER
    assert infer_kind(mut + ins) is Kind.INPLACE
    with pytest.raises(RegistrationError):
        infer_kind(ins)
    with pytest.raises(RegistrationError):
        infer_kind(out + cont)


def test_optional_must_be_input_only():
    text = """
ops:
  - name: a.b
    source: "builtin:x"
    optional: [out]
    parameters:
      - {name: a, type: Integer, io: input}
      - {name: out, type: Integer, io: output}
"""
    with pytest.raises(SchemaError):
        parse_descriptors(text)


def test_reduce_fft_shape_three_variants():
    text = """
ops:
  - name: filter.fft
    source: "builtin:filter/fft_stub"
    optional: [borderSize, fast]
    parameters:
      - {name: input, type: RealArray, io: input}
      - {name: fftType, type: Text, io: input}
      - {name: borderSize, type: Integer, io: input}
      - {name: fast, type: Boolean, io: input}
      - {name: output, type: RealArray, io: output}
"""
    (info,) = parse_descriptors(text)
    variants = reduce_optional(info)
    arities = [len(v.arg_params) for v in variants]
    assert arities == [4, 3, 2]
    assert variants[0].reduced_from is None
    assert all(v.reduced_from is info for v in variants[1:])
    # one epsilon per removed parameter keeps exact-arity matches preferred
    assert variants[1].priority == pytest.approx(info.priority - 1e-6)
    assert variants[2].priority == pytest.approx(info.priority - 2e-6)


def test_reduce_rescale_two_variants():
    env = default_environment()
    variants = [i for i in env.infos if "transform.rescale2D" in i.names]
    assert len(variants) == 2
    assert sorted(len(v.arg_params) for v in variants) == [2, 3]


def test_reduce_without_optionals_is_identity():
    text = """
ops:
  - name: a.b
    source: "builtin:x"
    parameters:
      - {name: a, type: Integer, io: input}
      - {name: out, type: Integer, io: output}
"""
    (info,) = parse_descriptors(text)
    assert reduce_optional(info) == [info]


def test_non_trailing_optional_rejected():
    text = """
ops:
  - name: a.b
    source: "builtin:x"
    optional: [a]
    parameters:
      - {name: a, type: Integer, io: input}
      - {name: b, type: Integer, io: input}
      - {name: out, type: Integer, io: output}
"""
    (info,) = parse_descriptors(text)
    with pytest.raises(RegistrationError) as err:
        reduce_optional(info)
    assert "trailing" in str(err.value)


def test_stdlib_environment_has_enough_infos():
    env = default_environment()
    assert len(env.infos) >= 25


def test_load_order_independence():
    paths = [builtin_descriptors_path()]
    env = build_environment(paths, BINDINGS)
    text = builtin_descriptors_path().read_text(encoding="utf-8")
    # same content parsed repeatedly in shuffled entry order sorts identically
    import yaml

    doc = yaml.safe_load(text)
    baseline = [i.source for i in env.infos]
    rng = random.Random(7)
    for _ in range(3):
        rng.shuffle(doc["ops"])
        shuffled = yaml.safe_dump(doc, sort_keys=False)
        infos = parse_descriptors(shuffled)
        env2 = OpEnvironment(infos, BINDINGS)
        assert [i.source for i in env2.infos] == baseline


def test_unresolved_builtin_binding_fails_naming_uri():
    text = """
ops:
  - name: ghost.op
    source: "builtin:nonexistent"
    parameters:
      - {name: a, type: Integer, io: input}
      - {name: out, type: Integer, io: output}
"""
    infos = parse_descriptors(text)
    with pytest.raises(RegistrationError) as err:
        OpEnvironment(infos, BINDINGS)
    assert "builtin:nonexistent" in str(err.value)


def test_duplicate_name_different_source_allowed_priority_ordered():
    text = """
ops:
  - name: math.add
    priority: 5.0
    source: "builtin:math/add_reals"
    parameters:
      - {name: a, type: Real, io: input}
      - {name: b, type: Real, io: input}
      - {name: sum, type: Real, io: output}
  - name: math.add
    priority: 10.0
    source: "builtin:math/add_ints"
    parameters:
      - {name: a, type: Integer, io: input}
      - {name: b, type: Integer, io: input}
      - {name: sum, type: Integer, io: output}
"""
    infos = parse_descriptors(text)
    env = OpEnvironment(infos, BINDINGS)
    ordered = env.candidates("math.add")
    assert [i.source for i in ordered] == [
        "builtin:math/add_ints",
        "builtin:math/add_reals",
    ]


def test_environment_is_sealed():
    env = default_environment()
    with pytest.raises((AttributeError, TypeError)):
        env.infos = ()
    with pytest.raises((AttributeError, TypeError)):
        env.infos[0].priority = 99.0


def test_dependency_variables_must_appear_in_params():
    text = """
ops:
  - name: a.b
    source: "builtin:x"
    parameters:
      - {name: a, type: Integer, io: input}
      - {name: out, type: Integer, io: output}
    dependencies:
      - {field: helper, name: c.d, kind: function, signature: ["'Q", "'Q"]}
"""
    with pytest.raises(SchemaError) as err:
        parse_descriptors(text)
    assert "Q" in str(err.value)


# -- libyaml and its pure-Python fallback parse alike ------------------------

needs_libyaml = pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml"
)


def _parse_with_each_loader(monkeypatch, text, origin):
    """parse_descriptors' outcome under the C loader, then under SafeLoader."""
    outcomes = []
    for drop_c in (False, True):
        if drop_c:
            monkeypatch.delattr(yaml, "CSafeLoader")
        try:
            outcomes.append(parse_descriptors(text, origin=origin))
        except SchemaError as exc:
            outcomes.append(exc)
    return outcomes


@needs_libyaml
@pytest.mark.parametrize("path", [builtin_descriptors_path(), legacy_descriptors_path()])
def test_both_yaml_loaders_give_equal_infos(monkeypatch, path):
    c_infos, py_infos = _parse_with_each_loader(
        monkeypatch, path.read_text(encoding="utf-8"), str(path)
    )
    assert c_infos == py_infos and len(c_infos) > 0


@needs_libyaml
@pytest.mark.parametrize(
    "text",
    [
        "ops:\n  - name: a\n    parameters: [\n  - b\n",
        "ops: [a, b\n",
        "ops:\n  - name: a\n   bad: 1\n",
    ],
)
def test_both_yaml_loaders_place_malformed_yaml_alike(monkeypatch, text):
    # the two loaders word the problem differently; only the marks must agree
    errors = _parse_with_each_loader(monkeypatch, text, "bad.yaml")
    assert all(isinstance(e, SchemaError) for e in errors)
    assert all(str(e).startswith("bad.yaml: not valid YAML:") for e in errors)
    c_marks, py_marks = (re.findall(r"line \d+, column \d+", str(e)) for e in errors)
    assert c_marks == py_marks and c_marks


# -- the event walk gives yaml.load's outcome --------------------------------

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


def _sharing(value) -> list[int]:
    """Each object's first-seen index, in the order a walk over the value
    meets it; two values with equal lists share their objects alike."""
    seen: dict[int, int] = {}
    order = []
    stack = [value]
    while stack:
        obj = stack.pop()
        first = id(obj) not in seen
        order.append(seen.setdefault(id(obj), len(seen)))
        if first and isinstance(obj, dict):
            stack.extend(obj.values())
        elif first and isinstance(obj, list):
            stack.extend(obj)
    return order


def _outcome(load, text, Loader):
    try:
        value = load(text, Loader)
    except Exception as exc:  # the outcome under test may be any error
        return ("raised", type(exc), str(exc))
    return ("value", repr(value), _sharing(value))


def _reference(text, Loader):
    return yaml.load(text, Loader=Loader)


def _assert_same_outcome(text):
    for Loader in LOADERS:
        walked = _outcome(registry._load_yaml, text, Loader)
        assert walked == _outcome(_reference, text, Loader), (Loader.__name__, text)


@pytest.mark.parametrize(
    "text",
    [
        # YAML 1.1 implicit scalars
        "[yes, off, On, NO, true, 0x1F, -0x1F, 017, 0b101, 1_000, 1:20, 190:20:30]",
        "[.inf, -.Inf, .nan, ~, null, '', 1e3, 1.0e+3, -.5, 6.8523015e+5, 0o17, +12]",
        "[2001-12-14, 2001-12-14t21:59:43.10-05:00, 2001-12-14 21:59:43.10 +5, 2002-1-1]",
        # styles
        "- 'single ''quoted'' 123'\n- \"double \\t \\u263A\"\n- '123'\n- \"yes\"\n",
        "literal: |\n  one\n   two\n\nfolded: >-\n  three\n  four\nkept: |+\n  five\n\n",
        # explicit tags
        "[!!str 123, !!int '42', !!float 1, !!bool yes, !!null '', ! 12, ! [1]]",
        "a: !!binary aGVsbG8gd29ybGQ=\nb: !!timestamp 2001-12-14\nc: !!str [1]\n",
        "!!set {a, b, c}",
        "!!omap [a: 1, b: 2]",
        "!!pairs [a: 1, a: 2]",
        "[!unknown x]",
        "[!!python/tuple [1, 2]]",
        "[!!int abc]",
        "[!!binary '!!!']",
        "[!!seq scalar]",
        "[!!map [1]]",
        "!!seq {a: 1}",
        # anchors and aliases
        "a: &x [1, {b: 2}]\nc: *x\nd: [*x, *x]\n",
        "[&s shared, *s, &n 12, *n, &t 2001-12-14, *t, &e {}, *e]",
        "base: &b {x: 1, y: 2}\nd: {<<: *b, y: 3}\n",
        "d: {<<: [{x: 1}, {z: 2}], y: 3}\n",
        "[*nope]",
        "[&a 1, &a 2]",
        "&r [1, *r]",
        "&m {self: *m}",
        "{a: 1, b: 2, a: 3}",
        "{1: a, true: b, 1.0: c}",
        "[&k key, {*k : v}]",
        # keys, documents and malformed text
        "? [a, b]\n: c\n",
        "{? {a: 1} : b}",
        "? !!binary aGk=\n: bytes key\n",
        "a: 1\n---\nb: 2\n",
        "--- a\n...\n",
        "--- !!map\nops: []\n",
        "{=: a}",
        "[=]",
        "{<<: 1}",
        "'<<': quoted merge",
        "ops: [a, b\n",
        "a: b: c\n",
        "a:\n  - b\n c: d\n",
        "bell: \x07\n",
        "",
        "---\n",
        "# a comment only\n",
        "~",
        "%YAML 1.1\n%TAG !e! tag:example.com,2000:\n--- [!e!x 1]\n",
        "[" * 150 + "]" * 150,
    ],
    ids=lambda text: text[:40],
)
def test_the_walk_gives_yaml_loads_value_or_error(text):
    _assert_same_outcome(text)


def _raised(load, text, Loader):
    try:
        load(text, Loader)
    except Exception as exc:  # the outcome under test may be any error
        return type(exc)
    return None


@pytest.mark.parametrize("depth", [400, 700])
def test_deeply_nested_documents_fail_or_load_as_yaml_load_does(depth):
    # the pure-Python composer recurses, so its recursion limit decides the
    # deepest document it loads; the walk leaves such documents to it
    text = "[" * depth + "]" * depth
    for Loader in LOADERS:
        assert _raised(registry._load_yaml, text, Loader) is _raised(_reference, text, Loader)


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["yes", "off", "0x1F", "1:20", "~", "<<", "=", "1e3", ".inf", "2001-12-14"]),
    st.binary(max_size=4),
    st.dates(),
)
_KEYS = st.one_of(st.text(max_size=4), st.integers(-5, 5), st.booleans(), st.none())


@st.composite
def _documents(draw):
    """Nested maps and lists of scalars, some of them placed more than once
    (a repeated container or date is written as an anchor and its aliases)."""
    made = []

    def node(depth):
        pick = draw(st.integers(0, 3 if depth < 4 else 0))
        if pick == 3 and made:
            return draw(st.sampled_from(made))
        if pick == 0 or pick == 3:
            value = draw(_SCALARS)
        elif pick == 1:
            value = [node(depth + 1) for _ in range(draw(st.integers(0, 3)))]
        else:
            value = {draw(_KEYS): node(depth + 1) for _ in range(draw(st.integers(0, 3)))}
        if not isinstance(value, (str, bytes, int, float, type(None))):
            made.append(value)
        return value

    return node(0), draw(st.booleans())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_documents())
def test_the_walk_matches_yaml_load_on_dumped_documents(drawn):
    document, flow = drawn
    _assert_same_outcome(yaml.safe_dump(document, default_flow_style=flow))


def _synthetic_text(seed=1):
    spec = importlib.util.spec_from_file_location("synth", ROOT / "perfbench" / "synth.py")
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    return synth.SynthRegistry(seed).text


@pytest.mark.parametrize("source", ["builtin", "legacy", "synthetic"])
@pytest.mark.parametrize("Loader", LOADERS, ids=lambda L: L.__name__)
def test_parse_descriptors_reads_bundled_files_as_yaml_load_does(monkeypatch, source, Loader):
    # the bundled files are JSON and the synthetic one block YAML; the walk
    # must give the infos of yaml.load's own document for both
    text = _bundled_text(source)
    monkeypatch.setattr(yaml, "CSafeLoader", Loader, raising=False)
    entries = yaml.load(text, Loader=Loader)["ops"]
    expected = [registry.read_entry(e, source, f"ops[{i}]") for i, e in enumerate(entries)]
    assert parse_descriptors(text, origin=source) == expected and expected


@pytest.mark.parametrize("source", ["builtin", "legacy"])
def test_bundled_files_take_the_json_path(monkeypatch, source):
    # default_environment reads the bundled files with json.loads; a comment,
    # an exponent or a tab in one would read otherwise, or fail, as YAML
    text = _bundled_text(source)
    for Loader in LOADERS:
        assert json.loads(text) == yaml.load(text, Loader=Loader)
    paths = [builtin_descriptors_path()]
    if source == "legacy":
        paths.append(legacy_descriptors_path())
    walked = OpEnvironment(
        [i for p in paths for i in parse_descriptors(p.read_text(encoding="utf-8"), str(p))],
        BINDINGS,
        hierarchy=default_hierarchy(),
    )

    def refuse(*_args, **_kwargs):
        raise AssertionError(f"{source} left the JSON path")

    monkeypatch.setattr(registry, "_load_yaml", refuse)
    built = default_environment(include_legacy=source == "legacy")
    assert built.infos == walked.infos
    assert built.content_hash == walked.content_hash


def test_a_stdlib_build_and_ops_run_leave_pyyaml_unloaded():
    # importing yaml costs ~14 ms; only a user's descriptor file needs it
    script = (
        "import json, sys\n"
        "from opsforge.cli import main\n"
        "from opsforge.stdlib import default_environment\n"
        "default_environment()\n"
        "built = 'yaml' in sys.modules\n"
        "code = main(['run', 'math.add', '--in', 'Integer:2', '--in', 'Integer:3'])\n"
        "print(json.dumps({'code': code, 'built': built, 'ran': 'yaml' in sys.modules}))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == {"code": 0, "built": False, "ran": False}


# -- JSON texts read by the walk as yaml.load reads them -----------------------

# A user's descriptor file in JSON form is read as YAML. PyYAML reads YAML
# 1.1, not JSON: each of these reads differently in json.loads and in
# yaml.load under one loader at least, or fails in one of them.
_JSON_DIFFERENCES = [
    '{"a": 1.5e3}',  # a string to PyYAML
    "[1E+2]",
    "[2e-3]",
    "[NaN]",
    "[Infinity, -Infinity]",
    '["\\ud83d\\ude00"]',  # one character to json, two to SafeLoader; CSafeLoader fails
    "[1,\t2]",  # CSafeLoader reads a tab, SafeLoader fails
    '["\x7f"]',
    '["\uffff"]',
    '["\ud800"]',  # a lone surrogate
    '["a\x85b"]',  # a space to PyYAML
    "\ufeff[1]",  # json fails on a BOM
    '{"' + "k" * 1100 + '": 1}',
    '{"a"\n: 1}',
    '{"a"\n  : 1}',
    "[" * 600 + "]" * 600,  # beyond SafeLoader's recursion
]
# PyYAML reads each as json.loads does
_JSON_ALIKE = [
    '{"a": 1, "b": 2, "a": 3}',
    '{"<<": {"x": 1}, "=": 2, "yes": "~", "null": "0x1F", "a:b": "#c"}',
    '{"a":1,"b":[true,false,null]}',
    "[0, -0, -0.0, 0.5, 12345678901234567890123, -1.25]",
    '"top"',
    "null",
    "[" * 100 + "]" * 100,
]
# edge cases of escapes, characters, line length, depth and non-JSON text
_JSON_EDGES = [
    "[1.5e+3]",
    '["\\/"]',
    '["\xe9", "\U0001f600"]',  # printable, but not ASCII
    '{"k": "' + "v" * 1100 + '"}',
    "[" * 101 + "]" * 101,
    "",
    "# a comment\n{}",
    '{"a": 1} {"b": 2}',
]


def _json_outcome(load, text):
    try:
        return ("value", repr(load(text)))
    except Exception:  # a failure is an outcome here
        return ("raised",)


@pytest.mark.parametrize("text", _JSON_DIFFERENCES, ids=lambda text: repr(text[:30]))
def test_walk_reads_json_unlike_json_loads(text):
    _assert_same_outcome(text)
    json_outcome = _json_outcome(json.loads, text)
    assert any(
        _json_outcome(lambda t: yaml.load(t, Loader=L), text) != json_outcome for L in LOADERS
    )


@pytest.mark.parametrize("text", _JSON_ALIKE, ids=lambda text: repr(text[:30]))
def test_walk_reads_json_as_json_loads_does(text):
    _assert_same_outcome(text)
    assert all(
        _json_outcome(lambda t: yaml.load(t, Loader=L), text) == _json_outcome(json.loads, text)
        for L in LOADERS
    )


@pytest.mark.parametrize("text", _JSON_EDGES, ids=lambda text: repr(text[:30]))
def test_walk_reads_json_edge_cases(text):
    _assert_same_outcome(text)


_JSON_STRINGS = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        st.sampled_from(["\t", "\n", "\r", "\x00", "\x7f", "\x85", "\ufeff", "\uffff",
                         "\ud800", "\u2028", "\xe9", "\U0001f600", "\\", '"', "/", ":"]),
    ),
    max_size=6,
)
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.sampled_from([1.5e3, 1e100, 0.1, -0.0, 2.5, 1e-7]),
    _JSON_STRINGS,
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_JSON_STRINGS, kids, max_size=4),
    max_leaves=12,
)


@st.composite
def _json_texts(draw):
    """A drawn value written by json.dumps in one of its layouts, at times
    with its first colon moved to the next line."""
    text = json.dumps(
        draw(_JSON_VALUES),
        ensure_ascii=draw(st.booleans()),
        indent=draw(st.sampled_from([None, 0, 2, "\t"])),
        separators=draw(st.sampled_from([None, (",", ":"), (", ", " : ")])),
    )
    if draw(st.booleans()) and '": ' in text:
        text = text.replace('": ', '"\n: ', 1)
    return text


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_json_texts())
def test_walk_matches_yaml_load_on_drawn_json(text):
    _assert_same_outcome(text)


@pytest.mark.parametrize("source", ["builtin", "legacy", "synthetic"])
@pytest.mark.parametrize("Loader", LOADERS, ids=lambda L: L.__name__)
def test_no_bundled_or_synthetic_file_leaves_the_walk(monkeypatch, source, Loader):
    # a file handed to yaml.load would lose the walk's small parse peak
    text = _bundled_text(source)
    expected = _reference(text, Loader)

    def refuse(*_args, **_kwargs):
        raise AssertionError(f"{source} was left to yaml.load")

    monkeypatch.setattr(yaml, "load", refuse)
    assert registry._load_yaml(text, Loader) == expected


@pytest.mark.parametrize(
    "text",
    ["a: !!str 12\nb: [1]\n", "a: &x [1]\nb: 2\n", "a: &x [1]\nb: *x\n"],
    ids=["tag", "anchor", "alias"],
)
@pytest.mark.parametrize("Loader", LOADERS, ids=lambda L: L.__name__)
def test_tags_anchors_and_aliases_are_left_to_yaml_load_once(monkeypatch, text, Loader):
    expected = _outcome(_reference, text, Loader)
    calls = []
    load = yaml.load

    def spy(*args, **kwargs):
        calls.append(args)
        return load(*args, **kwargs)

    monkeypatch.setattr(yaml, "load", spy)
    assert _outcome(registry._load_yaml, text, Loader) == expected
    assert len(calls) == 1


def _descriptor_document(entries: int) -> str:
    lines = ["ops:"]
    for k in range(entries):
        lines += [
            f"  - name: gen.ns{k % 7}.op{k:04d}",
            f"    source: gen:op{k}/real",
            f"    priority: {k % 11 - 5}.25",
            "    parameters:",
            "      - {name: x, type: Real, io: input}",
            "      - {name: y, type: Real, io: input}",
            "      - {name: out, type: Real, io: output}",
        ]
    return "\n".join(lines) + "\n"


def test_parse_peak_stays_near_the_size_of_the_document():
    # yaml.load composes every node (each with two marks) before it builds
    # anything, which peaked at ~6x the document it returned
    Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    text = _descriptor_document(500)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        document = registry._load_yaml(text, Loader)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(document["ops"]) == 500
    assert peak - before < 2 * (kept - before)


# -- one copy of each type, parameter and shape -------------------------------


def _unshared(text, origin):
    """The document's OpInfos, each entry read on its own, sharing nothing."""
    entries = yaml.safe_load(text)["ops"]
    return [registry.read_entry(e, origin, f"ops[{i}]") for i, e in enumerate(entries)]


def _bundled_text(source):
    if source == "synthetic":
        return _synthetic_text()
    path = builtin_descriptors_path() if source == "builtin" else legacy_descriptors_path()
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize("source", ["builtin", "legacy", "synthetic"])
def test_a_shared_parse_equals_an_unshared_one(source):
    text = _bundled_text(source)
    shared = parse_descriptors(text, origin=source)
    unshared = _unshared(text, source)
    assert shared == unshared and shared
    # the descriptions, which content_hash leaves out, come from the document
    for info, entry in zip(shared, yaml.safe_load(text)["ops"]):
        assert info.description == entry.get("description", "")
        assert [p.description for p in info.params] == [
            p.get("description", "") for p in entry["parameters"]
        ]

    def env(infos):
        return OpEnvironment(infos, {}, hierarchy=default_hierarchy())

    if source == "synthetic":
        # its sources have no bindings and a scheme that needs none
        assert env(shared).content_hash == env(unshared).content_hash
    else:
        assert (
            OpEnvironment(shared, BINDINGS).content_hash
            == OpEnvironment(unshared, BINDINGS).content_hash
        )


def test_equal_types_and_parameters_are_one_object_per_document():
    infos = parse_descriptors(_synthetic_text(), origin="synthetic")
    types, params = {}, {}
    for info in infos:
        for p in info.params:
            types.setdefault(p.type._str, set()).add(id(p.type))
            params.setdefault(p, set()).add(id(p))
    assert set(types) == {"Real", "Integer", "RealArray"}
    assert all(len(ids) == 1 for ids in types.values())
    # 486 entries hold 8 parameters: x, y, the optional scale and out of
    # Real, a, b and out of Integer, and values
    assert len(params) == 8
    assert all(len(ids) == 1 for ids in params.values())
    # a second document makes its own
    again = parse_descriptors(_synthetic_text(), origin="synthetic")
    assert again[0].params[0] == infos[0].params[0]
    assert again[0].params[0] is not infos[0].params[0]


def test_reduced_variants_keep_their_sources_parameters():
    (info,) = parse_descriptors(
        """
ops:
  - name: filter.fft
    source: "builtin:filter/fft_stub"
    optional: [borderSize, fast]
    parameters:
      - {name: input, type: RealArray, io: input}
      - {name: fftType, type: Text, io: input}
      - {name: borderSize, type: Integer, io: input}
      - {name: fast, type: Boolean, io: input}
      - {name: output, type: RealArray, io: output}
"""
    )
    reduced = reduce_optional(info)[1:]
    assert len(reduced) == 2
    kept = {p.name: p for p in info.params if not p.optional}
    for variant in reduced:
        for p in variant.params:
            assert p is kept[p.name] if p.name in kept else not p.optional


def test_candidates_of_one_shape_share_its_adaptations():
    synth = tempfile.NamedTemporaryFile("w", suffix=".yaml", delete=False)
    with synth:
        synth.write(_synthetic_text())
    try:
        env = default_environment(cache_enabled=False, extra_paths=[synth.name])
    finally:
        Path(synth.name).unlink()
    shaped = {n: env.name_rows(n)[1] for info in env.infos for n in info.names}
    made = {}
    for rows in shaped.values():
        for _, shape, adaptations in rows:
            if shape is not None:
                made.setdefault(shape, set()).add((id(shape), id(adaptations)))
    assert all(len(ids) == 1 for ids in made.values())
    # 486 synthetic entries and 81 reduced variants hold 4 shapes
    synthetic = {
        shape for name, rows in shaped.items() if name.startswith("synth.")
        for _, shape, _ in rows
    }
    assert len(synthetic) == 4


# three signatures repeated, as a large registry of overloads repeats them
_SIGNATURES = [
    ("Real", ["x", "y"], "Real"),
    ("Integer", ["a", "b"], "Integer"),
    ("RealArray", ["values"], "Real"),
]


def _repeating_document(entries: int) -> str:
    lines = ["ops:"]
    for k in range(entries):
        type_, args, out = _SIGNATURES[k % 3]
        lines += [
            f"  - name: gen.ns{k % 7}.op{k:04d}",
            f"    source: gen:op{k}",
            f"    priority: {k % 11 - 5}.25",
            "    parameters:",
            *[f"      - {{name: {a}, type: {type_}, io: input}}" for a in args],
            f"      - {{name: out, type: {out}, io: output}}",
        ]
    return "\n".join(lines) + "\n"


def test_a_repeating_registry_retains_one_copy_of_its_signatures():
    # every entry keeps its own OpInfo, names and source (~0.95 KB here);
    # a parse and build that copied each entry's parameters, types, shape
    # and adapter unifications kept ~2.7 KB per entry
    text = _repeating_document(500)
    stdlib = parse_descriptors(builtin_descriptors_path().read_text(encoding="utf-8"))
    hierarchy = default_hierarchy()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        env = OpEnvironment(parse_descriptors(text, "gen") + stdlib, BINDINGS, hierarchy=hierarchy)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(env.infos) > 500
    assert kept < 1_536 * 500


# -- the facts an entry makes once, against their earlier definitions -------
#
# OpInfo derived these on every read, as below; it now makes them when it is
# constructed.


def _reference_arg_params(info):
    return tuple(p for p in info.params if p.io in (Io.INPUT, Io.MUTABLE))


def _reference_special_param(info):
    for p in info.params:
        if p.io in (Io.OUTPUT, Io.CONTAINER, Io.MUTABLE):
            return p
    raise AssertionError("validated op always has a special param")


def _reference_mutable_index(info):
    if info.kind is not Kind.INPLACE:
        return None
    for i, p in enumerate(_reference_arg_params(info)):
        if p.io is Io.MUTABLE:
            return i
    raise AssertionError("inplace op always has a mutable param")


def _reference_signature_string(info):
    parts = ",".join(f"{p.io.value}:{p.type}" for p in info.params)
    return f"{info.kind.value}({parts})"


def _assert_reference_facts(info):
    args = _reference_arg_params(info)
    assert len(info.arg_params) == len(args)
    assert all(a is b for a, b in zip(info.arg_params, args))
    assert info.special_param is _reference_special_param(info)
    assert info.mutable_index == _reference_mutable_index(info)
    assert info.signature_string() == _reference_signature_string(info)


def _rotations(info):
    """Copies of ``info`` with its parameters rotated, and with its output,
    if it has one, turned container and then mutable."""
    params = info.params
    copies = [replace(info, params=params[k:] + params[:k], kind=infer_kind(params))
              for k in range(1, len(params))]
    if info.kind is Kind.FUNCTION:
        for io in (Io.CONTAINER, Io.MUTABLE):
            turned = tuple(replace(p, io=io) if p.io is Io.OUTPUT else p for p in params)
            for k in range(len(turned)):
                rotated = turned[k:] + turned[:k]
                copies.append(replace(info, params=rotated, kind=infer_kind(rotated)))
    return copies


def _entries(text, origin):
    infos = parse_descriptors(text, origin=origin)
    return [variant for info in infos for variant in reduce_optional(info)]


@pytest.mark.parametrize("source", ["builtin", "legacy", 1, 2, 3])
def test_entry_facts_match_their_earlier_definitions(source):
    if isinstance(source, int):
        entries = _entries(_synthetic_text(source), f"synthetic seed {source}")
    else:
        entries = _entries(_bundled_text(source), source)
        # the JSON path default_environment takes makes the same entries
        doc = json.loads(_bundled_text(source))
        assert entries == [v for i in registry.read_document(doc, source)
                           for v in reduce_optional(i)]
    # the legacy file has no optional parameters
    assert source == "legacy" or any(v.reduced_from is not None for v in entries)
    for info in entries:
        _assert_reference_facts(info)
        for copy in _rotations(info):
            _assert_reference_facts(copy)
            # the facts are not fields: equality, hashing and repr ignore them
            assert copy == replace(copy) and hash(copy) == hash(replace(copy))
            assert "arg_params" not in repr(copy)
    assert [f.name for f in fields(OpInfo)] == [
        "names", "kind", "params", "source", "priority", "dependencies", "description",
        "reduced_from"]


def test_replaced_copies_cover_every_mutable_position():
    (info,) = parse_descriptors(
        """
ops:
  - name: t.op
    source: "x:a"
    parameters:
      - {name: a, type: Integer, io: input}
      - {name: b, type: Real, io: input}
      - {name: out, type: Text, io: output}
"""
    )
    positions = {c.mutable_index for c in _rotations(info) if c.kind is Kind.INPLACE}
    assert positions == {0, 1, 2}
