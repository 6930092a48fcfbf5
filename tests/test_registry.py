"""Descriptor parsing, optional-parameter reduction, environment assembly."""

import random
import re
from dataclasses import replace

import pytest
import yaml

from opsforge.errors import RegistrationError, SchemaError
from opsforge.registry import (
    Io,
    Kind,
    OpEnvironment,
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
    legacy_descriptors_path,
)
from opsforge.types import parse_type


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
