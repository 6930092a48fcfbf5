"""The matcher's tables built once per environment agree with per-call scans.

An environment builds, per name, each non-adapter candidate's shape and its
adapter unifications, and the filtered convert and copy lists. The linear
scans below are what the matcher did on every request before; they stay
here as the reference, for the stdlib environment and for twins loaded in a
shuffled order. The twins also carry entries that the tables must leave
out or mark generic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from opsforge.matcher import (
    ADAPT_NAME,
    CONVERT_NAME,
    COPY_NAME,
    _find_convert,
    _find_copy,
    adapter_patterns,
)
from opsforge.registry import Kind, OpEnvironment, parse_descriptors
from opsforge.stdlib import (
    BINDINGS,
    builtin_descriptors_path,
    default_environment,
    default_hierarchy,
    legacy_descriptors_path,
)
from opsforge.types import is_assignable, parse_type

# Entries the filters must skip, ranked ahead of the stdlib ones, and a
# generic candidate that adaptation and conversion cannot use.
EXTRA = """
ops:
  - name: engine.convert
    source: "extra:convert/generic"
    priority: 5
    parameters:
      - {name: input, type: "'T", io: input}
      - {name: output, type: Real, io: output}
  - name: engine.convert
    source: "extra:convert/with_dependency"
    priority: 5
    parameters:
      - {name: input, type: Integer, io: input}
      - {name: output, type: Real, io: output}
    dependencies:
      - {field: helper, name: math.add, kind: function, signature: [Integer, Integer, Integer]}
  - name: engine.copy
    source: "extra:copy/as_function"
    priority: 5
    parameters:
      - {name: input, type: Real, io: input}
      - {name: output, type: Real, io: output}
  - name: math.add
    source: "extra:math/generic_add"
    parameters:
      - {name: a, type: "'T", io: input}
      - {name: b, type: "'T", io: input}
      - {name: out, type: "'T", io: output}
"""
FILES = [
    parse_descriptors(path.read_text(encoding="utf-8"), origin=str(path))
    for path in (builtin_descriptors_path(), legacy_descriptors_path())
] + [parse_descriptors(EXTRA, origin="extra")]
TYPES = [
    parse_type(t)
    for t in (
        "Integer",
        "Real",
        "Boolean",
        "Text",
        "ByteArray",
        "RealArray",
        "Image",
        "ImageU8",
        "ImageF64",
        "List<Real>",
    )
]


def _reference_shape(info):
    """(kind, types, mutable index) of an entry, or None if any type is generic."""
    types = tuple(p.type for p in info.arg_params)
    if info.kind is not Kind.INPLACE:
        types += (info.special_param.type,)
    if not all(t.is_concrete() for t in types):
        return None
    return info.kind, types, info.mutable_index


def _reference_adaptations(env, shape):
    """(adapter, bindings, (kind, types, mutable index)) over every engine.adapt."""
    kind, types, mutable = shape
    rows = []
    for ad in env.candidates(ADAPT_NAME):
        patterns = adapter_patterns(ad)
        if patterns is None:
            continue
        frm, to = patterns
        if frm.kind is not kind or len(frm.types) != len(types) or frm.mutable_index != mutable:
            continue
        bindings = {}
        if not all(
            is_assignable(ct, ft, env.hierarchy, bindings)
            for ct, ft in zip(types, frm.types)
        ):
            continue
        to_types = tuple(t.substitute(bindings) for t in to.types)
        if all(t.is_concrete() for t in to_types):
            rows.append((ad, bindings, (to.kind, to_types, to.mutable_index)))
    return rows


def _reference_io_op(env, name, kind, frm, to):
    """First usable convert (or copy) entry taking ``frm`` and giving ``to``."""
    for info in env.candidates(name):
        if info.kind is not kind or len(info.arg_params) != 1 or info.dependencies:
            continue
        src, dst = info.arg_params[0].type, info.special_param.type
        if not (src.is_concrete() and dst.is_concrete()):
            continue
        if is_assignable(frm, src, env.hierarchy) and is_assignable(dst, to, env.hierarchy):
            return info
    return None


def _check_tables(env):
    for name in {n for info in env.infos for n in info.names}:
        expected = [i for i in env.candidates(name) if ADAPT_NAME not in i.names]
        rows = env.shaped.get(name, ())
        assert [info for info, _, _ in rows] == expected
        for info, shape, adaptations in rows:
            ref = _reference_shape(info)
            if ref is None:
                assert shape is None and adaptations == ()
                continue
            assert (shape.kind, shape.types, shape.mutable_index) == ref
            got = [
                (ad, dict(b), (t.kind, t.types, t.mutable_index))
                for ad, b, t in adaptations
            ]
            assert got == _reference_adaptations(env, ref)
    for frm in TYPES:
        assert _find_copy(env, frm) == _reference_io_op(env, COPY_NAME, Kind.COMPUTER, frm, frm)
        for to in TYPES:
            assert _find_convert(env, frm, to) == _reference_io_op(
                env, CONVERT_NAME, Kind.FUNCTION, frm, to
            )


def test_default_environment_tables_match_linear_scans():
    _check_tables(default_environment())


def _env(files):
    infos = [i for infos in files for i in infos]
    return OpEnvironment(infos, BINDINGS, hierarchy=default_hierarchy())


@settings(max_examples=25, deadline=None)
@given(order=st.randoms(use_true_random=False))
def test_shuffled_load_order_tables_match_linear_scans(order):
    files = [list(infos) for infos in FILES]
    order.shuffle(files)
    for infos in files:
        order.shuffle(infos)
    twin = _env(files)
    _check_tables(twin)
    in_order = _env(FILES)
    assert twin.shaped == in_order.shaped
    assert (twin.converts, twin.copies) == (in_order.converts, in_order.copies)
    generic = [row for row in twin.shaped["math.add"] if row[1] is None]
    assert [info.source for info, _, _ in generic] == ["extra:math/generic_add"]
    assert {info.source for info, _, _ in twin.converts + twin.copies}.isdisjoint(
        {"extra:convert/generic", "extra:convert/with_dependency", "extra:copy/as_function"}
    )
