"""The matcher's tables built once per environment agree with per-call scans.

An environment builds, per name, each candidate's shape, each non-adapter
candidate's adapter unifications, the filtered convert and copy lists, and
per base name the convert and copy rows ``_find_convert`` and
``_find_copy`` try. The linear scans below are what the matcher did on
every request before; they stay here as the reference, for the stdlib
environment, for twins loaded in a shuffled order and for drawn registries.
The twins also carry entries that the tables must leave out or mark
generic, and the requests include types no entry names. DIRECT's own fit
loop, which read each candidate's kind, arity and types per call, stays
here as the reference for DIRECT over the shapes through ``_bridge``.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from test_dispatch_cache import DRAWN_NAMES, DRAWN_TYPES, _drawn_requests, drawn_registries

from opsforge.errors import DependencyCycleError, NearMiss
from opsforge.matcher import (
    ADAPT_NAME,
    CONVERT_NAME,
    COPY_NAME,
    RoutineTag,
    _find_convert,
    _find_copy,
    _match_direct,
    _plan,
    _resolve_deps,
    _Search,
    adapter_patterns,
)
from opsforge.registry import Io, Kind, OpEnvironment, OpInfo, ParamSpec, parse_descriptors
from opsforge.stdlib import (
    BINDINGS,
    builtin_descriptors_path,
    default_environment,
    legacy_descriptors_path,
)
from opsforge.types import TypeHierarchy, is_assignable, parse_type

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
  - name: engine.convert
    source: "extra:convert/image_mean"
    parameters:
      - {name: input, type: Image, io: input}
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
        # named by no entry: an unknown base, a List no entry takes, and a
        # base only the twins' hierarchy knows
        "Unknown",
        "List<Integer>",
        "Sequence",
    )
]
# the twins' hierarchy; Image is named by extra:convert/image_mean
HIERARCHY = [
    ("ImageU8", "Image"),
    ("ImageF64", "Image"),
    ("ByteArray", "Sequence"),
    ("RealArray", "Sequence"),
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


def _usable_io_ops(env, name, kind):
    """``(info, src, dst)`` of each usable convert (or copy) entry, in order."""
    for info in env.candidates(name):
        if info.kind is not kind or len(info.arg_params) != 1 or info.dependencies:
            continue
        src, dst = info.arg_params[0].type, info.special_param.type
        if src.is_concrete() and dst.is_concrete():
            yield info, src, dst


def _reference_convert(env, frm, to):
    """First usable convert entry taking ``frm`` and giving ``to``."""
    for info, src, dst in _usable_io_ops(env, CONVERT_NAME, Kind.FUNCTION):
        if is_assignable(frm, src, env.hierarchy) and is_assignable(dst, to, env.hierarchy):
            return info
    return None


def _reference_copy(env, t):
    """First usable copy entry taking ``t`` content into a ``t`` container."""
    for info, src, dst in _usable_io_ops(env, COPY_NAME, Kind.COMPUTER):
        if is_assignable(t, src, env.hierarchy) and is_assignable(t, dst, env.hierarchy):
            return info
    return None


def _check_tables(env):
    for name in {n for info in env.infos for n in info.names}:
        direct, rows = env.name_rows(name)
        assert [info for info, _ in direct] == list(env.candidates(name))
        for info, shape in direct:
            types = tuple(p.type for p in info.arg_params)
            if info.kind is not Kind.INPLACE:
                types += (info.special_param.type,)
            assert (shape.kind, shape.types, shape.mutable_index) == (
                info.kind, types, info.mutable_index
            )
        # a candidate's DIRECT row and its shaped row hold one shape object
        shapes = {id(info): shape for info, shape in direct}
        expected = [i for i in env.candidates(name) if ADAPT_NAME not in i.names]
        assert [info for info, _, _ in rows] == expected
        for info, shape, adaptations in rows:
            ref = _reference_shape(info)
            if ref is None:
                assert shape is None and adaptations == ()
                continue
            assert shape is shapes[id(info)]
            assert (shape.kind, shape.types, shape.mutable_index) == ref
            got = [
                (ad, dict(b), (t.kind, t.types, t.mutable_index))
                for ad, b, t in adaptations
            ]
            assert got == _reference_adaptations(env, ref)
    for frm in TYPES:
        assert _find_copy(env, frm) == _reference_copy(env, frm)
        for to in TYPES:
            assert _find_convert(env, frm, to) == _reference_convert(env, frm, to)


def test_default_environment_tables_match_linear_scans():
    _check_tables(default_environment())


def _env(files, edges=HIERARCHY):
    infos = [i for infos in files for i in infos]
    return OpEnvironment(infos, BINDINGS, hierarchy=TypeHierarchy(edges))


@settings(max_examples=25, deadline=None)
@given(order=st.randoms(use_true_random=False))
def test_shuffled_load_order_tables_match_linear_scans(order):
    files = [list(infos) for infos in FILES]
    order.shuffle(files)
    for infos in files:
        order.shuffle(infos)
    edges = list(HIERARCHY)
    order.shuffle(edges)
    twin = _env(files, edges)
    _check_tables(twin)
    in_order = _env(FILES)
    names = {n for info in in_order.infos for n in info.names}
    assert {n: twin.name_rows(n) for n in names} == {n: in_order.name_rows(n) for n in names}
    generic = [row for row in twin.name_rows("math.add")[1] if row[1] is None]
    assert [info.source for info, _, _ in generic] == ["extra:math/generic_add"]
    # each usable row sits at least under its own source base
    indexed = [*twin.convert_rows.values(), *twin.copy_rows.values()]
    assert {info.source for rows in indexed for info, _, _ in rows}.isdisjoint(
        {"extra:convert/generic", "extra:convert/with_dependency", "extra:copy/as_function"}
    )
    assert (twin.convert_rows, twin.copy_rows) == (in_order.convert_rows, in_order.copy_rows)
    # through the hierarchy, both images reach the convert that takes Image
    for image in ("ImageU8", "ImageF64"):
        assert _find_convert(twin, parse_type(image), parse_type("Real")).source == (
            "extra:convert/image_mean"
        )


# concrete types drawn registries name, and some they never do
DRAWN_CONCRETE = [t for name, ts in DRAWN_TYPES.items() if "'" not in name for t in ts] + [
    parse_type(t) for t in ("Zeta", "List<Zeta>", "List<List<Alpha>>")
]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(registry=drawn_registries())
def test_rows_by_base_answer_as_the_scan_on_drawn_registries(registry):
    infos, edges, _ = registry
    env = OpEnvironment(infos, BINDINGS, hierarchy=TypeHierarchy(edges), cache_enabled=False)
    for frm in DRAWN_CONCRETE:
        assert _find_copy(env, frm) is _reference_copy(env, frm)
        for to in DRAWN_CONCRETE:
            assert _find_convert(env, frm, to) is _reference_convert(env, frm, to)


def _reference_direct(s, req):
    """DIRECT with its own fit: each candidate's kind, arity, mutable index
    and types read from the OpInfo, then the arguments, the output or the
    container tested in place."""
    hierarchy = s.env.hierarchy
    for info in s.env.candidates(req.name):
        s.considered += 1
        if info.kind is not req.kind:
            continue
        args = info.arg_params
        if len(args) != len(req.arg_types):
            continue
        if req.kind is Kind.INPLACE and info.mutable_index != req.mutable_index:
            continue
        bindings = {}
        failed = None
        for rt, p in zip(req.arg_types, args):
            if not is_assignable(rt, p.type, hierarchy, bindings):
                failed = NearMiss(info.source, "type mismatch", p.name)
                break
        if failed is not None:
            s.near.append(failed)
            continue
        out_type = None
        if req.kind is Kind.FUNCTION:
            produced = info.special_param.type.substitute(bindings)
            if not produced.is_concrete() or (
                req.output_type is not None
                and not is_assignable(produced, req.output_type, hierarchy)
            ):
                s.near.append(NearMiss(info.source, "type mismatch", info.special_param.name))
                continue
            out_type = produced
        elif req.kind is Kind.COMPUTER:
            if not is_assignable(
                req.container_type, info.special_param.type, hierarchy, bindings
            ):
                s.near.append(NearMiss(info.source, "type mismatch", info.special_param.name))
                continue
        children = _resolve_deps(s, info, bindings)
        if children is not None:
            return _plan(req, info, RoutineTag.DIRECT, children, out_type=out_type)
    return None


def _direct_outcome(env, req, routine):
    """``(signature, out_type)`` of a DIRECT plan or None, the near-miss lines
    and the candidates considered, from a fresh search."""
    s = _Search(env, ())
    try:
        tree = routine(s, req)
    except DependencyCycleError as exc:
        return str(exc)
    plan = None if tree is None else (tree.signature, tree.out_type)
    return plan, [n.render() for n in s.near], s.considered


# A function whose output variable no argument binds: DIRECT must refuse it,
# since its output stays generic, and log a type mismatch at its output.
FREE_OUTPUT = st.builds(
    lambda name, priority: OpInfo(
        (name,),
        Kind.FUNCTION,
        (
            ParamSpec("p0", DRAWN_TYPES["'T"][0], Io.INPUT),
            ParamSpec("out", DRAWN_TYPES["'U"][0], Io.OUTPUT),
        ),
        "drawn:free_output",
        priority=float(priority),
    ),
    st.sampled_from(DRAWN_NAMES),
    st.integers(0, 2),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(registry=drawn_registries(), free=FREE_OUTPUT, seed=st.integers(0, 2**32 - 1))
def test_direct_fits_as_its_own_loop_did_on_drawn_registries(registry, free, seed):
    # drawn candidates bind type variables in their arguments, generic
    # function outputs and computer containers, which only _bridge's
    # bindings carry from one position to the next
    infos, edges, bases = registry
    infos = [*infos, free]
    env = OpEnvironment(infos, BINDINGS, hierarchy=TypeHierarchy(edges), cache_enabled=False)
    rng = random.Random(seed)
    for _ in range(20):
        for req in _drawn_requests(rng, infos, bases):
            assert _direct_outcome(env, req, _match_direct) == _direct_outcome(
                env, req, _reference_direct
            )
