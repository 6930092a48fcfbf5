"""Matching routines, near-miss reporting, caching, and plan signatures.

Golden signature strings below were derived by applying the documented
grammar `source|ROUTINE|[middle]|(children,)` to the stdlib descriptors by
hand, then frozen.
"""

import pytest

from opsforge import matcher
from opsforge.errors import DependencyCycleError, NoMatchError, RegistrationError
from opsforge.matcher import (
    OpRequest,
    RoutineTag,
    computer_request,
    function_request,
    inplace_request,
)
from opsforge.registry import Kind, OpEnvironment, parse_descriptors
from opsforge.stdlib import BINDINGS, default_environment
from opsforge.types import parse_type

GOLDEN_ADD = "builtin:math/add_ints|DIRECT|[]|()"
GOLDEN_DOG_COMPUTER = (
    "builtin:filter/dog|DIRECT|[]|("
    "builtin:filter/gauss|DIRECT|[]|(),"
    "builtin:filter/gauss|DIRECT|[]|(),"
    "builtin:math/sub_reals|ADAPTED|"
    "[adapt:builtin:adapt/lift2_real_to_imagef64|DIRECT|[]|()]|())"
)
GOLDEN_GAUSS_FN = (
    "builtin:filter/gauss|ADAPTED|"
    "[adapt:builtin:adapt/computer2_to_function2|DIRECT|[]|()]|()"
)
GOLDEN_INC_CONVERTED = (
    "builtin:benchmark/increment_u8|CONVERTED|"
    "[conv0:in=builtin:convert/reals_to_bytes,out=builtin:convert/bytes_to_reals;"
    "copyback:builtin:copy/realarray]|()"
)


@pytest.fixture(scope="module")
def env():
    return default_environment(include_legacy=False)


def test_direct_add_golden_signature(env):
    tree = env.match(function_request("math.add", ["Integer", "Integer"], "Integer"))
    assert tree.signature == GOLDEN_ADD
    assert tree.routine is RoutineTag.DIRECT
    assert tree.children == ()


def test_direct_tree_carries_no_transformations(env):
    tree = env.match(function_request("math.add", ["Integer", "Integer"], "Integer"))
    assert tree.adapter is None
    assert tree.conversions == ()


def test_dog_computer_golden_signature(env):
    tree = env.match(
        computer_request("filter.dog", ["ImageF64", "Real", "Real"], "ImageF64")
    )
    assert tree.signature == GOLDEN_DOG_COMPUTER
    assert len(tree.children) == 3
    assert [c.info.name for c in tree.children] == [
        "filter.gauss",
        "filter.gauss",
        "math.sub",
    ]


def test_function_form_of_computer_adapts(env):
    tree = env.match(function_request("filter.gauss", ["ImageF64", "Real"], "ImageF64"))
    assert tree.signature == GOLDEN_GAUSS_FN
    assert tree.routine is RoutineTag.ADAPTED
    assert tree.adapter is not None


def test_converted_inplace_golden_signature(env):
    tree = env.match(inplace_request("benchmark.increment", ["RealArray"], 0))
    assert tree.signature == GOLDEN_INC_CONVERTED
    assert tree.routine is RoutineTag.CONVERTED
    assert tree.copyback is not None


def test_adapted_and_converted_is_last_resort(env):
    tree = env.match(function_request("benchmark.increment", ["RealArray"]))
    assert tree.routine is RoutineTag.ADAPTED_AND_CONVERTED
    assert tree.adapter is not None
    assert tree.conversions


def test_routine_precedence_direct_wins(env):
    # the inplace form exists, so no adapter/conversion may be consulted
    tree = env.match(inplace_request("benchmark.increment", ["ByteArray"], 0))
    assert tree.routine is RoutineTag.DIRECT


def test_requests_must_be_concrete():
    with pytest.raises(RegistrationError):
        function_request("math.add", ["'E", "Integer"], "Integer")


def test_request_kind_field_exclusivity():
    with pytest.raises(RegistrationError):
        OpRequest(
            "math.add",
            Kind.FUNCTION,
            (parse_type("Integer"),),
            output_type=parse_type("Integer"),
            mutable_index=0,
        )
    with pytest.raises(RegistrationError):
        OpRequest("x.y", Kind.COMPUTER, (parse_type("Integer"),))
    with pytest.raises(RegistrationError):
        OpRequest("x.y", Kind.INPLACE, (parse_type("Integer"),), mutable_index=3)


@pytest.mark.parametrize("field", ["output_type", "container_type"])
def test_inplace_requests_refuse_an_output_or_a_container(field):
    # the mutable index is valid, so only the extra type can be refused
    with pytest.raises(RegistrationError, match="inplace requests take only a mutable index"):
        OpRequest("x.y", Kind.INPLACE, (parse_type("Integer"),), mutable_index=0,
                  **{field: parse_type("Integer")})


def test_no_candidates_error_suggests_help(env):
    with pytest.raises(NoMatchError) as err:
        env.match(function_request("no.such.op", ["Integer"], "Integer"))
    msg = str(err.value)
    assert "0 candidates" in msg
    assert "help" in msg
    assert err.value.near_misses == ()


def test_near_miss_line_format(env):
    with pytest.raises(NoMatchError) as err:
        env.match(function_request("math.add", ["Text", "Text"], "Text"))
    rendered = [m.render() for m in err.value.near_misses]
    assert "builtin:math/add_ints :: type mismatch @ param a" in rendered
    for line in rendered:
        source, rest = line.split(" :: ", 1)
        reason, param = rest.split(" @ param ", 1)
        assert source and reason and param


def test_near_miss_missing_convert(env):
    with pytest.raises(NoMatchError) as err:
        env.match(function_request("math.add", ["Boolean", "Boolean"], "Boolean"))
    reasons = {m.reason for m in err.value.near_misses}
    assert "missing convert" in reasons or "type mismatch" in reasons


@pytest.mark.parametrize(
    "request_, line",
    [
        (
            function_request("math.div", ["Real", "Real"], "Boolean"),
            "builtin:math/div_reals :: missing convert @ param quotient",
        ),
        (
            computer_request("filter.gauss", ["ImageF64", "Real"], "Boolean"),
            "builtin:filter/gauss :: missing convert @ param output",
        ),
    ],
    ids=["output", "container"],
)
def test_near_miss_missing_convert_names_output_and_container(env, request_, line):
    with pytest.raises(NoMatchError) as err:
        env.match(request_)
    assert line in [m.render() for m in err.value.near_misses]


def test_converted_container_golden_signature(env):
    tree = env.match(computer_request("filter.gauss", ["ImageF64", "Real"], "ImageU8"))
    assert tree.routine is RoutineTag.CONVERTED
    assert tree.signature == (
        "builtin:filter/gauss|CONVERTED|[conv2:in=builtin:convert/u8_to_f64,"
        "out=builtin:convert/f64_to_u8;copyback:builtin:copy/imageu8]|()"
    )


def test_priority_dominance_between_equal_candidates():
    text = """
ops:
  - name: pick.me
    priority: 1.0
    source: "test:pick/low"
    parameters:
      - {name: a, type: Integer, io: input}
      - {name: out, type: Integer, io: output}
  - name: pick.me
    priority: 2.0
    source: "test:pick/high"
    parameters:
      - {name: a, type: Integer, io: input}
      - {name: out, type: Integer, io: output}
"""
    env = OpEnvironment(parse_descriptors(text), BINDINGS)
    tree = env.match(function_request("pick.me", ["Integer"], "Integer"))
    assert tree.info.source == "test:pick/high"


def test_raising_dependency_priority_swaps_child():
    base = """
ops:
  - name: outer.op
    source: "test:outer/op"
    parameters:
      - {{name: a, type: Integer, io: input}}
      - {{name: out, type: Integer, io: output}}
    dependencies:
      - {{field: helper, name: help.me, kind: function, signature: [Integer, Integer]}}
  - name: help.me
    priority: {pa}
    source: "test:helper/a"
    parameters:
      - {{name: a, type: Integer, io: input}}
      - {{name: out, type: Integer, io: output}}
  - name: help.me
    priority: {pb}
    source: "test:helper/b"
    parameters:
      - {{name: a, type: Integer, io: input}}
      - {{name: out, type: Integer, io: output}}
"""
    req = function_request("outer.op", ["Integer"], "Integer")
    env1 = OpEnvironment(parse_descriptors(base.format(pa=1, pb=2)), BINDINGS)
    assert env1.match(req).children[0].info.source == "test:helper/b"
    env2 = OpEnvironment(parse_descriptors(base.format(pa=3, pb=2)), BINDINGS)
    assert env2.match(req).children[0].info.source == "test:helper/a"


def test_unmet_dependency_skips_candidate():
    text = """
ops:
  - name: dep.orphan
    source: "test:dep/orphan"
    parameters:
      - {name: a, type: Integer, io: input}
      - {name: out, type: Integer, io: output}
    dependencies:
      - {field: helper, name: ghost.helper, kind: function, signature: [Integer, Integer]}
"""
    env = OpEnvironment(parse_descriptors(text), BINDINGS)
    # the unmet dependency is found once, at build; every match logs it
    errors = []
    for _ in range(2):
        with pytest.raises(NoMatchError) as err:
            env.match(function_request("dep.orphan", ["Integer"], "Integer"))
        errors.append(err.value)
    first, again = ([m.render() for m in e.near_misses] for e in errors)
    assert "test:dep/orphan :: unmet dependency @ param helper" in first
    assert again == first
    assert str(errors[1]) == str(errors[0])


CYCLE_OPS = """
ops:
  - name: cyc.a
    source: "test:cyc/a"
    parameters:
      - {name: x, type: Integer, io: input}
      - {name: out, type: Integer, io: output}
    dependencies:
      - {field: helper, name: cyc.b, kind: function, signature: [Integer, Integer]}
  - name: cyc.b
    source: "test:cyc/b"
    parameters:
      - {name: x, type: Integer, io: input}
      - {name: out, type: Integer, io: output}
    dependencies:
      - {field: helper, name: cyc.a, kind: function, signature: [Integer, Integer]}
"""


def test_dependency_cycle_hits_depth_cap():
    env = OpEnvironment(parse_descriptors(CYCLE_OPS), BINDINGS, cache_enabled=False)
    with pytest.raises(DependencyCycleError) as err:
        env.match(function_request("cyc.a", ["Integer"], "Integer"))
    msg = str(err.value)
    assert "cyc.a" in msg and "cyc.b" in msg


def test_dependency_cycle_error_names_the_depth_cap(monkeypatch):
    monkeypatch.setattr(matcher, "MAX_DEPTH", 5)
    env = OpEnvironment(parse_descriptors(CYCLE_OPS), BINDINGS, cache_enabled=False)
    with pytest.raises(DependencyCycleError) as err:
        env.match(function_request("cyc.a", ["Integer"], "Integer"))
    assert str(err.value).startswith("dependency resolution exceeded depth 5, ")
    assert len(err.value.path) == 6


def test_dependency_cycle_on_a_cached_environment_raises_at_match():
    # the cycle is met at build too; the environment still builds, with
    # nothing cached, and a match raises the error it always raised
    env = OpEnvironment(parse_descriptors(CYCLE_OPS), BINDINGS)
    assert len(env.cache) == 0 and env.cache.stats() == (0, 0)
    with pytest.raises(DependencyCycleError) as err:
        env.match(function_request("cyc.a", ["Integer"], "Integer"))
    assert str(err.value).startswith(f"dependency resolution exceeded depth {matcher.MAX_DEPTH}, ")
    assert len(err.value.path) == matcher.MAX_DEPTH + 1


DOG_REQUESTS = [
    computer_request("filter.dog", ["ImageF64", "Real", "Real"], "ImageF64"),
    function_request("filter.dog", ["ImageF64", "Real", "Real"]),
]


@pytest.mark.parametrize("req", DOG_REQUESTS, ids=["computer", "function"])
def test_fixed_dependencies_are_not_matched_again_per_match(monkeypatch, req):
    off = default_environment(cache_enabled=False, include_legacy=False)
    on = default_environment(include_legacy=False)
    searched = []
    inner = matcher._match_internal

    def counting(env, r, stack):
        searched.append(r.name)
        return inner(env, r, stack)

    monkeypatch.setattr(matcher, "_match_internal", counting)
    tree = off.match(req)
    assert searched == ["filter.dog"]
    assert [c.info.name for c in tree.children] == ["filter.gauss", "filter.gauss", "math.sub"]
    if req.kind is Kind.FUNCTION:
        assert tree.adapter.info.source == "builtin:adapt/computer3_to_function3"
    cached = on.match(req)
    assert tree == cached
    assert tree.children == cached.children
    assert tree.signature == cached.signature
    # a cached environment holds the plan it was asked for, not its children
    assert len(on.cache) == 1


@pytest.mark.parametrize("ops", ["stdlib", "cycle"])
def test_building_an_environment_leaves_its_cache_untouched(ops):
    if ops == "stdlib":
        env = default_environment(include_legacy=False)
    else:
        env = OpEnvironment(parse_descriptors(CYCLE_OPS), BINDINGS)
    assert len(env.cache) == 0
    assert env.cache.stats() == (0, 0)
    assert env.match_calls == 0


def test_fixed_children_skip_the_depth_guard_like_a_cache_hit(monkeypatch):
    env = default_environment(cache_enabled=False, include_legacy=False)
    monkeypatch.setattr(matcher, "MAX_DEPTH", 1)
    # dog itself sits at depth 1; its children resolved when env was built
    tree = env.match(DOG_REQUESTS[0])
    assert tree.signature == GOLDEN_DOG_COMPUTER


def test_dependencies_that_follow_bindings_resolve_per_match():
    text = """
ops:
  - name: gen.outer
    source: "test:gen/outer"
    parameters:
      - {name: a, type: "'A", io: input}
      - {name: out, type: "'A", io: output}
    dependencies:
      - {field: helper, name: gen.helper, kind: function, signature: ["'A", "'A"]}
  - name: gen.helper
    source: "test:gen/helper"
    parameters:
      - {name: a, type: Integer, io: input}
      - {name: out, type: Integer, io: output}
"""
    env = OpEnvironment(parse_descriptors(text), BINDINGS, cache_enabled=False)
    tree = env.match(function_request("gen.outer", ["Integer"], "Integer"))
    assert tree.children[0].info.source == "test:gen/helper"
    with pytest.raises(NoMatchError) as err:
        env.match(function_request("gen.outer", ["Real"], "Real"))
    lines = [m.render() for m in err.value.near_misses]
    assert "test:gen/outer :: unmet dependency @ param helper" in lines


def test_cache_serves_identical_tree_and_counts_hits():
    env = default_environment(cache_enabled=True, include_legacy=False)
    req = function_request("math.add", ["Integer", "Integer"], "Integer")
    first = env.match(req)
    again = env.match(req)
    assert again is first
    hits, misses = env.cache.stats()
    assert hits == 1 and misses == 1
    # an equal but distinct request object still hits
    assert env.match(function_request("math.add", ["Integer", "Integer"], "Integer")) is first
    assert env.cache.stats()[0] == 2


def test_cache_transparency():
    req = computer_request("filter.dog", ["ImageF64", "Real", "Real"], "ImageF64")
    on = default_environment(cache_enabled=True, include_legacy=False).match(req)
    off = default_environment(cache_enabled=False, include_legacy=False).match(req)
    assert on.signature == off.signature


def test_determinism_across_fresh_environments():
    req = function_request("filter.dog", ["ImageF64", "Real", "Real"], "ImageF64")
    sigs = {
        default_environment(cache_enabled=False, include_legacy=False)
        .match(req)
        .signature
        for _ in range(5)
    }
    assert len(sigs) == 1


@pytest.mark.parametrize(
    "req",
    [
        function_request("math.add", ["Integer", "Integer"], "Integer"),
        computer_request("filter.dog", ["ImageF64", "Real", "Real"], "ImageF64"),
        inplace_request("benchmark.increment", ["RealArray"], 0),
    ],
    ids=["direct", "children", "converted"],
)
def test_two_matches_of_one_request_share_one_signature_object(req):
    # cache off, so each match builds its own tree; a signature names one plan
    # and is one string, however often the plan is matched
    env = default_environment(cache_enabled=False, include_legacy=False)
    first, again = env.match(req), env.match(req)
    assert again is not first
    assert again.signature is first.signature
    other = default_environment(cache_enabled=False, include_legacy=False).match(req)
    assert other.signature is first.signature


def test_signatures_injective_across_distinct_plans(env):
    reqs = [
        function_request("math.add", ["Integer", "Integer"], "Integer"),
        function_request("math.add", ["Real", "Real"], "Real"),
        inplace_request("benchmark.increment", ["ByteArray"], 0),
        inplace_request("benchmark.increment", ["RealArray"], 0),
        computer_request("filter.gauss", ["ImageF64", "Real"], "ImageF64"),
    ]
    sigs = [env.match(r).signature for r in reqs]
    assert len(set(sigs)) == len(sigs)


def test_alias_matches_like_canonical_name(env):
    canonical = env.match(function_request("math.add", ["Integer", "Integer"], "Integer"))
    aliased = env.match(function_request("math.plus", ["Integer", "Integer"], "Integer"))
    assert aliased.signature == canonical.signature


def test_request_key_is_canonical():
    req = inplace_request("benchmark.increment", ["ByteArray"], 0)
    same = inplace_request("benchmark.increment", ["ByteArray"], 0)
    assert req == same
    assert req.cache_key == same.cache_key
    assert hash(req) == hash(same)
