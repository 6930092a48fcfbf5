"""Each name's matcher rows, built at its first lookup, equal the eager tables.

An environment used to build every name's DIRECT and shaped rows at
construction. ``_eager_rows`` below is that loop, kept as the reference.
Rows built one name at a time, in any first-lookup order, must equal it,
with the same sharing: candidates of one shape hold one shape object in
both rows and one adaptation tuple, whichever names were built first. The
registries are the stdlib, the shuffled twins of ``test_matcher_tables`` and
perfbench's synthetic registry at seeds 1-3 (read, not changed). Threads
that race to a name's first match build its rows once, and names no entry
carries store nothing.
"""

import importlib.util
import random
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_matcher_tables import FILES, HIERARCHY, _env

from opsforge.errors import NoMatchError
from opsforge.matcher import (
    ADAPT_NAME,
    NameRows,
    OpRequest,
    _adaptations,
    _encode_info,
    adapter_patterns,
    function_request,
)
from opsforge.registry import OpEnvironment, parse_descriptors
from opsforge.stdlib import (
    BINDINGS,
    builtin_descriptors_path,
    default_environment,
    default_hierarchy,
)
from opsforge.types import Kind, parse_type

ROOT = Path(__file__).resolve().parents[1]


def _eager_rows(by_name, hierarchy):
    """``(direct, shaped)`` of every name, as environments built them eagerly."""
    adapters = {}
    for info in by_name.get(ADAPT_NAME, ()):
        patterns = adapter_patterns(info)
        if patterns is not None:
            frm = patterns[0]
            key = (frm.kind, len(frm.types), frm.mutable_index)
            adapters.setdefault(key, []).append((info, patterns))
    encoded = {}
    shapes = {}
    made = {}
    direct, shaped = {}, {}
    for name, found in by_name.items():
        rows, adaptable = [], []
        for info in found:
            shape = encoded.get(info.signature_string())
            if shape is None:
                shape = _encode_info(info)
                shape = encoded[info.signature_string()] = shapes.setdefault(shape, shape)
            rows.append((info, shape))
            if ADAPT_NAME in info.names:
                continue
            fit = made.get(id(shape))
            if fit is None:
                group = adapters.get((shape.kind, len(shape.types), shape.mutable_index), ())
                fit = made[id(shape)] = (
                    (shape, _adaptations(group, shape, hierarchy))
                    if all(t.is_concrete() for t in shape.types)
                    else (None, ())
                )
            adaptable.append((info, *fit))
        direct[name] = tuple(rows)
        shaped[name] = tuple(adaptable)
    return direct, shaped


def _names(env):
    return sorted({n for info in env.infos for n in info.names})


def _sharing(direct, shaped):
    """Which rows hold one shape object, and which one adaptation tuple.

    Each shape and adaptation tuple is numbered by first sight, walking the
    names in sorted order, DIRECT rows before shaped ones."""
    ids: dict[int, int] = {}
    out = []
    for name in sorted(direct):
        out.append([ids.setdefault(id(shape), len(ids)) for _, shape in direct[name]])
        out.append([
            (ids.setdefault(id(shape), len(ids)), ids.setdefault(id(ad), len(ids)))
            for _, shape, ad in shaped[name]
        ])
    return out


def _check_rows_in_order(env, rng):
    """Build every name's rows in a random order; they and their sharing
    must equal the eager reference's."""
    names = _names(env)
    rng.shuffle(names)
    for name in names:
        env.name_rows(name)
    direct, shaped = _eager_rows({n: env.candidates(n) for n in names}, env.hierarchy)
    assert env.direct == direct and env.shaped == shaped
    assert _sharing(env.direct, env.shaped) == _sharing(direct, shaped)
    # a second lookup returns the stored rows themselves
    for name in names:
        got = env.name_rows(name)
        assert got[0] is env.direct[name] and got[1] is env.shaped[name]


@pytest.mark.parametrize("seed", range(3))
def test_default_environment_rows_in_any_order_equal_the_eager_tables(seed):
    _check_rows_in_order(default_environment(), random.Random(seed))


def test_a_fresh_environment_holds_rows_only_for_the_names_its_fixed_plans_reach():
    # filter.dog's three dependencies are a filter.gauss and a math.sub
    env = default_environment()
    assert set(env.direct) == set(env.shaped) == {"filter.gauss", "math.sub"}


@settings(max_examples=25, deadline=None)
@given(order=st.randoms(use_true_random=False))
def test_shuffled_twins_build_rows_in_any_order_as_the_eager_tables(order):
    files = [list(infos) for infos in FILES]
    order.shuffle(files)
    for infos in files:
        order.shuffle(infos)
    edges = list(HIERARCHY)
    order.shuffle(edges)
    _check_rows_in_order(_env(files, edges), order)


def _synth_module():
    spec = importlib.util.spec_from_file_location("synth", ROOT / "perfbench" / "synth.py")
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    return synth


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_synthetic_registry_rows_in_any_order_equal_the_eager_tables(seed):
    registry = _synth_module().SynthRegistry(seed)
    stdlib = parse_descriptors(builtin_descriptors_path().read_text(encoding="utf-8"))
    env = OpEnvironment(
        parse_descriptors(registry.text, "synth") + stdlib,
        {**BINDINGS, **registry.bindings},
        hierarchy=default_hierarchy(),
    )
    _check_rows_in_order(env, random.Random(seed))


ALIASED = """
ops:
  - name: demo.first
    aliases: [demo.second]
    source: "demo:both"
    priority: 1
    parameters:
      - {name: x, type: Real, io: input}
      - {name: out, type: Real, io: output}
  - name: demo.first
    source: "demo:first_only"
    parameters:
      - {name: x, type: Integer, io: input}
      - {name: out, type: Integer, io: output}
"""


@pytest.mark.parametrize("first", ["demo.first", "demo.second"])
def test_names_that_share_a_first_candidate_keep_their_own_rows(first):
    # demo.first has two candidates and demo.second one, the same first one
    env = OpEnvironment(parse_descriptors(ALIASED, "aliased"), BINDINGS)
    env.name_rows(first)
    sources = {
        name: [info.source for info, _ in env.name_rows(name)[0]]
        for name in ("demo.first", "demo.second")
    }
    assert sources == {"demo.first": ["demo:both", "demo:first_only"],
                       "demo.second": ["demo:both"]}
    # and the shared candidate holds one shape in both names' rows
    assert env.name_rows("demo.first")[0][0][1] is env.name_rows("demo.second")[0][0][1]


def _plan_table():
    spec = importlib.util.spec_from_file_location(
        "reference", ROOT / "perfbench" / "reference.py"
    )
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    return reference.PLAN_TABLE


def _request(row):
    name, kind, types, special, mutable = row["request"]
    kind = Kind(kind)
    args = tuple(parse_type(t) for t in types)
    if kind is Kind.FUNCTION:
        return OpRequest(name, kind, args, output_type=special and parse_type(special))
    if kind is Kind.COMPUTER:
        return OpRequest(name, kind, args, container_type=parse_type(special))
    return OpRequest(name, kind, args, mutable_index=mutable)


def _outcome(env, req):
    try:
        return env.match(req).signature
    except NoMatchError as exc:
        return str(exc)


def test_threads_racing_to_first_matches_build_each_name_once(monkeypatch):
    requests = [_request(row) for row in _plan_table().values()]
    expected = [_outcome(default_environment(cache_enabled=False), r) for r in requests]
    built = []
    build = NameRows._build

    def slow_build(self, found):
        # a wide window: a build without the lock would overlap another
        built.append(found)
        time.sleep(0.002)
        return build(self, found)

    monkeypatch.setattr(NameRows, "_build", slow_build)
    env = default_environment(cache_enabled=False)
    built.clear()  # the builds of the fixed dependency plans
    barrier = threading.Barrier(8)
    results = [None] * 8

    def work(k):
        # each thread takes the requests in its own order; every name is
        # wanted by every thread
        order = list(range(len(requests)))
        random.Random(k).shuffle(order)
        barrier.wait(timeout=60)
        got = {i: _outcome(env, requests[i]) for i in order}
        results[k] = [got[i] for i in range(len(requests))]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 8
    # each name's rows were built once, and stored; the misspelt name has
    # no candidates, so nothing was built or stored for it
    name_of = {id(env.candidates(name)): name for name in _names(env)}
    built_names = [name_of[id(found)] for found in built]
    assert len(built_names) == len(set(built_names))
    wanted = {r.name for r in requests} - {"filter.gaus"}
    fixed = {"filter.gauss", "math.sub"}
    assert wanted - fixed <= set(built_names)
    assert set(env.direct) == set(env.shaped) == set(built_names) | fixed


def test_unknown_names_store_no_rows():
    env = default_environment(cache_enabled=False)
    before = (len(env.direct), len(env.shaped))
    for i in range(10_000):
        name = f"miss.name{i}"
        assert env.name_rows(name) == ((), ())
        if i % 10 == 0:
            with pytest.raises(NoMatchError):
                env.match(function_request(name, ["Real"]))
    assert (len(env.direct), len(env.shaped)) == before


def test_a_dependency_resolved_at_build_reads_the_rows_it_built():
    # the fixed plans' lookups built these rows; a match after reads the
    # same tuples, so no name is built twice
    env = default_environment(cache_enabled=False)
    rows = dict(env.direct)
    env.match(function_request("filter.gauss", ["ImageF64", "Real"]))
    assert all(env.direct[name] is found for name, found in rows.items())
