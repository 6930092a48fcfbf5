"""The cached builder path: one request-keyed store of plans and runners.

A cached builder call skips request construction and matching, so these
tests pin what it must still do exactly like an uncached call: raise the
same validation errors, produce the same payloads and history signatures,
report progress to listeners added later, and stay consistent when one
environment is shared across threads. A plan compiles once, when its
runner is made, so these tests also pin that a cached plan never compiles
again and that plans sharing a signature still run their own code. No
cached runner points back at its environment, so a dropped environment is
freed at once, without the cyclic garbage collector.
"""

import functools
import gc
import random
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from opsforge import execution
from opsforge.errors import (
    DependencyCycleError,
    NoMatchError,
    OpsError,
    RegistrationError,
)
from opsforge.matcher import MatchCache, OpRequest
from opsforge.registry import (
    DependencySpec,
    Io,
    Kind,
    OpEnvironment,
    OpInfo,
    ParamSpec,
    parse_descriptors,
)
from opsforge.stdlib import (
    BINDINGS,
    builtin_descriptors_path,
    default_describe_table,
    default_environment,
    default_hierarchy,
    legacy_descriptors_path,
)
from opsforge.types import TypeHierarchy, parse_type
from opsforge.values import Value, image_f64, image_u8, wrap


def _rand_image(seed, w=8, h=8):
    rng = np.random.default_rng(seed)
    return image_f64(w, h, rng.random(w * h))


# -- errors on the fast path ------------------------------------------------

INVALID = {
    "mutable index out of range": (
        lambda env: env.op("benchmark.increment").input(wrap(bytearray([1]))).mutate(index=3),
        lambda env: env.op("benchmark.increment").input(wrap(bytearray([1]))).mutate(),
    ),
    "non-concrete output type": (
        lambda env: env.op("math.add").input(2, 3).output_type("'T").apply(),
        lambda env: env.op("math.add").input(2, 3).apply(),
    ),
    "non-concrete staged input type": (
        lambda env: env.op("math.add").input_types("'T", "Integer").function(),
        lambda env: env.op("math.add").input_types("Integer", "Integer").function(),
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_request_raises_the_same_error_before_and_after_caching(case):
    invalid, valid = INVALID[case]
    env = default_environment(include_legacy=False)
    with pytest.raises(RegistrationError) as first:
        invalid(env)
    assert len(env.cache) == 0
    valid(env)
    valid(env)
    cached = len(env.cache)
    assert cached > 0
    for _ in range(3):
        with pytest.raises(RegistrationError) as again:
            invalid(env)
        assert str(again.value) == str(first.value)
    assert len(env.cache) == cached


# -- cache on equals cache off ----------------------------------------------


def _gauss_handle(env):
    handle = (
        env.op("filter.gauss")
        .input_types("ImageF64", "Real")
        .container_type("ImageF64")
        .computer()
    )
    return handle(_rand_image(3), wrap(1.2), container=wrap(np.zeros((8, 8))))


def _increment_handle(env):
    data = wrap(bytearray([41, 7]))
    return env.op("benchmark.increment").input_types("ByteArray").inplace()(data)


# Each call builds fresh inputs, so running it twice on one environment
# repeats the same request with equal arguments.
CALLS = {
    "apply math.add": lambda env: env.op("math.add").input(2, 3).apply(),
    "apply math.sub reals": lambda env: env.op("math.sub").input(9.5, 3.25).apply(),
    "apply math.add to Real": lambda env: env.op("math.add")
    .input(2, 3)
    .output_type("Real")
    .apply(),
    "apply filter.gauss": lambda env: env.op("filter.gauss")
    .input(_rand_image(1), wrap(1.5))
    .apply(),
    "apply filter.dog": lambda env: env.op("filter.dog")
    .input(_rand_image(2), wrap(1.0), wrap(2.0))
    .apply(),
    "apply benchmark.increment": lambda env: env.op("benchmark.increment")
    .input(wrap(bytearray([41, 7])))
    .apply(),
    "compute copy.array": lambda env: env.op("copy.array")
    .input(wrap(bytearray([7, 8])))
    .container(wrap(bytearray(2)))
    .compute(),
    "compute filter.gauss": lambda env: env.op("filter.gauss")
    .input(_rand_image(3), wrap(1.2))
    .container(wrap(np.zeros((8, 8))))
    .compute(),
    "compute benchmark.increment": lambda env: env.op("benchmark.increment")
    .input(wrap(bytearray([41, 7])))
    .container(wrap(bytearray(2)))
    .compute(),
    "mutate benchmark.increment": lambda env: env.op("benchmark.increment")
    .input(wrap(bytearray([41, 7])))
    .mutate(),
    "mutate benchmark.increment converted": lambda env: env.op("benchmark.increment")
    .input(wrap(np.array([41.0, 7.0])))
    .mutate(),
    "function handle math.add": lambda env: env.op("math.add")
    .input_types("Integer", "Integer")
    .function()(2, 3),
    "computer handle filter.gauss": _gauss_handle,
    "inplace handle benchmark.increment": _increment_handle,
}


def _payload(value):
    p = value.payload
    if isinstance(p, np.ndarray):
        return p.tobytes()
    return bytes(p) if isinstance(p, bytearray) else p


@pytest.mark.parametrize("name", sorted(CALLS))
def test_cached_and_uncached_environments_agree_call_by_call(name):
    call = CALLS[name]
    on = default_environment(include_legacy=False)
    off = default_environment(cache_enabled=False, include_legacy=False)
    for _ in range(3):
        a, b = call(on), call(off)
        assert a.type == b.type
        assert _payload(a) == _payload(b)
        assert on.history.lookup(a).signature == off.history.lookup(b).signature


@pytest.mark.parametrize(
    "name", sorted(n for n in CALLS if "handle" not in n)
)
def test_a_repeated_builder_call_is_exactly_one_cache_hit(name):
    call = CALLS[name]
    env = default_environment(include_legacy=False)
    call(env)
    hits, misses = env.cache.stats()
    size = len(env.cache)
    call(env)
    assert env.cache.stats() == (hits + 1, misses)
    assert len(env.cache) == size


@pytest.mark.parametrize(
    "name", sorted(n for n in CALLS if "handle" not in n)
)
def test_uncached_builder_call_matches_once(name):
    call = CALLS[name]
    env = default_environment(cache_enabled=False, include_legacy=False)
    for k in range(1, 4):
        call(env)
        assert env.match_calls == k
    assert len(env.cache) == 0
    assert env.cache.stats() == (0, 0)


# -- cache on, cache off and load order agree on random requests ------------

# one parsed entry list per stdlib descriptor file, in file order
STDLIB_FILES = [
    parse_descriptors(path.read_text(encoding="utf-8"), origin=str(path))
    for path in (builtin_descriptors_path(), legacy_descriptors_path())
]
STDLIB_INFOS = [info for infos in STDLIB_FILES for info in infos]
STDLIB_NAMES = sorted({n for info in STDLIB_INFOS for n in info.names})
UNKNOWN_NAME = "no.such_op"
CONCRETE_TYPES = [
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
    )
]


def _stdlib_env(infos, cache_enabled):
    return OpEnvironment(
        infos,
        BINDINGS,
        hierarchy=default_hierarchy(),
        describe_table=default_describe_table(),
        cache_enabled=cache_enabled,
    )


@st.composite
def stdlib_requests(draw):
    """Requests shaped after a random stdlib entry, often perturbed into a miss."""
    info = draw(st.sampled_from(STDLIB_INFOS))
    # the entry's own name, kind and types are drawn more often than noise
    name = draw(st.sampled_from([*info.names * 6, UNKNOWN_NAME]))
    any_type = st.sampled_from(CONCRETE_TYPES)
    own = [
        p.type if p.type.is_concrete() else draw(any_type) for p in info.arg_params
    ]
    args = draw(st.sampled_from([own, own, None]))
    if args is None:
        args = draw(st.lists(any_type, max_size=3))
    kind = draw(st.sampled_from([info.kind] * 3 + list(Kind)))
    special = info.special_param.type
    special = special if special.is_concrete() else draw(any_type)
    if kind is Kind.FUNCTION:
        out = draw(st.none() | st.just(special) | any_type)
        return OpRequest(name, kind, tuple(args), output_type=out)
    if kind is Kind.COMPUTER:
        container = draw(st.just(special) | any_type)
        return OpRequest(name, kind, tuple(args), container_type=container)
    if not args:
        args = [draw(any_type)]
    index = draw(st.integers(0, len(args) - 1))
    return OpRequest(name, kind, tuple(args), mutable_index=index)


def _outcome(env, req):
    """The plan signature, or the near-miss lines of the failed match."""
    try:
        return env.match(req).signature
    except NoMatchError as exc:
        return [m.render() for m in exc.near_misses]


@pytest.fixture(scope="module")
def cached_and_uncached():
    return _stdlib_env(STDLIB_INFOS, True), _stdlib_env(STDLIB_INFOS, False)


@settings(max_examples=150, deadline=None)
@given(req=stdlib_requests(), order=st.randoms(use_true_random=False))
def test_cache_and_load_order_do_not_change_matching(cached_and_uncached, req, order):
    on, off = cached_and_uncached
    files = [list(infos) for infos in STDLIB_FILES]
    order.shuffle(files)
    for infos in files:
        order.shuffle(infos)
    shuffled = _stdlib_env([i for infos in files for i in infos], True)

    expected = _outcome(off, req)
    # the second call on the cached environment is a hit when the first matched
    assert _outcome(on, req) == expected
    assert _outcome(on, req) == expected
    assert _outcome(shuffled, req) == expected

    assert shuffled.infos == off.infos
    for name in [*STDLIB_NAMES, UNKNOWN_NAME]:
        assert list(shuffled.candidates(name)) == [
            i for i in shuffled.infos if name in i.names
        ]


# -- the same agreement on drawn registries unlike the stdlib ---------------

# Small registries with their own base names in a random acyclic hierarchy,
# concrete, type-variable and List<...> parameters, priority ties across
# load orders, dependencies, two converts, a copy, and two of the stdlib's
# engine.adapt entries (their bindings are in BINDINGS).
DRAWN_BASES = ("Alpha", "Beta", "Gamma", "Delta", "Omega")
DRAWN_NAMES = ("d.one", "d.two", "d.three", "d.four")
STDLIB_ADAPTERS = [i for i in STDLIB_INFOS if i.name == "engine.adapt"]
# parsed once: parse_type would otherwise dominate the test's time
DRAWN_TYPES = {
    name: (parse_type(name), parse_type(f"List<{name}>"))
    for name in (*DRAWN_BASES, "'T", "'U")
}


def _type_choices(names):
    """Each type named in ``names`` twice, and a List of it once."""
    return [t for name in names for t in DRAWN_TYPES[name] + DRAWN_TYPES[name][:1]]


# strategies built once per name tuple: building them per draw costs ~0.5 s
@functools.cache
def _types(names):
    return st.sampled_from(_type_choices(names))


KINDS = st.sampled_from(list(Kind))


def _drawn_op(draw, source, bases):
    kind = draw(KINDS)
    types = draw(st.lists(_types(bases + ("'T", "'U")), min_size=1, max_size=3))
    # outputs and dependencies use only the variables the arguments bind
    bound = bases + tuple(sorted(f"'{v}" for t in types for v in t.variables()))
    params = [ParamSpec(f"p{i}", t, Io.INPUT) for i, t in enumerate(types)]
    if kind is Kind.INPLACE:
        at = draw(st.integers(0, len(params) - 1))
        params[at] = ParamSpec(f"p{at}", types[at], Io.MUTABLE)
    else:
        io = Io.OUTPUT if kind is Kind.FUNCTION else Io.CONTAINER
        params.append(ParamSpec("out", draw(_types(bound)), io))
    deps = ()
    if draw(st.integers(0, 4)) == 0:
        dep_kind = draw(KINDS)
        width = 1 if dep_kind is Kind.INPLACE else 2
        signature = tuple(draw(_types(bound)) for _ in range(width))
        name = draw(st.sampled_from(DRAWN_NAMES))
        deps = (DependencySpec("dep", name, dep_kind, signature),)
    return OpInfo(
        (draw(st.sampled_from(DRAWN_NAMES)),),
        kind,
        tuple(params),
        source,
        priority=float(draw(st.integers(0, 2))),
        dependencies=deps,
    )


def _engine_op(name, kind, source, src, dst):
    io = Io.OUTPUT if kind is Kind.FUNCTION else Io.CONTAINER
    params = (ParamSpec("src", src, Io.INPUT), ParamSpec("dst", dst, io))
    return OpInfo((name,), kind, params, source)


@st.composite
def drawn_registries(draw):
    """``(infos, hierarchy edges, base names)`` of one drawn registry."""
    bases = DRAWN_BASES[: draw(st.integers(2, 5))]
    # edges only run from a later base to an earlier one, so no cycle forms
    edges = [
        (sub, sup)
        for i, sub in enumerate(bases)
        for sup in bases[:i]
        if draw(st.integers(0, 2)) == 0
    ]
    n = draw(st.integers(3, 12))
    infos = [_drawn_op(draw, f"drawn:op{i}", bases) for i in range(n)]
    base = st.sampled_from([DRAWN_TYPES[name][0] for name in bases])
    for i in range(2):
        a, b = draw(base), draw(base)
        infos.append(_engine_op("engine.convert", Kind.FUNCTION, f"drawn:convert{i}", a, b))
    a = draw(base)
    infos.append(_engine_op("engine.copy", Kind.COMPUTER, "drawn:copy", a, a))
    infos += draw(
        st.lists(
            st.sampled_from(STDLIB_ADAPTERS),
            min_size=2,
            max_size=2,
            unique_by=lambda info: info.source,
        )
    )
    return infos, edges, bases


def _drawn_requests(rng, infos, bases):
    """A request, often shaped after a drawn op, and its twin, which differs
    only in its output type, container type or mutable index."""
    choices = _type_choices(bases)

    def concrete():
        return rng.choice(choices)

    info = rng.choice([i for i in infos if i.name in DRAWN_NAMES])
    name = rng.choice([*info.names * 5, *DRAWN_NAMES])
    kind = rng.choice([info.kind] * 3 + list(Kind))
    bindings = {"T": concrete(), "U": concrete()}
    args = tuple(p.type.substitute(bindings) for p in info.arg_params)
    if rng.random() < 0.3:
        args = tuple(concrete() for _ in range(rng.randint(1, 3)))
    own = info.special_param.type.substitute(bindings)
    if kind is Kind.FUNCTION:
        field, value = "output_type", lambda: rng.choice([None, own, concrete()])
    elif kind is Kind.COMPUTER:
        field, value = "container_type", lambda: rng.choice([own, concrete()])
    else:
        field, value = "mutable_index", lambda: rng.randrange(len(args))
    return tuple(OpRequest(name, kind, args, **{field: value()}) for _ in range(2))


def _drawn_outcome(env, req):
    """The plan's signature and output type, or the failed match's error."""
    try:
        tree = env.match(req)
    except (NoMatchError, DependencyCycleError) as exc:
        return type(exc).__name__, str(exc)
    return tree.signature, str(tree.out_type)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(registry=drawn_registries(), seed=st.integers(0, 2**32 - 1))
def test_cache_and_load_order_agree_on_drawn_registries(registry, seed):
    infos, edges, bases = registry
    # a plain Random: each call of hypothesis's own costs a draw
    rng = random.Random(seed)

    def env(infos, edges, cache_enabled):
        h = TypeHierarchy(edges)
        return OpEnvironment(infos, BINDINGS, hierarchy=h, cache_enabled=cache_enabled)

    on, off = env(infos, edges, True), env(infos, edges, False)
    shuffled_infos, shuffled_edges = list(infos), list(edges)
    rng.shuffle(shuffled_infos)
    rng.shuffle(shuffled_edges)
    shuffled = env(shuffled_infos, shuffled_edges, True)
    for _ in range(20):
        req, twin = _drawn_requests(rng, infos, bases)
        want = _drawn_outcome(off, req)
        want_twin = _drawn_outcome(off, twin)
        # each cache-on environment meets the pair twice, in its own order,
        # so a plan cached for one request is looked up by the other
        for _ in range(2):
            assert _drawn_outcome(on, req) == want
            assert _drawn_outcome(on, twin) == want_twin
            assert _drawn_outcome(shuffled, twin) == want_twin
            assert _drawn_outcome(shuffled, req) == want


# -- raw payloads and Values reach the same plan and result ------------------

# A payload per base type, made fresh for every call since an inplace call
# changes its argument. Image names no payload, so requests staging it are
# left to test_cache_and_load_order_do_not_change_matching.
PAYLOADS = {
    "Integer": lambda: 3,
    "Real": lambda: 2.5,
    "Boolean": lambda: True,
    "Text": lambda: "ab",
    "ByteArray": lambda: bytearray([41, 7, 200]),
    "RealArray": lambda: np.array([1.5, -2.0, 3.25]),
    "ImageU8": lambda: np.arange(12, dtype=np.uint8).reshape(3, 4),
    "ImageF64": lambda: np.linspace(0.0, 1.0, 12).reshape(3, 4),
}


def _staged(types, raw, keep=None):
    """Fresh inputs of ``types``: raw payloads when ``raw``, else Values; the
    input at index ``keep`` is a Value either way."""
    return [
        PAYLOADS[t.base]() if raw and i != keep else Value(t, PAYLOADS[t.base]())
        for i, t in enumerate(types)
    ]


def _bytes(x):
    p = x.payload if isinstance(x, Value) else x
    return p.tobytes() if isinstance(p, np.ndarray) else bytes(p)


def _staged_outcome(env, req, raw, handle):
    """What one call on fresh inputs gives: the error, or the result's type,
    payload and signature and the in-place inputs' contents afterwards."""
    kind = req.kind
    keep = req.mutable_index if handle and kind is Kind.INPLACE else None
    args = _staged(req.arg_types, raw, keep)
    b = env.op(req.name)
    b = b.input_types(*req.arg_types) if handle else b.input(*args)
    try:
        if kind is Kind.FUNCTION:
            if req.output_type is not None:
                b = b.output_type(req.output_type)
            out = b.function()(*args) if handle else b.apply()
        elif kind is Kind.COMPUTER:
            container = _staged([req.container_type], False)[0]
            if handle:
                out = b.container_type(req.container_type).computer()(*args, container=container)
            else:
                out = b.container(container).compute()
        else:
            index = req.mutable_index
            out = b.inplace(index)(*args) if handle else b.mutate(index)
    except OpsError as exc:
        return type(exc).__name__, str(exc)
    inputs = [_bytes(x) for x in args if isinstance(getattr(x, "payload", x), (bytearray, np.ndarray))]
    return out.type, _payload(out), env.history.lookup(out).signature, inputs


def _inplace(name, *types, index=0):
    return OpRequest(name, Kind.INPLACE, tuple(map(parse_type, types)), mutable_index=index)


@settings(max_examples=300, deadline=None)
@given(req=stdlib_requests(), handle=st.booleans(), raw_first=st.booleans())
# the inplace terminals, which random entries seldom reach, direct and
# converted
@example(req=_inplace("benchmark.increment", "ByteArray"), handle=False, raw_first=True)
@example(req=_inplace("benchmark.increment", "ByteArray"), handle=True, raw_first=False)
@example(req=_inplace("benchmark.increment", "RealArray"), handle=False, raw_first=False)
@example(req=_inplace("benchmark.increment", "RealArray"), handle=True, raw_first=True)
def test_raw_payloads_and_values_reach_the_same_entry_and_result(req, handle, raw_first):
    if any(t is not None and t.base not in PAYLOADS for t in (*req.arg_types, req.container_type)):
        return
    on, off = _stdlib_env(STDLIB_INFOS, True), _stdlib_env(STDLIB_INFOS, False)
    expected = _staged_outcome(off, req, False, handle)
    event(expected[0] if isinstance(expected[0], str) else f"ran {req.kind.value}")
    assert _staged_outcome(off, req, True, handle) == expected
    assert _staged_outcome(on, req, raw_first, handle) == expected
    entry, size, hits = on.cache.entries.get(req.cache_key), len(on.cache), on.cache.hits
    assert _staged_outcome(on, req, not raw_first, handle) == expected
    # the other staging reaches the first one's entry: one hit, nothing added
    assert len(on.cache) == size
    if entry is not None:
        assert on.cache.entries[req.cache_key] is entry
        assert on.cache.hits == hits + 1


# -- listeners are read when a body reports ---------------------------------


@pytest.mark.parametrize("terminal", ["apply", "compute"])
def test_listener_added_after_caching_sees_every_row(terminal):
    env = default_environment(include_legacy=False)
    img = _rand_image(4, w=5, h=9)

    def gauss():
        b = env.op("filter.gauss").input(img, wrap(1.0))
        if terminal == "apply":
            return b.apply()
        return b.container(wrap(np.zeros((9, 5)))).compute()

    gauss()
    gauss()
    seen = []
    env.add_progress_listener(seen.append)
    hits = env.cache.stats()[0]
    gauss()
    assert env.cache.stats()[0] == hits + 1
    fractions = [r.fraction for r in seen]
    assert len(fractions) == 9
    assert fractions == sorted(fractions) and fractions[-1] == 1.0
    assert {r.op_label for r in seen} == {"filter.gauss"}
    # a second late listener joins the same runner's reports beside the first
    more = []
    env.add_progress_listener(more.append)
    gauss()
    assert env.cache.stats()[0] == hits + 2
    assert len(seen) == 18 and [r.fraction for r in more] == fractions


def test_a_listener_added_during_a_report_hears_only_later_reports():
    env = default_environment(include_legacy=False)
    img = _rand_image(5, w=5, h=4)
    first, added = [], []

    def adding(report):
        first.append(report)
        heard = []
        added.append(heard)
        env.add_progress_listener(heard.append)

    env.add_progress_listener(adding)
    env.op("filter.gauss").input(img, wrap(1.0)).apply()
    assert len(first) == 4
    assert len(added) == 4 and all(heard == [] for heard in added)
    # the next blur reaches the four listeners added during the first
    env.op("filter.gauss").input(img, wrap(1.0)).apply()
    assert len(first) == 8
    assert [len(heard) for heard in added[:4]] == [4] * 4
    assert all(heard == [] for heard in added[4:])


def test_listeners_added_from_many_threads_at_once_are_all_kept():
    env = default_environment(include_legacy=False)
    threads_n, per_thread = 8, 100
    calls = []
    start = threading.Barrier(threads_n)

    def add():
        start.wait(timeout=60)
        for _ in range(per_thread):
            env.add_progress_listener(calls.append)

    threads = [threading.Thread(target=add) for _ in range(threads_n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    env.op("filter.gauss").input(_rand_image(6, w=5, h=4), wrap(1.0)).apply()
    assert len(calls) == threads_n * per_thread * 4


# -- one environment shared across threads ----------------------------------


def test_shared_environment_keeps_exact_history_and_one_entry_per_request():
    env = default_environment(include_legacy=False)
    threads_n, rounds = 4, 300
    datas = [bytearray(4) for _ in range(threads_n)]
    errors = []

    def work(t):
        try:
            value = wrap(datas[t])
            for i in range(rounds):
                env.op("benchmark.increment").input(value).mutate()
                out = env.op("math.add").input(t, i).apply()
                if out.payload != t + i:
                    errors.append((t, i, out.payload))
        except Exception as exc:  # reported by the assertion below
            errors.append((t, repr(exc)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(threads_n)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert len(env.history) == threads_n * rounds * 2
    assert len(env.cache) == 2
    assert all(d[0] == rounds % 256 for d in datas)


# -- one compile per plan -----------------------------------------------------


def test_reduced_optional_variants_sharing_a_signature_run_their_own_plans():
    # Both reduced variants of rescale2D sign the same: the cached runner of
    # one must never run the other's request.
    img = image_f64(4, 2, range(8))
    calls = {
        (4, 8): lambda env: env.op("transform.rescale2D").input(img, wrap(8.0)).apply(),
        (3, 8): lambda env: env.op("transform.rescale2D")
        .input(img, wrap(8.0), wrap(3))
        .apply(),
    }
    off = default_environment(cache_enabled=False, include_legacy=False)
    expected = {shape: _payload(call(off)) for shape, call in calls.items()}
    for order in (list(calls), list(reversed(calls))):
        env = default_environment(include_legacy=False)
        for _ in range(2):
            for shape in order:
                out = calls[shape](env)
                assert out.payload.shape == shape
                assert _payload(out) == expected[shape]


def _record_bindings(env):
    """Log every ``env.binding`` lookup, which compiling a plan makes per op."""
    bound = []
    binding = env.binding

    def recording(source):
        bound.append(source)
        return binding(source)

    env.binding = recording
    return bound


DOG_SOURCES = sorted(
    [
        "builtin:filter/dog",
        "builtin:adapt/computer3_to_function3",
        "builtin:filter/gauss",
        "builtin:filter/gauss",
        "builtin:math/sub_reals",
        "builtin:adapt/lift2_real_to_imagef64",
    ]
)


def test_a_cached_plan_compiles_once_per_entry():
    env = default_environment(include_legacy=False)
    bound = _record_bindings(env)
    img = _rand_image(5)

    def dog():
        return env.op("filter.dog").input(img, wrap(1.0), wrap(2.0))

    dog().apply()
    assert sorted(bound) == DOG_SOURCES
    dog().apply()
    dog().apply()
    dog().function()(img, wrap(1.0), wrap(2.0))
    assert sorted(bound) == DOG_SOURCES


def test_an_uncached_call_compiles_every_time():
    env = default_environment(cache_enabled=False, include_legacy=False)
    bound = _record_bindings(env)
    img = _rand_image(5)
    for k in range(1, 4):
        env.op("filter.dog").input(img, wrap(1.0), wrap(2.0)).apply()
        assert sorted(bound) == sorted(DOG_SOURCES * k)


def _mixed_calls():
    """Builder calls, handles and one deliberate miss, by name; each takes (env, j)."""
    imgs = [_rand_image(10 + j) for j in range(3)]
    u8s = [image_u8(8, 8, np.random.default_rng(20 + j).integers(0, 256, 64)) for j in range(3)]

    def gauss_handle(env, j):
        handle = (
            env.op("filter.gauss")
            .input_types("ImageF64", "Real")
            .container_type("ImageF64")
            .computer()
        )
        return handle(imgs[j], wrap(1.5), container=wrap(np.zeros((8, 8))))

    return {
        "add builder": lambda env, j: env.op("math.add").input(j, 7).apply(),
        "add handle": lambda env, j: env.op("math.add")
        .input_types("Integer", "Integer")
        .function()(j, 7),
        "gauss builder": lambda env, j: env.op("filter.gauss")
        .input(imgs[j], wrap(1.5))
        .container(wrap(np.zeros((8, 8))))
        .compute(),
        "gauss handle": gauss_handle,
        "dog builder": lambda env, j: env.op("filter.dog")
        .input(imgs[j], wrap(1.0), wrap(2.0))
        .apply(),
        "dog handle": lambda env, j: env.op("filter.dog")
        .input_types("ImageF64", "Real", "Real")
        .function()(imgs[j], wrap(1.0), wrap(2.0)),
        "u8 gauss builder": lambda env, j: env.op("filter.gauss")
        .input(u8s[j], wrap(1.0))
        .container(image_u8(8, 8, [0] * 64))
        .compute(),
        "miss": lambda env, j: env.op("math.add").input(wrap("x"), wrap(1.0)).apply(),
    }


def _call(call, env, j):
    """``(outcome, value)``: the value made, or None for a miss."""
    try:
        out = call(env, j)
    except NoMatchError as exc:
        return ("miss", tuple(m.render() for m in exc.near_misses)), None
    return (str(out.type), _payload(out)), out


def _outcome_of(call, env, j):
    return _call(call, env, j)[0]


def _eight_threads(env, calls, rounds=12):
    """Eight threads make the mixed calls on one environment at once.

    Returns ``((name, j), outcome, value)`` for every call made.
    """
    names = sorted(calls)
    threads_n = 8
    start = threading.Barrier(threads_n)
    seen = [[] for _ in range(threads_n)]
    errors = []

    def work(t):
        try:
            start.wait(timeout=60)
            for i in range(rounds):
                for k in range(len(names)):
                    # each thread walks the calls from its own offset, so
                    # every request is first missed by several threads at once
                    name, j = names[(t + k) % len(names)], (t + i) % 3
                    seen[t].append(((name, j), *_call(calls[name], env, j)))
        except Exception as exc:  # reported by the assertion below
            errors.append((t, repr(exc)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(threads_n)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    made = [entry for per_thread in seen for entry in per_thread]
    assert len(made) == threads_n * rounds * len(names)
    return made


def _expected_outcomes(calls):
    ref = default_environment(include_legacy=False)
    expected = {(n, j): _outcome_of(calls[n], ref, j) for n in calls for j in range(3)}
    assert expected["miss", 0][0] == "miss" and expected["miss", 0][1]
    return expected, ref


def test_eight_threads_share_one_environment_over_mixed_calls_and_misses(monkeypatch):
    calls = _mixed_calls()
    expected, ref = _expected_outcomes(calls)

    env = default_environment(include_legacy=False)
    runners = []
    make_runner = execution._make_runner

    def counting(made_for, tree):
        run = make_runner(made_for, tree)
        if made_for is env:
            runners.append(run)
        return run

    monkeypatch.setattr(execution, "_make_runner", counting)
    outcomes = _eight_threads(env, calls)
    for key, outcome, _ in outcomes:
        assert outcome == expected[key], key
    successes = sum(1 for (name, _), _, _ in outcomes if name != "miss")
    assert len(env.history) == successes
    assert len(env.cache) == len(ref.cache)
    # concurrent first misses compile each of the 4 distinct requests once
    assert len(runners) == 4
    cached = [e.run for e in env.cache.entries.values() if e.run is not None]
    assert sorted(map(id, cached)) == sorted(map(id, runners))


def test_eight_threads_with_eviction_on_count_and_look_up_every_record():
    calls = _mixed_calls()
    expected, ref = _expected_outcomes(calls)
    signatures = {
        name: ref.history.lookup(calls[name](ref, 0)).signature
        for name in calls
        if name != "miss"
    }
    env = default_environment(include_legacy=False)
    # matches read env.cache when they are made, so the cap holds from the
    # first call on
    env.cache = MatchCache(3)
    early = env.op("math.add").input(1, 2).apply()

    outcomes = _eight_threads(env, calls)
    for key, outcome, _ in outcomes:
        assert outcome == expected[key], key
    # every success made a new value: its result or the container it filled
    made = [(name, value) for (name, _), _, value in outcomes if value is not None]
    values = [early] + [value for _, value in made]
    assert len({v.uid for v in values}) == len(values)
    history = env.history
    assert len(history) == len(values)
    assert history.lookup(early).signature == signatures["add builder"]
    assert history.lookup(early).seq == 0
    for name, value in made:
        record = history.lookup(value)
        assert (record.uid, record.signature) == (value.uid, signatures[name])
        assert type(record.seq) is int
    # one record per value, so their seqs are exactly the count's range
    assert sorted(history.lookup(v).seq for v in values) == list(range(len(history)))
    assert len(env.cache) <= 3


def test_a_runner_being_made_holds_up_only_its_own_request(monkeypatch):
    env = default_environment(include_legacy=False)
    inside, release = threading.Event(), threading.Event()
    make_runner = execution._make_runner

    def held(made_for, tree):
        if tree.info.name == "filter.dog":
            inside.set()
            release.wait(timeout=60)
        return make_runner(made_for, tree)

    monkeypatch.setattr(execution, "_make_runner", held)
    img = _rand_image(3)
    dog = threading.Thread(
        target=lambda: env.op("filter.dog").input(img, wrap(1.0), wrap(2.0)).apply()
    )
    added = []
    add = threading.Thread(
        target=lambda: added.append(env.op("math.add").input(2, 7).apply().payload)
    )
    dog.start()
    try:
        assert inside.wait(timeout=60)
        # a first call on another key compiles and runs while filter.dog's
        # runner is still being made
        add.start()
        add.join(timeout=30)
        assert added == [9]
        assert dog.is_alive()
    finally:
        release.set()
        dog.join(timeout=60)
        add.join(timeout=60)
    assert not dog.is_alive() and not add.is_alive()


# -- a dropped environment is freed at once ----------------------------------


def _every_plan_shape(env):
    """One call per kind of compiled plan; returns the handle it made."""
    img = _rand_image(7)
    outs = [
        env.op("math.add").input(2, 3).apply(),
        env.op("filter.gauss").input(img, wrap(1.5)).apply(),
        env.op("filter.gauss").input(image_u8(8, 8, range(64)), wrap(1.0)).apply(),
        env.op("filter.dog").input(img, wrap(1.0), wrap(2.0)).apply(),
        env.op("benchmark.increment").input(wrap(bytearray([41, 7]))).apply(),
    ]
    handle = env.op("filter.gauss").input_types("ImageF64", "Real").function()
    outs.append(handle(img, wrap(1.5)))
    routines = [env.history.lookup(out).signature.split("|")[1] for out in outs]
    assert routines == [
        "DIRECT",
        "ADAPTED",
        "ADAPTED_AND_CONVERTED",
        "ADAPTED",  # with fixed dependency children
        "ADAPTED",  # with adapter dependencies
        "ADAPTED",
    ]
    return handle


def test_a_dropped_environment_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        env = default_environment()
        env.add_progress_listener(lambda report: None)
        _every_plan_shape(env)
        assert len(env.cache) > 0
        gone = weakref.ref(env)
        del env
        assert gone() is None
    finally:
        gc.enable()


def test_a_handle_outlives_its_environment():
    gc.disable()
    try:
        env = default_environment()
        seen = []
        env.add_progress_listener(seen.append)
        handle = _every_plan_shape(env)
        img = _rand_image(8, w=5, h=4)
        expected = handle(img, wrap(1.0)).payload
        gone = weakref.ref(env)
        del env, seen[:]
        assert gone() is None
        out = handle(img, wrap(1.0))
    finally:
        gc.enable()
    assert np.array_equal(out.payload, expected)
    assert len(seen) == 4  # its reports still reach the listeners
