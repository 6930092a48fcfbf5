"""State that grows per call has a bound: the plan cache holds its newest
``cap`` entries, and the history only counts its records.

The cache is checked against insertion-ordered keys that drop the oldest
once past ``cap``. The history keeps no log: a record lives on its value.
It is checked against an unbounded list of every record ever made, whose
length is the history's ``len`` and whose newest record of a value is what
a lookup of it returns, at its index in the list as its ``seq``, through
both ways records are written, ``record`` and the runner's inlined copy of
it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsforge import execution
from opsforge.execution import HistoryRecord, OpHistory
from opsforge.matcher import CACHE_CAP, MatchCache, OpRequest
from opsforge.stdlib import default_environment
from opsforge.types import Kind, parse_type
from opsforge.values import wrap


def capped(cache_cap=CACHE_CAP, **kwargs):
    """A stdlib environment whose plan cache has the given cap.

    Matches read ``env.cache`` when they are made, so swapping it before the
    first call caps every entry.
    """
    env = default_environment(include_legacy=False, **kwargs)
    env.cache = MatchCache(cache_cap)
    return env


def test_default_caps():
    assert CACHE_CAP == 4_096 and MatchCache().cap == CACHE_CAP
    assert default_environment(include_legacy=False).cache.cap == CACHE_CAP
    # the history has no cap to set: it keeps no records of its own
    with pytest.raises(TypeError):
        OpHistory(16)


@pytest.mark.parametrize("make", [MatchCache])
def test_a_cap_below_one_is_refused(make):
    with pytest.raises(ValueError, match="at least 1"):
        make(0)


# -- the history against an unbounded list of every record ------------------

SIGNATURES = ["sig:a", "sig:b", "sig:c"]
INCREMENT = "builtin:benchmark/increment_u8|DIRECT|[]|()"
ADD = "builtin:math/add_ints|DIRECT|[]|()"
# one step: record a pooled value directly, re-record one through a runner
# (an inplace increment), make a fresh value through a runner, or look up
STEPS = st.one_of(
    st.tuples(st.just("record"), st.integers(0, 3), st.sampled_from(SIGNATURES)),
    st.tuples(st.just("mutate"), st.integers(0, 3)),
    st.tuples(st.just("apply"), st.integers(0, 3)),
    st.tuples(st.just("lookup"), st.integers(0, 7)),
)


@settings(max_examples=120, deadline=None)
@given(steps=st.lists(STEPS, max_size=40))
def test_history_matches_a_list_of_every_record(steps):
    env = capped()
    history = env.history
    pool = [wrap(bytearray(1)) for _ in range(4)]
    made = []  # fresh values, looked up by index past the pool
    model = []  # every record ever made, oldest first: (uid, signature)
    for step in steps:
        if step[0] == "record":
            _, k, sig = step
            history.record(pool[k], sig)
            model.append((pool[k].uid, sig))
        elif step[0] == "mutate":
            out = env.op("benchmark.increment").input(pool[step[1]]).mutate()
            model.append((out.uid, INCREMENT))
        elif step[0] == "apply":
            out = env.op("math.add").input(step[1], 1).apply()
            made.append(out)
            model.append((out.uid, ADD))
        else:
            values = pool + made
            value = values[step[1] % len(values)]
            made_for = [(i, sig) for i, (uid, sig) in enumerate(model) if uid == value.uid]
            got = history.lookup(value)
            want = made_for[-1] if made_for else None
            assert ((got.seq, got.signature) if got else None) == want
            if got is not None:
                assert got.uid == value.uid
                assert type(got.seq) is int
        assert len(history) == len(model)
    # every value looks up its newest record, at that record's index
    newest = {uid: (i, sig) for i, (uid, sig) in enumerate(model)}
    for value in pool + made:
        got = history.lookup(value)
        assert ((got.seq, got.signature) if got else None) == newest.get(value.uid)


def test_a_value_recorded_again_keeps_its_newest_record_past_eviction():
    # a one-entry cache evicts the increment's runner between two calls on
    # one value; the value keeps the newest of its records throughout
    env = capped(cache_cap=1)
    data = wrap(bytearray(2))
    env.history.record(data, "first")
    first = env.history.lookup(data)
    assert first.seq == 0
    env.op("benchmark.increment").input(data).mutate()
    env.op("math.add").input(1, 2).apply()  # evicts the increment's entry
    assert len(env.cache) == 1
    assert env.history.lookup(data).signature == INCREMENT
    env.history.record(data, "second")
    env.op("benchmark.increment").input(data).mutate()  # a re-miss
    newest = env.history.lookup(data)
    assert newest.signature == INCREMENT
    # records 1 and 3 are older ones of data's; record 2 is the add's
    assert newest == HistoryRecord(first.uid, INCREMENT, 4)
    env.history.record(data, "third")
    assert env.history.lookup(data) == HistoryRecord(first.uid, "third", 5)
    assert len(env.history) == 6


def test_two_records_of_one_value_take_consecutive_seqs():
    # the newer record replaces the older, takes the next seq, and both
    # are counted
    history = OpHistory()
    a, b = wrap(1), wrap(2)
    history.record(b, "other")
    history.record(a, "older")
    assert history.lookup(a) == HistoryRecord(a.uid, "older", 1)
    history.record(a, "newer")
    assert history.lookup(a) == HistoryRecord(a.uid, "newer", 2)
    assert history.lookup(b) == HistoryRecord(b.uid, "other", 0)
    assert len(history) == 3


# -- the plan cache against insertion-ordered keys cut to cap ---------------

# builder calls whose match puts exactly one cache entry (no dependencies)
CALLS = {
    "add ints": lambda env: env.op("math.add").input(1, 2).apply(),
    "add reals": lambda env: env.op("math.add").input(1.0, 2.0).apply(),
    "add converted": lambda env: env.op("math.add").input(1, 2.0).apply(),
    "mul ints": lambda env: env.op("math.mul").input(3, 4).apply(),
    "mul reals": lambda env: env.op("math.mul").input(3.0, 4.0).apply(),
    "add into": lambda env: env.op("math.add").input(1.0, 2.0).container(wrap(0.0)).compute(),
    "increment": lambda env: env.op("benchmark.increment").input(wrap(bytearray(2))).mutate(),
}
NAMES = sorted(CALLS)


@pytest.fixture(scope="module")
def uncached_signatures():
    off = default_environment(cache_enabled=False, include_legacy=False)
    return {name: off.history.lookup(CALLS[name](off)).signature for name in NAMES}


@settings(max_examples=80, deadline=None)
@given(cap=st.integers(1, 4), names=st.lists(st.sampled_from(NAMES), max_size=30))
def test_cache_evicts_its_oldest_entry_and_a_re_miss_makes_one_runner(
    uncached_signatures, cap, names
):
    env = capped(cache_cap=cap)
    made = []
    make_runner = execution._make_runner

    def counting(made_for, tree):
        run = make_runner(made_for, tree)
        made.append(tree.signature)
        return run

    keys = {}  # name -> cache key, learnt on each name's first call
    model = []  # cached names, oldest first
    execution._make_runner = counting
    try:
        for name in names:
            before = len(made)
            out = CALLS[name](env)
            if name in model:
                assert len(made) == before  # a hit runs the cached runner
            else:
                assert len(made) == before + 1  # a miss, first or again: one runner
                model.append(name)
                if len(model) > cap:
                    del model[0]
            keys.setdefault(name, list(env.cache.entries)[-1])
            assert list(env.cache.entries) == [keys[n] for n in model]
            assert env.history.lookup(out).signature == uncached_signatures[name]
    finally:
        execution._make_runner = make_runner


def test_cache_put_keeps_the_first_entry_and_evicts_in_insertion_order():
    cache = MatchCache(2)
    env = default_environment(cache_enabled=False, include_legacy=False)
    reqs = [
        OpRequest("math.add", Kind.FUNCTION, (parse_type(a), parse_type(b)))
        for a, b in (("Integer", "Integer"), ("Real", "Real"), ("Integer", "Real"))
    ]
    trees = [env.match(r) for r in reqs]
    cache.put(reqs[0], trees[0])
    first = cache.entries[reqs[0].cache_key]
    cache.put(reqs[0], trees[1])
    assert cache.entries[reqs[0].cache_key] is first
    cache.put(reqs[1], trees[1])
    # a hit changes no order: the oldest entry is still the first put
    assert cache.get(reqs[0]) is trees[0]
    cache.put(reqs[2], trees[2])
    assert list(cache.entries) == [reqs[1].cache_key, reqs[2].cache_key]
    assert cache.get(reqs[0]) is None
