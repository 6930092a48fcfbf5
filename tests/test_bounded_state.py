"""State that grows per call has a bound: the history log and the plan cache.

The history keeps its newest ``cap`` records and the plan cache its newest
``cap`` entries. These tests check both against plain models: for the
history, an unbounded list of records cut to its last ``cap``; for the
cache, insertion-ordered keys that drop the oldest once past ``cap``. The
history is checked through both ways records are written, ``record`` and
the runner's inlined copy of it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsforge import execution
from opsforge.execution import HISTORY_CAP, OpHistory
from opsforge.matcher import CACHE_CAP, MatchCache, OpRequest
from opsforge.stdlib import default_environment
from opsforge.types import Kind, parse_type
from opsforge.values import wrap


def capped(history_cap=HISTORY_CAP, cache_cap=CACHE_CAP, **kwargs):
    """A stdlib environment whose history and plan cache have the given caps.

    Runners and matches read ``env.history`` and ``env.cache`` when they are
    made, so swapping both before the first call caps every record and entry.
    """
    env = default_environment(include_legacy=False, **kwargs)
    env.history, env.cache = OpHistory(history_cap), MatchCache(cache_cap)
    return env


def test_default_caps():
    assert (HISTORY_CAP, CACHE_CAP) == (65_536, 4_096)
    assert OpHistory().cap == HISTORY_CAP and MatchCache().cap == CACHE_CAP
    env = default_environment(include_legacy=False)
    assert (env.history.cap, env.cache.cap) == (HISTORY_CAP, CACHE_CAP)


@pytest.mark.parametrize("make", [OpHistory, MatchCache])
def test_a_cap_below_one_is_refused(make):
    with pytest.raises(ValueError, match="at least 1"):
        make(0)


# -- the history against an unbounded list cut to its last cap records -----

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
@given(cap=st.integers(1, 5), steps=st.lists(STEPS, max_size=40))
def test_history_matches_a_list_cut_to_its_last_cap_records(cap, steps):
    env = capped(history_cap=cap)
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
            kept = [sig for uid, sig in model[-cap:] if uid == value.uid]
            got = history.lookup(value)
            assert (got.signature if got else None) == (kept[-1] if kept else None)
            if got is not None:
                assert got.uid == value.uid
        assert len(history) == len(model[-cap:])
        snapshot = history.snapshot()
        assert [(r.uid, r.signature) for r in snapshot] == model[-cap:]
        assert all(isinstance(r.at, float) for r in snapshot)
    # the index holds exactly the kept uids, each at its newest kept record
    kept = {uid: sig for uid, sig in model[-cap:]}
    for value in pool + made:
        got = history.lookup(value)
        assert (got.signature if got else None) == kept.get(value.uid)


def test_a_value_recorded_again_keeps_its_newest_record_past_eviction():
    history = OpHistory(3)
    a, b = wrap(1), wrap(2)
    history.record(a, "first")
    history.record(b, "x")
    history.record(a, "second")
    for _ in range(2):
        history.record(b, "y")
    # a's first record is evicted, its second is kept
    assert history.lookup(a).signature == "second"
    history.record(b, "z")
    assert history.lookup(a) is None
    assert [r.signature for r in history.snapshot()] == ["y", "y", "z"]


def test_records_with_equal_clock_readings_stay_apart(monkeypatch):
    # a coarse clock gives two records of one value the same time; evicting
    # the older must not take the newer's index entry with it
    monkeypatch.setattr(execution.time, "time", lambda: float("1.5"))
    history = OpHistory(1)
    a = wrap(1)
    history.record(a, "older")
    history.record(a, "newer")
    assert history.lookup(a) == execution.HistoryRecord(a.uid, "newer", 1.5)
    assert len(history) == 1


def test_trims_keep_the_log_within_an_eighth_past_the_cap():
    history = OpHistory(64)
    values = [wrap(i) for i in range(1000)]
    longest = 0
    for value in values:
        history.record(value, "s")
        # the log is flat: three items per record
        longest = max(longest, len(history._log) // 3, len(history._by_uid))
    assert longest <= 64 + 64 // 8
    assert len(history) == 64
    assert history.lookup(values[-65]) is None
    assert history.lookup(values[-64]).signature == "s"


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
