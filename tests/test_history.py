"""History records live on the values they describe.

``OpHistory.lookup(v)`` reads the record stored on v, so it returns v's
newest record made by that history for as long as v exists, however many
records follow it. A record made by another environment's history since
hides this one's: v's contents are then that environment's output. The
history keeps no log of its records, only their count, which ``len``
reads, and all records of one plan share one signature object.
"""

import gc
import sys
import threading
import tracemalloc
import weakref

import pytest

from opsforge.execution import HistoryRecord, OpHistory
from opsforge.matcher import MatchCache
from opsforge.stdlib import default_environment
from opsforge.values import wrap

INCREMENT = "builtin:benchmark/increment_u8|DIRECT|[]|()"
ADD = "builtin:math/add_ints|DIRECT|[]|()"


def _environment(history, cache_enabled=True):
    """A stdlib environment recording into ``history`` from its first call."""
    env = default_environment(include_legacy=False, cache_enabled=cache_enabled)
    env.history, env.cache = history, MatchCache()
    return env


def _recorded_by(how, history):
    """A function that makes one fresh value and records it, one of two ways."""
    if how == "record":

        def fresh(i):
            value = wrap(i)
            history.record(value, "s")
            return value

        return fresh
    # the runner's inlined record
    env = _environment(history)
    return lambda i: env.op("math.add").input(i, 1).apply()


def test_a_record_is_an_immutable_hashable_triple():
    history = OpHistory()
    value = wrap(1)
    history.record(value, "sig")
    record = history.lookup(value)
    assert type(record) is HistoryRecord
    assert HistoryRecord._fields == ("uid", "signature", "seq")
    # the first record a history makes is its 0th
    assert record == HistoryRecord(value.uid, "sig", 0)
    assert type(record.seq) is int
    assert record != HistoryRecord(value.uid, "other", 0)
    # a record is a tuple: it also equals the plain triple
    assert record == (value.uid, "sig", 0)
    assert hash(record) == hash(HistoryRecord(value.uid, "sig", 0))
    assert len({record, history.lookup(value)}) == 1
    with pytest.raises(AttributeError):
        record.signature = "other"


@pytest.mark.parametrize("how", ["record", "apply"])
def test_a_value_looks_up_its_record_however_many_follow(how):
    history = OpHistory()
    fresh = _recorded_by(how, history)
    first = fresh(0)
    record = history.lookup(first)
    assert record is not None and record.uid == first.uid
    values = [fresh(i) for i in range(1, 1_000)]
    assert len(history) == 1_000
    assert history.lookup(first) == record
    assert history.lookup(values[0]).uid == values[0].uid


def test_a_record_made_by_another_environment_since_hides_this_ones():
    one, other = _environment(OpHistory()), _environment(OpHistory())
    data = wrap(bytearray(2))
    one.op("benchmark.increment").input(data).mutate()
    assert one.history.lookup(data).signature == INCREMENT
    assert other.history.lookup(data) is None
    # the other environment's output now: this one no longer names its plan
    other.op("benchmark.increment").input(data).mutate()
    assert one.history.lookup(data) is None
    assert other.history.lookup(data).signature == INCREMENT
    # each environment counts its own records
    assert len(one.history) == len(other.history) == 1
    one.history.record(data, "again")
    assert one.history.lookup(data).signature == "again"
    assert other.history.lookup(data) is None
    assert (len(one.history), len(other.history)) == (2, 1)


def test_a_recorded_value_keeps_no_history_alive():
    history = OpHistory()
    value = wrap(1)
    history.record(value, "s")
    gone = weakref.ref(history)
    del history
    gc.collect()
    assert gone() is None
    assert OpHistory().lookup(value) is None


def test_concurrent_recorders_and_lookups_see_each_values_newest_record():
    # Each recording thread re-records its own values with a counting
    # signature, many times over. Lookup threads read every value
    # throughout: once a value is recorded it always looks up, and the count
    # it reads never goes back. Afterwards each value looks up its last
    # record, and the history has counted every record.
    writers_n, readers_n, rounds, per_value = 3, 2, 2_000, 3
    history = OpHistory()
    owned = [[wrap(bytearray(1)) for _ in range(per_value)] for _ in range(writers_n)]
    for k, values in enumerate(owned):
        for value in values:
            history.record(value, f"{k}:0")
    every = [value for values in owned for value in values]
    errors = []
    start = threading.Barrier(writers_n + readers_n)
    done = threading.Event()

    def record(k):
        try:
            start.wait(timeout=60)
            for i in range(1, rounds + 1):
                for value in owned[k]:
                    history.record(value, f"{k}:{i}")
        except Exception as exc:  # reported by the assertion below
            errors.append(repr(exc))

    def look():
        try:
            start.wait(timeout=60)
            seen = {}
            while not done.is_set():
                for value in every:
                    got = history.lookup(value)
                    if got is None or got.uid != value.uid:
                        errors.append(f"lookup of {value.uid} read {got}")
                        return
                    count = int(got.signature.split(":")[1])
                    if count < seen.get(value.uid, 0):
                        errors.append(f"{value.uid} went back to {got.signature}")
                        return
                    seen[value.uid] = count
        except Exception as exc:  # reported by the assertion below
            errors.append(repr(exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writers = [threading.Thread(target=record, args=(k,)) for k in range(writers_n)]
        readers = [threading.Thread(target=look) for _ in range(readers_n)]
        for th in writers + readers:
            th.start()
        for th in writers:
            th.join(timeout=120)
        done.set()
        for th in readers:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in writers + readers)
    finally:
        sys.setswitchinterval(old)
    assert errors == []
    for k, values in enumerate(owned):
        for value in values:
            assert history.lookup(value).signature == f"{k}:{rounds}"
    assert len(history) == writers_n * per_value * (rounds + 1)


def test_eight_threads_count_every_runner_and_record_call():
    # half the threads record through the runner, half through record; the
    # count loses none of either, and no two records share a seq
    threads_n, rounds = 8, 2_000
    env = _environment(OpHistory())
    history = env.history
    add = env.op("math.add").input(1, 1).apply()  # caches the runner
    start = threading.Barrier(threads_n)
    errors = []
    made = [[] for _ in range(threads_n)]

    def work(t):
        try:
            values = [wrap(bytearray(1)) for _ in range(rounds)]
            start.wait(timeout=60)
            for i in range(rounds):
                if t % 2:
                    history.record(values[i], "s")
                    made[t].append(values[i])
                else:
                    made[t].append(env.op("math.add").input(t, i).apply())
        except Exception as exc:  # reported by the assertion below
            errors.append(repr(exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(threads_n)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(old)
    assert errors == []
    assert len(history) == 1 + threads_n * rounds
    assert history.lookup(add) == (add.uid, ADD, 0)
    # each value holds one record, so their seqs are exactly the count's
    # range, and each thread's are increasing in the order it made them
    seqs = [[history.lookup(v).seq for v in mine] for mine in made]
    assert sorted(s for mine in seqs for s in mine) == list(range(1, len(history)))
    assert all(mine == sorted(mine) for mine in seqs)


# -- one signature object per plan ------------------------------------------


def _copy(text):
    """An equal string that is a separate object."""
    return text[:1] + text[1:]


def test_uncached_calls_on_one_plan_share_one_signature_object():
    env = _environment(OpHistory(), cache_enabled=False)
    values = [wrap(bytearray(4)) for _ in range(22)]
    for value in values[:20]:
        env.op("benchmark.increment").input(value).mutate()
    for value in values[20:]:
        # each build matches afresh, so each handle has its own tree
        env.op("benchmark.increment").input_types("ByteArray").inplace()(value)
    signatures = [env.history.lookup(v).signature for v in values]
    assert signatures[0] == INCREMENT
    assert all(s is signatures[0] for s in signatures)
    assert len(env.history) == 22


def test_record_keeps_what_the_runner_keeps():
    # OpHistory.record is the runner's inline record: the same triple on the
    # value, the same shared signature object, one more in the count
    history = OpHistory()
    env = _environment(history, cache_enabled=False)
    ran = env.op("benchmark.increment").input(wrap(bytearray(2))).mutate()
    recorded = wrap(bytearray(2))
    history.record(recorded, _copy(INCREMENT))
    token, signature, seq = ran._record
    assert type(recorded._record) is tuple and len(recorded._record) == 3
    assert recorded._record[0] is token
    assert recorded._record[1] is signature
    # each takes the next tick: the runner's record is the 0th, record's the 1st
    assert (seq, recorded._record[2]) == (0, 1)
    assert type(seq) is type(recorded._record[2]) is int
    assert history.lookup(ran).signature is history.lookup(recorded).signature
    assert history.lookup(ran) == (ran.uid, INCREMENT, 0)
    assert history.lookup(recorded) == (recorded.uid, INCREMENT, 1)
    assert len(history) == 2


def test_recorded_calls_on_dropped_values_retain_no_memory():
    # Cached calls make and drop a fresh value each, and record() records
    # fresh values that are dropped at once. The records went with their
    # values; a log of them would hold ~80 B each, ~8 MB in all.
    calls = 100_000
    env = _environment(OpHistory())
    for i in range(20):
        env.op("math.add").input(i, 1).apply()
        env.history.record(wrap(i), "s")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(calls // 2):
            env.op("math.add").input(i, 1).apply()
            env.history.record(wrap(i), "s")
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(env.history) == 40 + calls
    assert retained < 4_096
