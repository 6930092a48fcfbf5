"""The history's one eviction step: small trims, index first, then log.

``OpHistory.trim`` evicts every record past the cap. A recording call runs
it once the log is ``max(1, cap // 1024)`` records past the cap, and a
lookup runs it whenever any record is past the cap. These tests pin that
batch size at a cap where it is above 1, and how lookups meet a trim in
progress: a record's index entry is settled before its log items go, so a
lookup never finds an evicted value's stale entry, and a lookup that
misses while a trim holds a kept value's entry out reads it again.
"""

import sys
import threading

import pytest

from opsforge.execution import HistoryRecord, OpHistory
from opsforge.matcher import MatchCache
from opsforge.stdlib import default_environment
from opsforge.values import wrap

CAP = 4096
BATCH = CAP // 1024


def _recorded_by(how, history):
    """A function that makes one fresh value and records it, one of two ways."""
    if how == "record":

        def fresh(i):
            value = wrap(i)
            history.record(value, "s")
            return value

        return fresh
    # the runner's inlined record
    env = default_environment(include_legacy=False)
    env.history, env.cache = history, MatchCache()
    return lambda i: env.op("math.add").input(i, 1).apply()


@pytest.mark.parametrize("how", ["record", "apply"])
def test_recording_trims_the_log_in_batches_of_a_1024th_of_the_cap(how):
    history = OpHistory(CAP)
    assert BATCH > 1
    fresh = _recorded_by(how, history)
    values = [fresh(i) for i in range(CAP)]
    # the cap is full and nothing is evicted yet
    assert len(history._log) // 3 == CAP and len(history) == CAP
    longest = 0
    for i in range(CAP, 3 * CAP):
        values.append(fresh(i))
        longest = max(longest, len(history._log) // 3)
    # every batch filled up to one record short of the limit, then trimmed
    assert longest == CAP + BATCH - 1
    assert len(history) == CAP
    assert history.lookup(values[-CAP - 1]) is None
    assert history.lookup(values[-CAP]).uid == values[-CAP].uid


@pytest.mark.parametrize("how", ["record", "apply"])
def test_a_record_just_past_the_cap_looks_up_as_none_before_any_trim(how):
    history = OpHistory(CAP)
    fresh = _recorded_by(how, history)
    values = [fresh(i) for i in range(CAP + 1)]
    # one record past the cap: short of a batch, so no recording call trimmed
    assert len(history._log) // 3 == CAP + 1
    assert len(history) == CAP
    assert history.lookup(values[0]) is None
    assert history.lookup(values[1]).uid == values[1].uid
    # the lookup trimmed: the index and the log hold the same records
    assert len(history._log) // 3 == len(history._by_uid) == CAP


def test_a_lookup_that_misses_while_a_trim_holds_the_entry_out_reads_it_again():
    history = OpHistory(8)
    value = wrap(1)
    history.record(value, "s")
    got = []
    reader = threading.Thread(target=lambda: got.append(history.lookup(value)))
    # a trim in progress: the lock held and the value's entry popped, to be
    # put back because the value's newest record is kept
    with history._lock:
        rec = history._by_uid.pop(value.uid)
        reader.start()
        reader.join(timeout=0.2)
        assert reader.is_alive()  # waiting on the lock, not returning None
        history._by_uid[value.uid] = rec
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert got == [HistoryRecord(value.uid, *rec)]


def test_concurrent_lookups_see_kept_values_and_miss_evicted_ones_while_trims_run():
    # One thread records fresh values and, every third record, the hot
    # value again, so the hot value's newest record is always kept and each
    # trim that evicts an older record of it pops its index entry and puts
    # it back. Two threads look up the hot value, which must be found, and
    # the fresh value recorded just before the oldest record left in the
    # log, which must not: a trim that cut a record's log items before
    # settling its index entry would let that lookup find the stale entry.
    cap, rounds, records, readers_n = 8, 10, 20_000, 2
    history = OpHistory(cap)
    hot = wrap(0)
    history.record(hot, "s")
    fresh = {}  # uid -> value; uids count up in the order values are made
    misses, stale, errors = [], [], []

    def record(start, done):
        try:
            start.wait(timeout=60)
            for i in range(records):
                if i % 3 == 0:
                    history.record(hot, "s")
                else:
                    value = wrap(i)
                    fresh[value.uid] = value
                    history.record(value, "s")
        except Exception as exc:  # reported by the assertion below
            errors.append(repr(exc))
        finally:
            done.set()

    def look(start, done):
        try:
            start.wait(timeout=60)
            while not done.is_set():
                if history.lookup(hot) is None:
                    misses.append(len(history._log))
                # a uid when the log front sits at a record boundary; every
                # record before that one has left the log
                oldest = history._log[0]
                gone = fresh.get(oldest - 1) if type(oldest) is int else None
                if gone is not None and history.lookup(gone) is not None:
                    stale.append(gone.uid)
        except Exception as exc:  # reported by the assertion below
            errors.append(repr(exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            start, done = threading.Barrier(readers_n + 1), threading.Event()
            threads = [threading.Thread(target=record, args=(start, done))]
            threads += [
                threading.Thread(target=look, args=(start, done)) for _ in range(readers_n)
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
            assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(old)
    assert errors == []
    assert misses == []
    assert stale == []
    assert history.lookup(hot).signature == "s"
    assert set(history._by_uid) == {r.uid for r in history.snapshot()}
