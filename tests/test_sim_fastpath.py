"""Kernel fast-path tests: cancellation, sleep reuse, EnvStats, teardown.

These pin the PR-3 optimizations' *semantics*; the determinism of whole
runs under the fast path is pinned separately in
``test_sim_determinism.py``, and throughput in ``BENCH_kernel.json``.
"""

import gc
import weakref

import pytest

from repro.sim import Environment, EnvStats, Interrupt
from repro.sim.core import _COMPACT_DEAD_MIN
from repro.sim.process import _SleepEvent


# ----------------------------------------------------------------------
# Event.cancel + lazy heap deletion
# ----------------------------------------------------------------------
def test_cancelled_timeout_never_fires():
    env = Environment()
    fired = []
    t = env.timeout(1.0)
    t.add_callback(lambda ev: fired.append(ev))
    assert t.cancel() is True
    assert t.cancelled
    env.run()
    assert fired == []
    assert env.now == 0.0  # the dead entry must not advance the clock


def test_cancel_is_idempotent_and_reports_false_after_first():
    env = Environment()
    t = env.timeout(1.0)
    assert t.cancel() is True
    assert t.cancel() is False


def test_cancel_after_processing_returns_false():
    env = Environment()
    t = env.timeout(1.0)
    env.run()
    assert t.processed
    assert t.cancel() is False


def test_cancel_unscheduled_event_is_error():
    env = Environment()
    with pytest.raises(RuntimeError, match="not scheduled"):
        env.event().cancel()


def test_queue_size_counts_only_live_events():
    env = Environment()
    keep = env.timeout(2.0)
    dead = [env.timeout(1.0) for _ in range(5)]
    assert env.queue_size() == 6
    for t in dead:
        t.cancel()
    assert env.queue_size() == 1
    env.run()
    assert keep.processed


def test_peek_skips_cancelled_heads():
    env = Environment()
    dead = env.timeout(1.0)
    env.timeout(3.0)
    dead.cancel()
    assert env.peek() == pytest.approx(3.0)
    assert env.queue_size() == 1  # peek pruned the tombstone


def test_heap_compaction_drops_dead_entries():
    env = Environment(stats=True)
    n = _COMPACT_DEAD_MIN + 10
    timers = [env.timeout(10.0) for _ in range(n)]
    env.timeout(1.0)  # one live event so the heap is never empty
    for t in timers:
        t.cancel()
    assert env.stats.heap_compactions >= 1
    assert env.queue_size() == 1
    # Compaction fired at the threshold crossing; only the handful of
    # cancels after it linger as tombstones, not the full n.
    assert len(env._queue) < 20
    env.run()
    assert env.now == pytest.approx(1.0)


def test_no_compaction_at_exactly_threshold_tombstones():
    """The trigger is strictly ``dead > _COMPACT_DEAD_MIN``: exactly 512
    tombstones must NOT compact; the 513th cancel must."""
    env = Environment(stats=True)
    timers = [env.timeout(10.0) for _ in range(_COMPACT_DEAD_MIN + 1)]
    env.timeout(1.0)  # one live event
    for t in timers[:_COMPACT_DEAD_MIN]:
        t.cancel()
    assert env._dead == _COMPACT_DEAD_MIN
    assert env.stats.heap_compactions == 0
    assert len(env._queue) == _COMPACT_DEAD_MIN + 2  # tombstones linger

    timers[_COMPACT_DEAD_MIN].cancel()  # 513th: crosses the strict bound
    assert env.stats.heap_compactions == 1
    assert env._dead == 0
    assert len(env._queue) == 1  # only the live event survived


def test_no_compaction_while_live_events_dominate_half_heap():
    """Second guard: dead entries must also outnumber the live half
    (``dead * 2 > len(queue)``), so a mostly-live heap is never
    re-heapified early.  600 live + 601 cancellable sits exactly on the
    edge: 600 cancels give ``1200 > 1201`` (False), the 601st gives
    ``1202 > 1201`` (True) and compacts exactly once."""
    live_n = 600
    env = Environment(stats=True)
    doomed = [env.timeout(10.0) for _ in range(live_n + 1)]
    for i in range(live_n):
        env.timeout(1.0 + i * 1e-6)
    for t in doomed[:live_n]:
        t.cancel()
    # 600 dead > 512, yet 600*2 == 1200 is not > 1201 entries: no compact
    assert env._dead == live_n
    assert env.stats.heap_compactions == 0
    assert len(env._queue) == 2 * live_n + 1

    doomed[live_n].cancel()
    assert env.stats.heap_compactions == 1
    assert env._dead == 0
    assert len(env._queue) == live_n
    assert env.queue_size() == live_n
    env.run()
    assert env.stats.events_processed == live_n


def test_events_interleave_correctly_around_cancellations():
    env = Environment()
    order = []

    def waiter(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(waiter(env, 1.0, "a"))
    doomed = env.timeout(1.5)
    env.process(waiter(env, 2.0, "b"))
    doomed.cancel()
    env.run()
    assert order == ["a", "b"]


# ----------------------------------------------------------------------
# call_later
# ----------------------------------------------------------------------
def test_call_later_runs_callback_with_value():
    env = Environment()
    got = []
    env.call_later(2.0, lambda ev: got.append((env.now, ev.value)), value="x")
    env.run()
    assert got == [(2.0, "x")]


def test_call_later_cancel_before_fire():
    env = Environment()
    got = []
    handle = env.call_later(2.0, lambda ev: got.append(ev.value), value="x")
    assert handle.cancel() is True
    env.run()
    assert got == []


def test_call_later_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.call_later(-0.1, lambda ev: None)


def test_call_at_fires_at_exactly_when():
    env = Environment()
    env.run(until=_ULP_NOW)
    end = _frame_end(env.now)
    got = []
    env.call_at(end, lambda ev: got.append((env.now, ev.value)), value="x")
    env.run()
    assert got == [(end, "x")]  # not the re-rounded now + (end - now)


def test_call_at_rejects_a_past_when():
    env = Environment()
    env.run(until=1.0)
    with pytest.raises(ValueError, match="in the past"):
        env.call_at(0.5, lambda ev: None)
    env.call_at(1.0, lambda ev: None)  # now itself is fine


@pytest.mark.parametrize("slowpath", [False, True], ids=["fastpath", "slowpath"])
def test_timers_are_one_event_or_one_process(monkeypatch, slowpath):
    """Fast path: a bare heap entry.  Slow path: a process per timer,
    still cancellable, firing in the same order as the fast path."""
    if slowpath:
        monkeypatch.setenv("REPRO_SIM_SLOWPATH", "1")
    else:
        monkeypatch.delenv("REPRO_SIM_SLOWPATH", raising=False)
    env = Environment(stats=True)
    got = []
    env.call_later(0.0, lambda ev: got.append(("zero", env.now)))
    env.call_at(2.0, lambda ev: got.append((ev.value, env.now)), value="b")
    env.call_later(2.0, lambda ev: got.append((ev.value, env.now)), value="c")
    doomed = env.call_later(1.0, lambda ev: got.append(("doomed", env.now)))
    env.call_later(1.0, lambda ev: got.append(("a", env.now)))
    assert doomed.cancel() is True
    env.run()
    assert got == [("zero", 0.0), ("a", 1.0), ("b", 2.0), ("c", 2.0)]
    assert env.stats.events_by_process.get("timer", 0) == 0
    beyond_timers = env.stats.events_scheduled - 5
    # slow path: 5 process kick-starts, and 4 process ends (not the doomed one)
    assert beyond_timers == (5 + 4 if slowpath else 0)


# ----------------------------------------------------------------------
# finished processes are freed by reference counting
# ----------------------------------------------------------------------
@pytest.mark.parametrize("end", ["return", "kill"])
def test_finished_process_is_freed_without_a_collection(end):
    """A finished process drops its self-references (the cached resume
    callback and the pre-wired sleep timer), so no cycle keeps it alive
    until the next gc pass.  The generator is the witness: the process
    holds it for as long as the process itself lives."""

    def worker(env):
        yield env.sleep(1.0)
        yield env.timeout(1.0)
        yield env.sleep_until(5.0)

    env = Environment()
    gen = worker(env)
    witness = weakref.ref(gen)
    gc.disable()
    try:
        proc = env.process(gen)
        del gen
        if end == "kill":
            env.run(until=3.0)
            proc.kill()
        env.run()
        assert proc.triggered
        del proc
        assert witness() is None
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# sleep fast path
# ----------------------------------------------------------------------
def test_sleep_behaves_like_timeout():
    env = Environment()
    ticks = []

    def ticker(env):
        for _ in range(5):
            yield env.sleep(0.5)
            ticks.append(env.now)

    env.process(ticker(env))
    env.run()
    assert ticks == pytest.approx([0.5, 1.0, 1.5, 2.0, 2.5])


def test_sleep_reuses_one_event_object():
    env = Environment()
    seen = []

    def ticker(env):
        for _ in range(4):
            ev = env.sleep(1.0)
            seen.append(id(ev))
            yield ev

    env.process(ticker(env))
    env.run()
    assert len(set(seen)) == 1  # allocation-free steady state


def test_sleep_outside_process_degrades_to_timeout():
    env = Environment()
    t = env.sleep(1.0)
    env.run()
    assert t.processed
    assert env.now == pytest.approx(1.0)


def test_sleep_event_rejects_extra_waiters():
    env = Environment()

    def sleeper(env):
        ev = env.sleep(1.0)
        with pytest.raises(RuntimeError, match="single-waiter"):
            ev.add_callback(lambda e: None)
        yield ev

    p = env.process(sleeper(env))
    env.run(until=p)


def test_interrupt_during_sleep_cancels_and_allows_resleep():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.sleep(100.0)
        except Interrupt:
            log.append(("interrupted", env.now))
        yield env.sleep(1.0)  # a fresh timer must replace the tombstone
        log.append(("woke", env.now))

    def attacker(env, target):
        yield env.timeout(2.0)
        target.interrupt()

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert log == [("interrupted", 2.0), ("woke", 3.0)]
    assert env.queue_size() == 0


def test_slowpath_env_var_disables_fast_paths(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SLOWPATH", "1")
    env = Environment()
    assert env.slowpath

    def sleeper(env):
        ev = env.sleep(1.0)
        assert type(ev) is not _SleepEvent
        yield ev

    p = env.process(sleeper(env))
    env.run(until=p)
    assert env.now == pytest.approx(1.0)


# ----------------------------------------------------------------------
# sleep_until: absolute-time wakeups
# ----------------------------------------------------------------------
#: a link frame of 9 packets of 37.5 ms starting at this instant ends at
#: a time that ``now + (end - now)`` misses by one ulp
_ULP_NOW = 0.03918992945173863


def _frame_end(start, packets=9, pkt_time=0.0375):
    t = start
    for _ in range(packets):
        t = t + pkt_time
    return t


@pytest.mark.parametrize("slowpath", [False, True], ids=["fastpath", "slowpath"])
def test_sleep_until_resumes_at_exactly_when(monkeypatch, slowpath):
    if slowpath:
        monkeypatch.setenv("REPRO_SIM_SLOWPATH", "1")
    else:
        monkeypatch.delenv("REPRO_SIM_SLOWPATH", raising=False)
    env = Environment()
    woke = []

    def framer(env):
        yield env.sleep_until(_ULP_NOW)
        woke.append(env.now)
        end = _frame_end(env.now)
        assert env.now + (end - env.now) != end  # a relative sleep misses
        ev = env.sleep_until(end)
        assert (type(ev) is _SleepEvent) != slowpath
        yield ev
        woke.append((env.now, end))

    env.process(framer(env))
    env.run()
    assert woke[0] == _ULP_NOW
    now, end = woke[1]
    assert now == end


def test_sleep_until_rejects_a_past_when(monkeypatch):
    env = Environment()
    env.run(until=1.0)
    with pytest.raises(ValueError):
        env.sleep_until(0.5)  # outside a process

    def late(env):
        with pytest.raises(ValueError, match="in the past"):
            env.sleep_until(env.now - 1e-9)
        yield env.sleep_until(env.now)  # now itself is fine

    env.run(until=env.process(late(env)))
    monkeypatch.setenv("REPRO_SIM_SLOWPATH", "1")
    slow = Environment()

    def slow_late(env):
        yield env.sleep(1.0)
        with pytest.raises(ValueError):
            env.sleep_until(0.5)

    slow.run(until=slow.process(slow_late(slow)))


def test_sleep_until_reuses_the_sleep_event():
    env = Environment()
    seen = []

    def ticker(env):
        for i in range(4):
            ev = env.sleep(1.0) if i % 2 else env.sleep_until(env.now + 1.0)
            seen.append(id(ev))
            yield ev

    env.process(ticker(env))
    env.run()
    assert len(set(seen)) == 1
    assert env.now == 4.0


def test_sleep_until_outside_process_degrades_to_timeout():
    env = Environment()
    t = env.sleep_until(_ULP_NOW)
    assert type(t) is not _SleepEvent
    env.run()
    assert t.processed
    assert env.now == _ULP_NOW


@pytest.mark.parametrize("how", ["interrupt", "kill"])
def test_sleep_until_is_cancelled_like_sleep(how):
    env = Environment(stats=True)
    log = []

    def victim(env):
        try:
            yield env.sleep_until(100.0)
        except Interrupt:
            log.append(("interrupted", env.now))
        yield env.sleep_until(env.now + 1.0)  # a fresh timer
        log.append(("woke", env.now))

    def attacker(env, target):
        yield env.timeout(2.0)
        getattr(target, how)()

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    if how == "interrupt":
        assert log == [("interrupted", 2.0), ("woke", 3.0)]
    else:
        assert log == [] and not v.is_alive
    assert env.queue_size() == 0
    assert env.stats.events_cancelled == 1
    assert env.now == (3.0 if how == "interrupt" else 2.0)


# ----------------------------------------------------------------------
# run(until=...) teardown + remove_callback identity semantics
# ----------------------------------------------------------------------
def test_tight_run_until_loop_does_not_grow_callback_lists():
    """ScenarioRuntime steps the world one control period at a time."""
    env = Environment()

    def ticker(env):
        while True:
            yield env.sleep(0.1)

    p = env.process(ticker(env))
    for i in range(1, 200):
        env.run(until=i * 0.05)
    # the process is waiting on exactly its own resume callback; 200
    # abandoned stop events must not have left anything behind
    assert p.target is not None
    assert len(p.target.callbacks) == 1


def test_run_until_already_processed_event_returns_value():
    env = Environment()
    t = env.timeout(1.0, "v")
    env.run()
    assert t.processed
    assert env.run(until=t) == "v"


def test_run_until_already_failed_event_raises():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("boom"))
    ev.defuse()
    env.run()
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=ev)


def test_remove_callback_matches_identity():
    env = Environment()
    ev = env.event()
    calls = []

    def cb(event):
        calls.append(event)

    ev.add_callback(cb)
    ev.remove_callback(lambda e: None)  # foreign callable: no-op
    assert ev.callbacks == [cb]
    ev.remove_callback(cb)
    assert ev.callbacks == []


# ----------------------------------------------------------------------
# Condition incremental collection
# ----------------------------------------------------------------------
def test_condition_values_keep_construction_order():
    env = Environment()

    def proc(env):
        a = env.timeout(3.0, "a")  # fires last
        b = env.timeout(1.0, "b")
        c = env.timeout(2.0, "c")
        results = yield env.all_of([a, b, c])
        return list(results.values())

    p = env.process(proc(env))
    # construction order, not firing order (b, c, a)
    assert env.run(until=p) == ["a", "b", "c"]


def test_any_of_includes_preprocessed_events_in_order():
    env = Environment()

    def proc(env):
        early1 = env.timeout(1.0, "e1")
        early2 = env.timeout(1.5, "e2")
        yield env.timeout(2.0)  # both already processed now
        late = env.timeout(5.0, "late")
        results = yield env.any_of([late, early1, early2])
        return list(results.values())

    p = env.process(proc(env))
    # fires immediately; value covers *all* fired events, in
    # construction order of the condition's event list
    assert env.run(until=p) == ["e1", "e2"]
    assert env.now == pytest.approx(2.0)


def test_any_of_failed_event_propagates():
    env = Environment()

    def proc(env):
        ev = env.event()
        ev.fail(RuntimeError("inner"))
        with pytest.raises(RuntimeError, match="inner"):
            yield env.any_of([ev, env.timeout(5.0)])
        return "handled"

    p = env.process(proc(env))
    assert env.run(until=p) == "handled"


# ----------------------------------------------------------------------
# EnvStats
# ----------------------------------------------------------------------
def test_stats_disabled_by_default():
    assert Environment().stats is None


def test_stats_counts_lifecycle():
    env = Environment(stats=True)

    def ticker(env):
        for _ in range(3):
            yield env.sleep(1.0)

    env.process(ticker(env), name="tick")
    doomed = env.timeout(10.0)
    doomed.cancel()
    env.run()
    s = env.stats
    assert isinstance(s, EnvStats)
    assert s.events_cancelled == 1
    assert s.events_skipped == 1
    assert s.events_processed == s.events_scheduled - 1  # the tombstone
    assert s.events_by_process["tick"] == 3
    assert s.peak_heap_size >= 1
    d = s.as_dict()
    assert d["events_cancelled"] == 1
    assert "tick" in d["events_by_process"]
    assert "processed" in s.summary()


def test_enable_stats_mid_life():
    env = Environment()
    assert env.stats is None
    s = env.enable_stats()
    assert env.stats is s
    assert env.enable_stats() is s
    env.timeout(1.0)
    env.run()
    assert s.events_processed == 1


def test_capture_env_stats_sink():
    from repro.sim import core as sim_core

    sink = []
    sim_core.capture_env_stats(sink)
    try:
        env = Environment()
        assert env.stats is not None
        env.timeout(1.0)
        env.run()
    finally:
        sim_core.capture_env_stats(None)
    assert len(sink) == 1
    assert sink[0].events_processed == 1
    assert Environment().stats is None  # sink cleared


def test_env_stats_skips_cancelled_heads():
    env = Environment(stats=True)
    dead = env.timeout(0.5)
    env.timeout(1.0)
    dead.cancel()
    env.run()
    # the cancelled head is dropped, not counted as processed
    assert env.stats.events_processed == 1
    assert env.stats.events_skipped == 1
