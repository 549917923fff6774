"""Kernel fast-path tests: cancellation, timers, EnvStats, teardown.

These pin the kernel optimizations' *semantics*; the determinism of
whole runs is pinned separately in ``test_sim_determinism.py``, and
their timer counts in the cost ledger ``BENCH_counts.json``
(``test_call_budget.py``).  The "slow path" here is the accounted one
every timer takes while EnvStats is on.
"""

import random

import pytest

from repro.sim import Environment, EnvStats
from repro.sim.core import _COMPACT_DEAD_MIN, EmptySchedule


def _noop(event):
    pass


def _timer(env, delay, value=None):
    """A scheduled event that does nothing when it fires."""
    return env.call_later(delay, _noop, value)


# ----------------------------------------------------------------------
# Event.cancel + lazy heap deletion
# ----------------------------------------------------------------------
def test_cancelled_timeout_never_fires():
    env = Environment()
    fired = []
    t = _timer(env, 1.0)
    t.add_callback(lambda ev: fired.append(ev))
    assert t.cancel() is True
    assert t.cancelled
    env.run()
    assert fired == []
    assert env.now == 0.0  # the dead entry must not advance the clock


def test_cancel_is_idempotent_and_reports_false_after_first():
    env = Environment()
    t = _timer(env, 1.0)
    assert t.cancel() is True
    assert t.cancel() is False


def test_cancel_after_processing_returns_false():
    env = Environment()
    t = _timer(env, 1.0)
    env.run()
    assert t.processed
    assert t.cancel() is False


def test_cancel_unscheduled_event_is_error():
    env = Environment()
    with pytest.raises(RuntimeError, match="not scheduled"):
        env.event().cancel()


def test_queue_size_counts_only_live_events():
    env = Environment()
    keep = _timer(env, 2.0)
    dead = [_timer(env, 1.0) for _ in range(5)]
    assert env.queue_size() == 6
    for t in dead:
        t.cancel()
    assert env.queue_size() == 1
    env.run()
    assert keep.processed


def test_peek_skips_cancelled_heads():
    env = Environment()
    dead = _timer(env, 1.0)
    _timer(env, 3.0)
    dead.cancel()
    assert env.peek() == pytest.approx(3.0)
    assert env.queue_size() == 1  # peek pruned the tombstone


def test_heap_compaction_drops_dead_entries():
    env = Environment(stats=True)
    n = _COMPACT_DEAD_MIN + 10
    timers = [_timer(env, 10.0) for _ in range(n)]
    _timer(env, 1.0)  # one live event so the heap is never empty
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
    timers = [_timer(env, 10.0) for _ in range(_COMPACT_DEAD_MIN + 1)]
    _timer(env, 1.0)  # one live event
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
    doomed = [_timer(env, 10.0) for _ in range(live_n + 1)]
    for i in range(live_n):
        _timer(env, 1.0 + i * 1e-6)
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

    env.call_later(1.0, lambda ev: order.append("a"))
    doomed = _timer(env, 1.5)
    env.call_later(2.0, lambda ev: order.append("b"))
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
def test_timers_are_one_heap_entry_on_both_paths(slowpath):
    """A timer is one heap entry on the fast path and on the slow,
    accounted one alike: still cancellable, firing in the same order."""
    env = Environment(stats=slowpath)
    got = []
    env.call_later(0.0, lambda ev: got.append(("zero", env.now)))
    env.call_at(2.0, lambda ev: got.append((ev.value, env.now)), value="b")
    env.call_later(2.0, lambda ev: got.append((ev.value, env.now)), value="c")
    doomed = env.call_later(1.0, lambda ev: got.append(("doomed", env.now)))
    env.call_later(1.0, lambda ev: got.append(("a", env.now)))
    assert doomed.cancel() is True
    assert len(env._queue) == 5
    env.run()
    assert got == [("zero", 0.0), ("a", 1.0), ("b", 2.0), ("c", 2.0)]
    if slowpath:
        assert env.stats.events_scheduled == 5
        assert env.stats.events_processed == 4


# ----------------------------------------------------------------------
# call_at: absolute-time timers on both paths
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
def test_call_at_fires_at_exactly_when_on_both_paths(slowpath):
    env = Environment(stats=slowpath)
    woke = []

    def frame_end(ev):
        woke.append((env.now, ev.value))

    def frame_start(ev):
        woke.append(env.now)
        end = _frame_end(env.now)
        assert env.now + (end - env.now) != end  # a relative timer misses
        env.call_at(end, frame_end, value=end)

    env.call_at(_ULP_NOW, frame_start)
    env.run()
    assert woke[0] == _ULP_NOW
    now, end = woke[1]
    assert now == end


def test_call_at_rejects_a_past_when_on_the_slow_path():
    env = Environment(stats=True)
    env.run(until=1.0)
    with pytest.raises(ValueError, match="in the past"):
        env.call_at(0.5, lambda ev: None)
    fired = []
    env.call_at(1.0, lambda ev: fired.append(env.now))  # now itself is fine
    env.run()
    assert fired == [1.0]


# ----------------------------------------------------------------------
# run(): the inlined dispatch loop against a manual step() loop
# ----------------------------------------------------------------------
def _busy_world(env, log):
    """Colliding timers at four priorities, a periodic ticker, a callback
    that raises, and enough cancellations from inside a callback to
    compact the heap mid-run."""
    rng = random.Random(7)

    def fire(ev):
        log.append((env.now, ev.value))
        if ev.value % 11 == 0:
            env.call_later(rng.choice([0.0, 0.25]), fire, value=ev.value + 10_000)

    doomed = []
    for i in range(1500):
        when = rng.choice([0.5, 1.0, 1.0, 1.5, 2.0, 3.0])
        ev = env.call_at(when, fire, value=i, priority=rng.randrange(4))
        if i % 3:
            doomed.append(ev)

    def cull(ev):
        log.append((env.now, "cull"))
        for victim in doomed:
            victim.cancel()

    def explode(ev):
        log.append((env.now, "explode"))
        raise KeyError("nobody waits")

    def tick(ev):
        log.append((env.now, "tick"))
        if ev.value < 8:
            env.call_later(0.4, tick, value=ev.value + 1)

    env.call_at(0.75, cull)
    env.call_at(1.25, explode)
    env.call_later(0.4, tick, value=1)


def _step_until_empty(env):
    while True:
        try:
            env.step()
        except EmptySchedule:
            return


def _counters(env):
    s = env.stats
    return (s.events_processed, s.events_skipped, s.heap_compactions, env.now)


def test_run_dispatches_in_the_order_of_a_manual_step_loop():
    logs, counters = [], []
    for drive in (lambda env: env.run(), _step_until_empty):
        env = Environment(stats=True)
        log = []
        _busy_world(env, log)
        with pytest.raises(KeyError, match="nobody waits"):
            drive(env)  # the callback's exception surfaces at t=1.25
        assert env.now == 1.25
        drive(env)  # and the run carries on from there
        logs.append(log)
        counters.append(_counters(env))
    assert logs[0] == logs[1]
    assert counters[0] == counters[1]
    assert env.stats.heap_compactions >= 1  # compacted mid-run
    assert (0.75, "cull") in logs[0]
    assert len(logs[0]) > 500


def _books_close(env):
    s = env.stats
    return s.events_scheduled - s.events_cancelled - env.queue_size() == s.events_processed


def test_run_until_an_event_matches_a_manual_step_loop():
    results = []
    for manual in (False, True):
        env = Environment(stats=True)
        log = []
        _busy_world(env, log)
        env.run(until=1.0)
        assert _books_close(env)
        stop = _timer(env, 0.2, value="stop")
        if manual:
            while not stop.processed:
                env.step()
            value = stop.value
        else:
            value = env.run(until=stop)
        assert _books_close(env)
        results.append((value, log, _counters(env), env.queue_size()))
    assert results[0] == results[1]
    assert results[0][0] == "stop"


@pytest.mark.parametrize("until", ["number", "event"])
def test_run_until_counts_its_stop_event_as_processed(until):
    env = Environment(stats=True)
    _timer(env, 0.5)
    _timer(env, 2.0)
    stop = 1.0 if until == "number" else _timer(env, 1.0)
    env.run(until=stop)
    assert env.stats.events_processed == 2  # the 0.5 s timeout and the stop
    assert _books_close(env)
    env.run()
    assert env.stats.events_processed == 3
    assert _books_close(env)


def test_run_until_an_event_resumes_waiters_that_joined_during_the_run():
    """Callbacks that start waiting on the until-event after run()
    attached its stop callback still run when it fires."""
    env = Environment()
    stop = _timer(env, 1.0, value="stop")
    woke = []

    def waiter(name):
        return lambda ev: woke.append((name, env.now, ev.value))

    def spawner(ev):
        stop.add_callback(waiter("a"))
        stop.add_callback(waiter("b"))

    env.call_later(0.5, spawner)
    assert env.run(until=stop) == "stop"
    assert woke == [("a", 1.0, "stop"), ("b", 1.0, "stop")]


# ----------------------------------------------------------------------
# run(until=...) teardown + remove_callback identity semantics
# ----------------------------------------------------------------------
def test_tight_run_until_loop_does_not_grow_callback_lists():
    """ScenarioRuntime steps the world one control period at a time."""
    env = Environment()

    def tick(ev):
        env.call_later(0.1, tick)

    env.call_later(0.1, tick)
    pending = _timer(env, 1e9)
    for i in range(1, 200):
        env.run(until=i * 0.05)
    # the ticker's next timer and the far one are all that is left, and
    # the far one holds only its own callback: 200 stop events must not
    # have left anything behind
    assert env.queue_size() == 2
    assert pending.callbacks == [_noop]


def test_run_until_already_processed_event_returns_value():
    env = Environment()
    t = _timer(env, 1.0, "v")
    env.run()
    assert t.processed
    assert env.run(until=t) == "v"


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
# EnvStats
# ----------------------------------------------------------------------
def test_stats_disabled_by_default():
    assert Environment().stats is None


def test_stats_counts_lifecycle():
    env = Environment(stats=True)

    class Ticker:
        event_owner = "tick"

        def __init__(self):
            self.left = 3
            env.call_later(1.0, self.tick)

        def tick(self, ev):
            self.left -= 1
            if self.left:
                env.call_later(1.0, self.tick)

    Ticker()
    doomed = _timer(env, 10.0)
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
    _timer(env, 1.0)
    env.run()
    assert s.events_processed == 1


def test_capture_env_stats_sink():
    from repro.sim import core as sim_core

    sink = []
    sim_core.capture_env_stats(sink)
    try:
        env = Environment()
        assert env.stats is not None
        _timer(env, 1.0)
        env.run()
    finally:
        sim_core.capture_env_stats(None)
    assert len(sink) == 1
    assert sink[0].events_processed == 1
    assert Environment().stats is None  # sink cleared


def test_env_stats_skips_cancelled_heads():
    env = Environment(stats=True)
    dead = _timer(env, 0.5)
    _timer(env, 1.0)
    dead.cancel()
    env.run()
    # the cancelled head is dropped, not counted as processed
    assert env.stats.events_processed == 1
    assert env.stats.events_skipped == 1
