"""Unit tests for the DES kernel: environment, events, run loop."""

import pytest

from repro.sim import Environment
from repro.sim.core import EmptySchedule


def _noop(event):
    pass


def test_initial_time_defaults_to_zero():
    assert Environment().now == 0.0


def test_initial_time_can_be_set():
    assert Environment(initial_time=5.0).now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    done = {}
    env.call_later(3.5, lambda ev: done.update(t=env.now))
    env.run()
    assert done["t"] == pytest.approx(3.5)


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def tick(ev):
        env.call_later(1.0, tick)

    env.call_later(1.0, tick)
    env.run(until=4.5)
    assert env.now == pytest.approx(4.5)


def test_run_until_past_time_raises():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_returns_value():
    env = Environment()
    ev = env.call_later(2.0, _noop, value="payload")
    assert env.run(until=ev) == "payload"
    assert env.now == pytest.approx(2.0)


def test_events_fire_in_time_order():
    env = Environment()
    order = []
    for delay, tag in ((3.0, "c"), (1.0, "a"), (2.0, "b")):
        env.call_later(delay, lambda ev: order.append(ev.value), value=tag)
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    env = Environment()
    order = []
    for tag in range(5):
        env.call_later(1.0, lambda ev: order.append(ev.value), value=tag)
    env.run()
    assert order == list(range(5))


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.call_later(-1.0, _noop)


def test_event_succeed_delivers_value():
    env = Environment()
    ev = env.event()
    got = {}
    ev.add_callback(lambda e: got.update(v=e.value))
    ev.succeed(42)
    env.run()
    assert got["v"] == 42


def test_unhandled_failed_event_crashes_run():
    """An exception a callback raises ends the run at that event."""
    env = Environment()

    def boom(ev):
        raise RuntimeError("nobody caught me")

    env.call_later(1.0, boom)
    with pytest.raises(RuntimeError, match="nobody caught me"):
        env.run()
    assert env.now == 1.0


def test_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.call_later(7.0, _noop)
    assert env.peek() == pytest.approx(7.0)


def test_queue_size_reflects_pending_events():
    env = Environment()
    env.call_later(1.0, _noop)
    env.call_later(2.0, _noop)
    assert env.queue_size() == 2
