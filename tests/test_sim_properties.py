"""Property-based tests (hypothesis) for the DES kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_completion_order_matches_sorted_delays(delays):
    """Timers armed with arbitrary delays complete in sorted order."""
    env = Environment()
    completions = []

    for idx, delay in enumerate(delays):
        env.call_later(delay, lambda ev: completions.append((env.now, ev.value)), idx)
    env.run()

    times = [t for t, _ in completions]
    assert times == sorted(times)
    # equal delays must preserve arming order (determinism)
    expected = sorted(range(len(delays)), key=lambda i: (delays[i], i))
    assert [i for _, i in completions] == expected


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_clock_never_goes_backwards(delays):
    env = Environment()
    observed = []

    def record(ev):
        observed.append(env.now)

    def halfway(ev):
        # a timer armed from inside a callback, as every periodic loop does
        observed.append(env.now)
        env.call_later(ev.value, record)

    for delay in delays:
        env.call_later(delay, record)
        env.call_later(delay / 2.0, halfway, delay / 2.0)
    env.run()
    assert observed == sorted(observed)


@given(
    n_events=st.integers(min_value=1, max_value=30),
    horizon=st.floats(min_value=0.5, max_value=100.0),
)
@settings(max_examples=60, deadline=None)
def test_run_until_stops_exactly_at_horizon(n_events, horizon):
    env = Environment()
    fired = []

    def tick(ev):
        fired.append(env.now)
        env.call_later(horizon / n_events, tick)

    env.call_later(horizon / n_events, tick)
    env.run(until=horizon)
    assert env.now == horizon
    assert all(t <= horizon for t in fired)
