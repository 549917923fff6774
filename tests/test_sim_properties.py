"""Property-based tests (hypothesis) for the DES kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_completion_order_matches_sorted_delays(delays):
    """Processes waiting arbitrary delays complete in sorted order."""
    env = Environment()
    completions = []

    def waiter(env, idx, delay):
        yield env.timeout(delay)
        completions.append((env.now, idx))

    for idx, delay in enumerate(delays):
        env.process(waiter(env, idx, delay))
    env.run()

    times = [t for t, _ in completions]
    assert times == sorted(times)
    # equal delays must preserve spawn order (determinism)
    expected = sorted(range(len(delays)), key=lambda i: (delays[i], i))
    assert [i for _, i in completions] == expected


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_clock_never_goes_backwards(delays):
    env = Environment()
    observed = []

    def waiter(env, delay):
        yield env.timeout(delay)
        observed.append(env.now)

    def nested(env, delay):
        yield env.timeout(delay / 2.0)
        observed.append(env.now)
        yield env.timeout(delay / 2.0)
        observed.append(env.now)

    for delay in delays:
        env.process(waiter(env, delay))
        env.process(nested(env, delay))
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

    def ticker(env):
        while True:
            yield env.timeout(horizon / n_events)
            fired.append(env.now)

    env.process(ticker(env))
    env.run(until=horizon)
    assert env.now == horizon
    assert all(t <= horizon for t in fired)


@given(values=st.lists(st.integers(), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_process_return_values_round_trip(values):
    """Fork/join preserves each child's return value."""
    env = Environment()

    def child(env, v):
        yield env.timeout(1.0)
        return v

    def parent(env):
        children = [env.process(child(env, v)) for v in values]
        results = []
        for c in children:
            results.append((yield c))
        return results

    p = env.process(parent(env))
    assert env.run(until=p) == values
