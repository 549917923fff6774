"""Tests for the reservation broker (ATOMS-lite admission)."""

import numpy as np
import pytest

from repro.models.latency import GpuBatchModel
from repro.server.admission import ReservationBroker
from repro.server.requests import InferenceRequest
from repro.server.server import EdgeServer
from repro.sim import Environment
from tests.timers import every


def make_broker(env=None, utilization_target=0.85):
    env = env or Environment()
    server = EdgeServer(env, np.random.default_rng(0))
    broker = ReservationBroker(env, server, utilization_target=utilization_target)
    return env, server, broker


def test_validation():
    env = Environment()
    server = EdgeServer(env, np.random.default_rng(0))
    with pytest.raises(ValueError):
        ReservationBroker(env, server, utilization_target=0.0)
    with pytest.raises(ValueError):
        ReservationBroker(env, server, measure_period=0.0)
    _, _, broker = make_broker()
    with pytest.raises(ValueError):
        broker.request("t", -1.0)


def test_single_tenant_gets_ask_when_capacity_allows():
    _, _, broker = make_broker()
    grant = broker.request("pi", 30.0)
    assert grant == pytest.approx(30.0)


def test_ask_beyond_capacity_is_capped():
    _, _, broker = make_broker()
    grant = broker.request("pi", 10_000.0)
    assert grant == pytest.approx(broker.capacity())


def test_two_tenants_split_fairly():
    _, _, broker = make_broker()
    cap = broker.capacity()
    a = broker.request("a", cap)
    b = broker.request("b", cap)
    # after both asks are standing, each gets half
    assert b == pytest.approx(cap / 2)
    assert broker.request("a", cap) == pytest.approx(cap / 2)
    assert a <= cap  # first call saw only itself


def test_max_min_small_ask_fully_served():
    _, _, broker = make_broker()
    cap = broker.capacity()
    broker.request("big", cap)
    small = broker.request("small", 2.0)
    assert small == pytest.approx(2.0)
    big = broker.request("big", cap)
    assert big == pytest.approx(cap - 2.0)


def test_release_returns_capacity():
    _, _, broker = make_broker()
    cap = broker.capacity()
    broker.request("a", cap)
    broker.request("b", cap)
    broker.release("a")
    assert broker.request("b", cap) == pytest.approx(cap)


def test_background_rate_measured_and_deducted():
    env, server, broker = make_broker()

    def background(_i):
        server.submit(
            InferenceRequest(
                tenant="bg0",
                model_name="efficientnet_b0",
                sent_at=env.now,
                payload_bytes=100,
                respond=lambda r: None,
            )
        )

    every(env, 0.02, background, until=5.0)  # 50 req/s
    env.run(until=4.0)
    assert broker.background_rate == pytest.approx(50.0, rel=0.2)
    grant = broker.request("pi", 1000.0)
    assert grant == pytest.approx(broker.capacity() - broker.background_rate, rel=0.05)


def test_reserved_tenant_not_counted_as_background():
    env, server, broker = make_broker()
    broker.request("pi", 30.0)

    def reserved_traffic(_i):
        server.submit(
            InferenceRequest(
                tenant="pi",
                model_name="mobilenet_v3_small",
                sent_at=env.now,
                payload_bytes=100,
                respond=lambda r: None,
            )
        )

    every(env, 1 / 30, reserved_traffic, until=3.0)
    env.run(until=3.0)
    assert broker.background_rate == pytest.approx(0.0, abs=0.5)


# ----------------------------------------------------------------------
# max-min fairness as a property (Hypothesis)
# ----------------------------------------------------------------------
from hypothesis import given, settings
from hypothesis import strategies as st

_asks_strategy = st.lists(
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)


def _final_grants(asks, order=None):
    """Register every ask, then re-query each tenant so all grants are
    computed against the full, settled set of standing asks."""
    _, _, broker = make_broker()
    tenants = [f"t{i}" for i in range(len(asks))]
    order = order if order is not None else list(range(len(asks)))
    for i in order:
        broker.request(tenants[i], asks[i])
    grants = {tenants[i]: broker.request(tenants[i], asks[i]) for i in order}
    return broker, grants


@settings(max_examples=60, deadline=None)
@given(asks=_asks_strategy)
def test_grants_never_exceed_asks(asks):
    _, grants = _final_grants(asks)
    for i, ask in enumerate(asks):
        assert grants[f"t{i}"] <= ask + 1e-9


@settings(max_examples=60, deadline=None)
@given(asks=_asks_strategy)
def test_grants_never_exceed_capacity(asks):
    broker, grants = _final_grants(asks)
    assert sum(grants.values()) <= broker.capacity() + 1e-6


@settings(max_examples=60, deadline=None)
@given(asks=_asks_strategy, data=st.data())
def test_grants_are_order_insensitive(asks, data):
    order = data.draw(st.permutations(list(range(len(asks)))))
    _, forward = _final_grants(asks)
    _, permuted = _final_grants(asks, order=order)
    for tenant, grant in forward.items():
        assert permuted[tenant] == pytest.approx(grant, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(asks=_asks_strategy)
def test_unsatisfied_tenants_get_no_less_than_satisfied_ones(asks):
    """Max-min: a tenant whose ask was cut never ends up with less than
    any fully-served tenant asked for."""
    _, grants = _final_grants(asks)
    cut = [grants[f"t{i}"] for i, a in enumerate(asks) if grants[f"t{i}"] < a - 1e-9]
    served = [a for i, a in enumerate(asks) if grants[f"t{i}"] >= a - 1e-9]
    if cut and served:
        assert min(cut) >= max(served) - 1e-6
