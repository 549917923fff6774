"""Unit tests for the resilience primitives (budget, breaker, taxonomy).

Every component here is simulation-free by design — time is an explicit
argument — so these tests need no event loop.
"""

import dataclasses

import pytest

from repro.control.base import Measurement
from repro.control.transcript import _measurement_from_dict
from repro.metrics.taxonomy import FailureKind, FailureTaxonomy
from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    ResilienceConfig,
    RetryBudget,
)


# ----------------------------------------------------------------------
# retry budget
# ----------------------------------------------------------------------
def test_budget_validation():
    with pytest.raises(ValueError):
        RetryBudget(rate=0.0, burst=1.0)
    with pytest.raises(ValueError):
        RetryBudget(rate=1.0, burst=0.0)
    budget = RetryBudget(rate=1.0, burst=1.0)
    with pytest.raises(ValueError):
        budget.try_acquire(0.0, cost=0.0)
    with pytest.raises(ValueError):
        budget.tokens(1.0) and budget.tokens(0.5)  # time went backwards


def test_budget_burst_then_metered():
    budget = RetryBudget(rate=2.0, burst=4.0)
    grants = [budget.try_acquire(0.0) for _ in range(6)]
    assert grants == [True] * 4 + [False] * 2
    assert budget.granted == 4 and budget.denied == 2
    # half a second refills one token at rate 2/s
    assert budget.try_acquire(0.5)
    assert not budget.try_acquire(0.5)


def test_budget_never_exceeds_burst():
    budget = RetryBudget(rate=10.0, burst=3.0)
    assert budget.tokens(1000.0) == pytest.approx(3.0)


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
def make_breaker(**kw) -> CircuitBreaker:
    defaults = dict(
        trip_threshold=3,
        backoff_initial=0.5,
        backoff_multiplier=2.0,
        backoff_max=4.0,
        close_after=1,
    )
    defaults.update(kw)
    return CircuitBreaker(ResilienceConfig(**defaults))


def test_breaker_trips_on_consecutive_failures_only():
    b = make_breaker()
    b.record_failure(0.0)
    b.record_failure(0.1)
    b.record_success(0.2)  # streak broken
    b.record_failure(0.3)
    b.record_failure(0.4)
    assert b.is_closed
    b.record_failure(0.5)
    assert b.is_open
    assert b.opened_count == 1
    assert b.transitions == [(0.5, BreakerState.OPEN)]


def test_breaker_open_ignores_data_path_stragglers():
    b = make_breaker()
    for t in range(3):
        b.record_failure(float(t))
    assert b.is_open
    b.record_success(3.0)  # late success must not close it
    b.record_failure(3.1)  # nor re-trip it
    assert b.is_open
    assert b.opened_count == 1


def test_breaker_probe_protocol_and_exponential_backoff():
    b = make_breaker()
    with pytest.raises(RuntimeError):
        b.on_probe_sent(0.0)  # no probes while closed
    for t in range(3):
        b.record_failure(float(t))
    assert b.current_backoff == pytest.approx(0.5)

    b.on_probe_sent(2.5)
    assert b.state is BreakerState.HALF_OPEN
    b.record_probe(False, 2.75)
    assert b.is_open
    assert b.current_backoff == pytest.approx(1.0)

    b.on_probe_sent(3.75)
    b.record_probe(False, 4.0)
    assert b.current_backoff == pytest.approx(2.0)
    b.on_probe_sent(6.0)
    b.record_probe(False, 6.25)
    assert b.current_backoff == pytest.approx(4.0)
    b.on_probe_sent(10.25)
    b.record_probe(False, 10.5)
    assert b.current_backoff == pytest.approx(4.0)  # capped

    b.on_probe_sent(14.5)
    b.record_probe(True, 14.75)
    assert b.is_closed
    assert b.current_backoff == pytest.approx(0.5)  # reset on close
    assert b.probe_times == [2.5, 3.75, 6.0, 10.25, 14.5]


def test_breaker_close_after_requires_consecutive_probe_successes():
    b = make_breaker(close_after=2)
    for t in range(3):
        b.record_failure(float(t))
    b.on_probe_sent(3.0)
    b.record_probe(True, 3.1)
    assert b.state is BreakerState.HALF_OPEN  # one success is not enough
    b.on_probe_sent(3.5)
    b.record_probe(True, 3.6)
    assert b.is_closed


def test_breaker_retry_after_hint_seeds_backoff():
    b = make_breaker()
    b.record_failure(0.0)
    b.record_failure(0.1)
    b.record_failure(0.2, retry_after=2.5)
    assert b.is_open
    assert b.current_backoff == pytest.approx(2.5)
    # the hint is clamped to the ceiling
    b2 = make_breaker()
    for t in range(2):
        b2.record_failure(float(t))
    b2.record_failure(2.0, retry_after=100.0)
    assert b2.current_backoff == pytest.approx(4.0)


def test_breaker_on_open_callback_fires_once_per_trip():
    b = make_breaker()
    opened = []
    b.on_open = lambda: opened.append(True)
    for t in range(3):
        b.record_failure(float(t))
    assert opened == [True]
    b.on_probe_sent(1.0)
    b.record_probe(False, 1.25)  # HALF_OPEN -> OPEN is not a new trip
    assert opened == [True]


def test_breaker_state_value_encoding():
    b = make_breaker()
    assert b.state_value() == 0.0
    for t in range(3):
        b.record_failure(float(t))
    assert b.state_value() == 1.0
    b.on_probe_sent(1.0)
    assert b.state_value() == 0.5


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kw",
    [
        {"retry_after_frac": 0.0},
        {"retry_after_frac": 1.0},
        {"min_reply_frac": 1.0},
        {"max_retries": -1},
        {"retry_budget_rate": 0.0},
        {"trip_threshold": 0},
        {"backoff_initial": 0.0},
        {"backoff_multiplier": 0.5},
        {"backoff_max": 0.1},  # < backoff_initial
        {"close_after": 0},
        {"open_target_frac": 0.0},
    ],
)
def test_config_rejects_bad_knobs(kw):
    with pytest.raises(ValueError):
        ResilienceConfig(**kw)


# ----------------------------------------------------------------------
# taxonomy
# ----------------------------------------------------------------------
def test_taxonomy_counts_and_buckets():
    tax = FailureTaxonomy()
    tax.record(FailureKind.SILENT_TIMEOUT)
    tax.record(FailureKind.RETRY_SENT, count=3)
    assert tax.total(FailureKind.RETRY_SENT) == 3
    assert tax.bucket(FailureKind.RETRY_SENT) == 3
    rates = tax.close_bucket(bucket_seconds=2.0)
    assert rates[FailureKind.RETRY_SENT] == pytest.approx(1.5)
    assert tax.bucket(FailureKind.RETRY_SENT) == 0  # bucket reset
    assert tax.total(FailureKind.RETRY_SENT) == 3  # totals monotone
    assert tax.as_dict()["silent_timeout"] == 1
    with pytest.raises(ValueError):
        tax.record(FailureKind.REJECTED, count=-1)
    with pytest.raises(ValueError):
        tax.close_bucket(0.0)


# ----------------------------------------------------------------------
# layer + measurement plumbing
# ----------------------------------------------------------------------
def test_layer_open_target_is_standing_probe():
    from repro.control.framefeedback import FrameFeedbackController
    from repro.device.config import DeviceConfig
    from repro.experiments.scenario import Scenario, build_runtime

    def parked(resilience):
        device = build_runtime(
            Scenario(
                controller_factory=lambda cfg: FrameFeedbackController(cfg.frame_rate),
                device=DeviceConfig(total_frames=30, resilience=resilience),
            )
        ).device
        return device.core.park_target

    # the layer's open_target_frac of F_s; the paper's 0.1 F_s without one
    assert parked(ResilienceConfig(open_target_frac=0.2)) == pytest.approx(6.0)
    assert parked(None) == pytest.approx(3.0)


def test_measurement_resilience_fields_default_to_zero():
    m = Measurement(
        time=1.0,
        frame_rate=30.0,
        offload_target=10.0,
        offload_rate=10.0,
        offload_success_rate=10.0,
        timeout_rate=0.0,
        timeout_rate_last=0.0,
        local_rate=5.0,
        throughput=15.0,
    )
    assert m.overload_rate == 0.0
    assert m.retry_rate == 0.0
    assert m.breaker_open == 0.0


def test_transcript_replay_drops_unknown_measurement_keys():
    m = Measurement(
        time=1.0,
        frame_rate=30.0,
        offload_target=10.0,
        offload_rate=10.0,
        offload_success_rate=10.0,
        timeout_rate=0.0,
        timeout_rate_last=0.0,
        local_rate=5.0,
        throughput=15.0,
    )
    d = dataclasses.asdict(m)
    d["some_future_field"] = 42.0
    assert _measurement_from_dict(d) == m
