"""The per-frame attempt discipline both offload clients share, driven
from scripted ``(now, reply)`` inputs.

No ``Environment`` and no event loop: each test hands the resilience
layer its ``now`` and a reply of either tier (the simulator's
``Response`` or the wire's ``Reply``) and reads the verdict and the
breaker, budget and taxonomy it leaves — the same calls the DES
``OffloadClient`` and the wall-clock ``ResilientSocketRemote`` make
from their timers and read callbacks.
"""

import pytest

from repro.metrics.taxonomy import FailureKind
from repro.realtime import protocol
from repro.resilience import BreakerState, ResilienceConfig, ResilienceLayer
from repro.resilience.layer import COMPLETED, FAILED, LATE, RESEND, verdict
from repro.server.requests import RequestOutcome, Response

DEADLINE = 0.25
#: a frame sent at t=0: its deadline, anchored at the original send
DEADLINE_AT = DEADLINE


def des_reply(status, retry_after=None):
    outcome = {
        "ok": RequestOutcome.COMPLETED,
        "rejected": RequestOutcome.REJECTED,
        "overloaded": RequestOutcome.OVERLOADED,
    }[status]
    return Response(0, 0, "t", outcome, 0.0, retry_after=retry_after)


def wire_reply(status, retry_after=None):
    byte = {
        "ok": protocol.STATUS_OK,
        "rejected": protocol.STATUS_REJECTED,
        "overloaded": protocol.STATUS_OVERLOADED,
        "expired": protocol.STATUS_EXPIRED,
    }[status]
    return protocol.Reply(byte, retry_after)


TIERS = pytest.mark.parametrize("reply", [des_reply, wire_reply], ids=["des", "wire"])


def layer(**overrides):
    return ResilienceLayer(ResilienceConfig(**overrides))


def counts(lay):
    return {k: v for k, v in lay.taxonomy.as_dict().items() if v}


def judge(lay, now, reply, retries=0, probe=False):
    return verdict(lay, now, reply, now > DEADLINE_AT, retries, DEADLINE_AT, DEADLINE, probe)


# ----------------------------------------------------------------------
# the retry gate
# ----------------------------------------------------------------------
def test_gate_grants_a_retry_inside_the_window_and_spends_a_token():
    lay = layer(retry_budget_burst=2.0)
    assert lay.retry(0.125, 0, DEADLINE_AT, DEADLINE)
    assert counts(lay) == {"retry_sent": 1}
    assert lay.retry_budget.tokens(0.125) == pytest.approx(1.0)


def test_gate_refuses_a_frame_that_spent_its_retries_without_a_record():
    lay = layer(max_retries=1)
    assert not lay.retry(0.125, 1, DEADLINE_AT, DEADLINE)
    assert counts(lay) == {}
    assert lay.retry_budget.granted == lay.retry_budget.denied == 0


def test_gate_refuses_while_the_breaker_is_not_closed_without_a_record():
    lay = layer(trip_threshold=1)
    lay.settle(0.0, FailureKind.SILENT_TIMEOUT)
    assert lay.breaker.is_open
    assert not lay.retry(0.125, 0, DEADLINE_AT, DEADLINE)
    assert counts(lay) == {"silent_timeout": 1}
    assert lay.retry_budget.granted == lay.retry_budget.denied == 0


def test_gate_refuses_when_too_little_of_the_deadline_would_remain():
    lay = layer()  # min_reply_frac 0.3: at least 75 ms must remain
    assert not lay.retry(0.18, 0, DEADLINE_AT, DEADLINE)
    # a wait counts against the window: 0.1 + 0.08 leaves 70 ms
    assert not lay.retry(0.1, 0, DEADLINE_AT, DEADLINE, wait=0.08)
    assert counts(lay) == {"retry_window_closed": 2}
    assert lay.retry_budget.granted == 0


def test_gate_refuses_when_the_token_bucket_is_dry():
    lay = layer(retry_budget_burst=1.0, retry_budget_rate=1.0)
    assert lay.retry(0.1, 0, DEADLINE_AT, DEADLINE)
    assert not lay.retry(0.1, 0, DEADLINE_AT, DEADLINE)
    assert counts(lay) == {"retry_sent": 1, "retry_denied": 1}


# ----------------------------------------------------------------------
# the verdict on a reply
# ----------------------------------------------------------------------
@TIERS
def test_timely_ok_completes_and_books_a_success(reply):
    lay = layer(trip_threshold=2)
    lay.settle(0.0, FailureKind.SILENT_TIMEOUT)
    assert judge(lay, 0.1, reply("ok")) is COMPLETED
    lay.settle(0.1, None)
    assert lay.breaker.consecutive_failures == 0
    assert counts(lay) == {"silent_timeout": 1}


@TIERS
def test_late_ok_is_ignored(reply):
    lay = layer()
    assert judge(lay, 0.3, reply("ok")) is LATE
    assert counts(lay) == {}
    assert lay.breaker.consecutive_failures == 0


@pytest.mark.parametrize(
    "reply,status",
    [(des_reply, "rejected"), (wire_reply, "rejected"), (wire_reply, "expired")],
)
def test_rejection_with_a_hedge_copy_in_flight_settles_at_once(reply, status):
    lay = layer()
    assert lay.retry(0.125, 0, DEADLINE_AT, DEADLINE)  # the hedge copy
    assert judge(lay, 0.13, reply(status), retries=1) is FAILED
    lay.settle(0.13, FailureKind.REJECTED)
    assert counts(lay) == {"retry_sent": 1, "rejected": 1}
    assert lay.breaker.consecutive_failures == 1


@TIERS
def test_overload_with_a_small_hint_is_resent(reply):
    lay = layer()
    assert judge(lay, 0.05, reply("overloaded", retry_after=0.05)) is RESEND
    assert counts(lay) == {"overloaded": 1, "retry_sent": 1}
    assert lay.breaker.consecutive_failures == 0  # not settled


@TIERS
def test_overload_with_a_large_hint_settles_overloaded(reply):
    lay = layer(trip_threshold=1, backoff_initial=0.5)
    hint = 1.5
    assert judge(lay, 0.05, reply("overloaded", retry_after=hint)) is FAILED
    assert counts(lay) == {"retry_window_closed": 1}
    lay.settle(0.05, FailureKind.OVERLOADED, retry_after=hint)
    assert counts(lay) == {"retry_window_closed": 1, "overloaded": 1}
    # the hint seeds the first probe backoff
    assert lay.breaker.is_open
    assert lay.breaker.current_backoff == pytest.approx(hint)


@TIERS
def test_overloaded_probe_is_never_resent(reply):
    lay = layer()
    assert judge(lay, 0.05, reply("overloaded", retry_after=0.05), probe=True) is FAILED
    assert counts(lay) == {}


@TIERS
def test_bare_client_never_resends(reply):
    assert verdict(
        None, 0.05, reply("overloaded", retry_after=0.05), False, 0, DEADLINE_AT, DEADLINE
    ) is FAILED
    assert verdict(None, 0.3, reply("ok"), True, 0, DEADLINE_AT, DEADLINE) is LATE


# ----------------------------------------------------------------------
# the settle bookkeeping
# ----------------------------------------------------------------------
def test_trial_probe_goes_to_record_probe_not_the_data_path_counters():
    lay = layer(trip_threshold=2, close_after=1)
    for now in (0.0, 0.1):
        lay.settle(now, FailureKind.SILENT_TIMEOUT)
    assert lay.breaker.is_open
    lay.breaker.on_probe_sent(1.0)
    lay.settle(1.25, FailureKind.SILENT_TIMEOUT, trial=True)
    assert lay.breaker.state is BreakerState.OPEN
    assert lay.breaker.opened_count == 1  # a failed trial is no new trip
    assert counts(lay) == {"silent_timeout": 3, "probe_failed": 1}
    lay.breaker.on_probe_sent(2.5)
    lay.settle(2.6, None, trial=True)
    assert lay.breaker.is_closed
    assert lay.breaker.consecutive_failures == 0
    assert counts(lay) == {"silent_timeout": 3, "probe_failed": 1}


def test_data_path_failures_trip_the_breaker():
    lay = layer(trip_threshold=3)
    for now in (0.0, 0.1):
        lay.settle(now, FailureKind.REJECTED)
    assert lay.breaker.is_closed
    lay.settle(0.2, FailureKind.SILENT_TIMEOUT)
    assert lay.breaker.is_open
    assert counts(lay) == {"rejected": 2, "silent_timeout": 1}
