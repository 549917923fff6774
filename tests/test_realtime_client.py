"""Tests for the resilient socket client (breaker, probes, taxonomy).

The client is :mod:`repro.resilience` on real sockets; these tests
drive it against a real gateway (and a dead port) and assert the same
contracts the simulator's resilience layer carries: closed accounting,
breaker trip/fallback/re-close, and shared taxonomy counters.
"""

import asyncio
import socket
import time

import pytest

from repro.metrics.taxonomy import FailureKind
from repro.realtime.client import FrameOutcome, ResilientSocketRemote
from repro.realtime.gateway import GatewayConfig, InferenceGateway
from repro.resilience.config import ResilienceConfig


def run(coro):
    return asyncio.run(coro)


def dead_address():
    """An address nothing listens on (bind, read the port, close)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    return address


def test_constructor_validation():
    with pytest.raises(ValueError):
        ResilientSocketRemote(("127.0.0.1", 1), deadline=0.0)
    with pytest.raises(ValueError):
        ResilientSocketRemote(("127.0.0.1", 1), frame_bytes=0)


def test_completed_round_trip_and_submit_bool():
    async def scenario():
        async with InferenceGateway(GatewayConfig()) as gateway:
            remote = ResilientSocketRemote(
                gateway.address, deadline=0.5, frame_bytes=128
            )
            assert await remote.submit_frame() is FrameOutcome.COMPLETED
            assert await remote.submit_frame() is FrameOutcome.COMPLETED
            await remote.close()
            assert remote.submitted == 2
            assert remote.counts[FrameOutcome.COMPLETED] == 2
            assert remote.accounting_closed

    run(scenario())


def test_breaker_trips_to_local_fallback_on_dead_address():
    async def scenario():
        config = ResilienceConfig.wallclock()
        remote = ResilientSocketRemote(
            dead_address(), deadline=0.05, config=config, frame_bytes=64
        )
        outcomes = [await remote.submit_frame() for _ in range(config.trip_threshold + 3)]
        await remote.close()
        # first trip_threshold attempts fail fast (connection refused),
        # then the breaker opens and frames divert locally, unsent
        assert outcomes[: config.trip_threshold] == (
            [FrameOutcome.TIMEOUT] * config.trip_threshold
        )
        assert FrameOutcome.FALLBACK_LOCAL in outcomes
        assert remote.breaker.is_open
        assert remote.accounting_closed
        taxonomy = remote.taxonomy.as_dict()
        assert taxonomy[FailureKind.BREAKER_FALLBACK.value] >= 1
        assert taxonomy[FailureKind.SILENT_TIMEOUT.value] >= config.trip_threshold

    run(scenario())


def test_overload_pushback_is_classified_not_timed_out():
    async def scenario():
        gw_config = GatewayConfig(tenant_rate=1.0, tenant_burst=1.0)
        async with InferenceGateway(gw_config) as gateway:
            remote = ResilientSocketRemote(
                gateway.address, deadline=0.5, tenant="greedy", frame_bytes=64
            )
            first = await remote.submit_frame()
            second = await remote.submit_frame()
            await remote.close()
            assert first is FrameOutcome.COMPLETED
            assert second is FrameOutcome.OVERLOADED
            assert remote.taxonomy.as_dict()[FailureKind.OVERLOADED.value] == 1
            assert remote.accounting_closed

    run(scenario())


def test_overload_with_a_short_hint_is_resent_and_completes():
    async def scenario():
        gw_config = GatewayConfig(tenant_rate=20.0, tenant_burst=1.0)
        async with InferenceGateway(gw_config) as gateway:
            remote = ResilientSocketRemote(
                gateway.address, deadline=0.5, tenant="greedy", frame_bytes=64
            )
            first = await remote.submit_frame()
            # the bucket is empty: pushback with a ~50 ms hint, well
            # inside the deadline, so the frame goes out again after it
            second = await remote.submit_frame()
            await remote.close()
            assert first is FrameOutcome.COMPLETED
            assert second is FrameOutcome.COMPLETED
            taxonomy = remote.taxonomy.as_dict()
            assert taxonomy[FailureKind.OVERLOADED.value] == 1
            assert taxonomy[FailureKind.RETRY_SENT.value] == 1
            assert remote.counts[FrameOutcome.OVERLOADED] == 0
            assert remote.accounting_closed
        assert gateway.stats.accounting_closed

    run(scenario())


def test_a_resend_woken_past_its_deadline_times_out_unsent():
    """A granted pushback re-send whose wake-up comes only after the
    frame's deadline (the loop was stalled) is not sent: the frame
    settles TIMEOUT and the client's accounting stays closed."""

    async def scenario():
        gw_config = GatewayConfig(
            base_latency=0.0, per_item=0.0, tenant_rate=10.0, tenant_burst=1.0
        )
        async with InferenceGateway(gw_config) as gateway:
            remote = ResilientSocketRemote(
                gateway.address, deadline=0.3, tenant="greedy", frame_bytes=64
            )
            assert await remote.submit_frame() is FrameOutcome.COMPLETED
            # the bucket is empty: pushback with a ~0.1 s hint, granted a
            # re-send; once the frame sleeps until it, the loop stalls
            # past the frame's 0.3 s deadline
            sleep_until = remote._sleep_until

            def stall_once_the_resend_is_granted(loop, wake, when):
                sleep_until(loop, wake, when)
                if remote.taxonomy.as_dict()[FailureKind.RETRY_SENT.value] and not stalled:
                    stalled.append(when)
                    loop.call_soon(time.sleep, 0.35)

            stalled = []
            remote._sleep_until = stall_once_the_resend_is_granted
            assert await remote.submit_frame() is FrameOutcome.TIMEOUT
            assert len(stalled) == 1
            await remote.close()
            taxonomy = remote.taxonomy.as_dict()
            assert taxonomy[FailureKind.RETRY_SENT.value] == 1
            assert taxonomy[FailureKind.SILENT_TIMEOUT.value] == 1
            assert remote.submitted == 2
            assert remote.accounting_closed
        assert gateway.stats.received == 2
        assert gateway.stats.accounting_closed

    run(scenario())


def test_probe_recovers_breaker_when_gateway_returns():
    async def scenario():
        config = ResilienceConfig.wallclock()
        gateway = await InferenceGateway(GatewayConfig()).start()
        port = gateway.address[1]
        remote = ResilientSocketRemote(
            gateway.address, deadline=0.2, config=config, frame_bytes=64
        )
        assert await remote.submit_frame() is FrameOutcome.COMPLETED
        # outage: kill the gateway, drive the breaker open
        await gateway.stop(abort=True)
        for _ in range(config.trip_threshold):
            assert await remote.submit_frame() in (
                FrameOutcome.TIMEOUT,
                FrameOutcome.REJECTED,
            )
        assert remote.breaker.is_open
        assert await remote.submit_frame() is FrameOutcome.FALLBACK_LOCAL
        # recovery: rebind the same port, wait out the probe backoff
        revived = await InferenceGateway(GatewayConfig(port=port)).start()
        try:
            await asyncio.sleep(config.backoff_initial + 0.05)
            probe = await remote.submit_frame()
            assert probe is FrameOutcome.COMPLETED
            assert remote.breaker.is_closed  # close_after=1 in wallclock preset
            assert await remote.submit_frame() is FrameOutcome.COMPLETED
        finally:
            await remote.close()
            await revived.stop()
        assert remote.accounting_closed

    run(scenario())



class HealingRemote(ResilientSocketRemote):
    """A real resilience layer; every copy times out until ``heal_at``."""

    heal_at = 0.0

    async def _attempt(self, loop, now, probe=False):
        await asyncio.sleep(0.005)
        now = loop.time()
        if now < self.heal_at:
            return FrameOutcome.TIMEOUT, FailureKind.SILENT_TIMEOUT, None, now
        return FrameOutcome.COMPLETED, None, None, now


HALF_OPEN_CONFIG = ResilienceConfig(
    trip_threshold=2, close_after=2, backoff_initial=0.02, backoff_max=0.05
)


def test_trials_continue_in_half_open_until_the_breaker_closes():
    """With ``close_after=2`` one good trial leaves the breaker half-open;
    the client must keep sending trials, one at a time, until it closes."""

    async def scenario():
        remote = HealingRemote(("127.0.0.1", 9), deadline=0.05, config=HALF_OPEN_CONFIG)
        remote.heal_at = asyncio.get_running_loop().time() + 0.1
        # concurrent submissions, as a frame loop makes them
        frames = []
        for _ in range(60):
            frames.append(asyncio.ensure_future(remote.submit_frame()))
            await asyncio.sleep(0.005)
        outcomes = await asyncio.gather(*frames)
        await remote.close()
        return remote, outcomes

    remote, outcomes = run(scenario())
    breaker = remote.breaker
    assert breaker.opened_count == 1
    assert breaker.is_closed
    assert len(breaker.probe_times) >= HALF_OPEN_CONFIG.close_after
    assert outcomes[-1] is FrameOutcome.COMPLETED
    assert FrameOutcome.FALLBACK_LOCAL in outcomes
    assert remote.accounting_closed


def test_a_cancelled_trial_does_not_stop_the_next():
    """A trial cancelled mid-flight (a loop torn down) has no verdict;
    the next one must still go out after the backoff."""

    async def scenario():
        remote = HealingRemote(("127.0.0.1", 9), deadline=0.05, config=HALF_OPEN_CONFIG)
        remote.heal_at = asyncio.get_running_loop().time() + 0.05
        for _ in range(HALF_OPEN_CONFIG.trip_threshold):
            await remote.submit_frame()
        assert remote.breaker.is_open
        await asyncio.sleep(HALF_OPEN_CONFIG.backoff_initial + 0.01)
        trial = asyncio.ensure_future(remote.submit_frame())
        await asyncio.sleep(0.001)
        trial.cancel()
        with pytest.raises(asyncio.CancelledError):
            await trial
        for _ in range(40):
            await remote.submit_frame()
            await asyncio.sleep(0.005)
        await remote.close()
        return remote

    remote = run(scenario())
    assert len(remote.breaker.probe_times) > HALF_OPEN_CONFIG.close_after
    assert remote.breaker.is_closed
    assert remote.accounting_closed
