"""Tests for the asyncio runtime (kept short: real seconds elapse)."""

import asyncio

import pytest

from repro.control.base import Controller
from repro.control.framefeedback import FrameFeedbackController
from repro.realtime.aio import AsyncFakeRemote, AsyncRealTimeLoop, RemoteConditions
from repro.realtime.client import FrameOutcome


def run(coro):
    return asyncio.run(coro)


class PinController(Controller):
    """Offload everything, forever (makes routing deterministic)."""

    name = "pin"

    def initial_target(self, frame_rate: float) -> float:
        return frame_rate

    def update(self, measurement) -> float:
        return measurement.frame_rate


class StubResilientRemote:
    """Scripted ``submit_frame`` outcomes (client-layer stand-in)."""

    def __init__(self, outcomes):
        self._outcomes = list(outcomes)

    async def submit_frame(self):
        return self._outcomes.pop(0)

    async def submit(self):
        return (await self.submit_frame()) is FrameOutcome.COMPLETED


def test_validation():
    with pytest.raises(ValueError):
        AsyncRealTimeLoop(FrameFeedbackController(30.0), None, frame_rate=0.0)


def test_async_remote_failure_probability():
    remote = AsyncFakeRemote(seed=0)
    remote.conditions = RemoteConditions(
        latency=0.0, jitter=0.0, failure_probability=1.0
    )
    assert run(remote.submit()) is False
    remote.conditions = RemoteConditions(
        latency=0.0, jitter=0.0, failure_probability=0.0
    )
    assert run(remote.submit()) is True


def test_framefeedback_ramps_on_asyncio():
    remote = AsyncFakeRemote(seed=1)
    remote.conditions = RemoteConditions(
        latency=0.02, jitter=0.002, failure_probability=0.0
    )
    loop = AsyncRealTimeLoop(
        FrameFeedbackController(30.0), remote.submit, local_latency=0.02
    )
    result = run(loop.run(duration=5.0))
    assert len(result.times) >= 4
    assert result.offload_target[-1] >= 9.0


def test_framefeedback_backs_off_on_asyncio():
    remote = AsyncFakeRemote(seed=2)
    remote.conditions = RemoteConditions(
        latency=0.02, jitter=0.002, failure_probability=1.0
    )
    loop = AsyncRealTimeLoop(
        FrameFeedbackController(30.0), remote.submit, local_latency=0.02
    )
    result = run(loop.run(duration=6.0))
    assert result.offload_target[-1] <= 9.0
    assert max(result.timeout_rate) > 0


def test_mid_run_degradation_triggers_backoff():
    async def scenario():
        remote = AsyncFakeRemote(seed=3)
        remote.conditions = RemoteConditions(
            latency=0.02, jitter=0.0, failure_probability=0.0
        )
        loop = AsyncRealTimeLoop(
            FrameFeedbackController(30.0), remote.submit, local_latency=0.02
        )

        async def degrade():
            await asyncio.sleep(4.0)
            remote.conditions = RemoteConditions(
                latency=0.3, jitter=0.05, failure_probability=0.4
            )

        task = asyncio.create_task(degrade())
        result = await loop.run(duration=8.0)
        await task
        return result

    result = run(scenario())
    peak = max(result.offload_target[:5])
    final = result.offload_target[-1]
    assert final < peak  # backed off after the degradation


def test_requires_submit_or_remote():
    with pytest.raises(ValueError):
        AsyncRealTimeLoop(FrameFeedbackController(30.0))


def test_remote_wiring_routes_outcomes():
    async def scenario():
        stub = StubResilientRemote(
            [
                FrameOutcome.COMPLETED,
                FrameOutcome.FALLBACK_LOCAL,
                FrameOutcome.TIMEOUT,
                FrameOutcome.OVERLOADED,
            ]
        )
        loop = AsyncRealTimeLoop(
            PinController(), remote=stub, local_latency=0.001
        )
        for _ in range(4):
            await loop._offload_one()
        # completed -> success; fallback -> saved on the local pipeline
        # (NOT a timeout); timeout/overloaded -> timeouts the controller
        # will see
        assert loop._counts["success"] == 1
        assert loop._counts["local"] == 1
        assert loop._counts["timeouts"] == 2
        assert loop._counts["fallback_dropped"] == 0

    run(scenario())


def test_remote_fallback_dropped_when_local_busy():
    async def scenario():
        stub = StubResilientRemote([FrameOutcome.FALLBACK_LOCAL])
        loop = AsyncRealTimeLoop(PinController(), remote=stub)
        loop._local_busy = True  # local pipeline mid-frame
        await loop._offload_one()
        assert loop._counts["fallback_dropped"] == 1
        assert loop._counts["local"] == 0

    run(scenario())


def test_measure_step_accounting_and_reset():
    loop = AsyncRealTimeLoop(
        PinController(),
        submit=AsyncFakeRemote(seed=0).submit,
        frame_rate=10.0,
        measure_period=2.0,
    )
    from repro.realtime.aio import AsyncLoopResult

    loop._counts.update(attempts=8, success=6, timeouts=2, local=4)
    loop._t_window.record(2)
    result = AsyncLoopResult()
    loop._measure_step(result, now=2.0)
    # rates are per-second over the period; throughput counts both paths
    assert result.throughput == [pytest.approx((6 + 4) / 2.0)]
    assert result.timeout_rate == [pytest.approx(2 / 2.0)]
    assert result.offload_target == [10.0]  # PinController holds at P
    # the bucket closed and every counter reset for the next period
    assert all(v == 0 for v in loop._counts.values())


def test_ticker_keeps_cadence_when_remote_stalls():
    async def scenario():
        started = {"n": 0}
        cancelled = {"n": 0}

        async def wedged_submit() -> bool:
            started["n"] += 1
            try:
                await asyncio.sleep(30.0)  # never answers on its own
            except asyncio.CancelledError:
                cancelled["n"] += 1
                raise
            return True

        loop = AsyncRealTimeLoop(
            PinController(),
            submit=wedged_submit,
            frame_rate=20.0,
            deadline=0.1,
            measure_period=0.5,
        )
        result = await loop.run(duration=1.2)
        return result, started["n"], cancelled["n"]

    result, started, cancelled = run(scenario())
    # a wedged remote must not stall the frame clock: ~20 fps for 1.2 s
    # means >= 15 offload attempts even with scheduling slop
    assert started >= 15
    # each attempt hit the watchdog deadline and was counted against T
    assert max(result.timeout_rate) > 0
    # every wedged attempt was reaped (watchdog or teardown), none leaked
    assert cancelled >= 1
