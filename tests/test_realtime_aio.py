"""Tests for the asyncio runtime (kept short: real seconds elapse)."""

import asyncio
import time

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


def test_validation():
    with pytest.raises(ValueError):
        AsyncRealTimeLoop(FrameFeedbackController(30.0), None, frame_rate=0.0)


def test_async_remote_failure_probability():
    remote = AsyncFakeRemote(seed=0)
    remote.conditions = RemoteConditions(
        latency=0.0, jitter=0.0, failure_probability=1.0
    )
    assert run(remote.submit_frame()) is FrameOutcome.TIMEOUT
    remote.conditions = RemoteConditions(
        latency=0.0, jitter=0.0, failure_probability=0.0
    )
    assert run(remote.submit_frame()) is FrameOutcome.COMPLETED


def test_framefeedback_ramps_on_asyncio():
    remote = AsyncFakeRemote(seed=1)
    remote.conditions = RemoteConditions(
        latency=0.02, jitter=0.002, failure_probability=0.0
    )
    loop = AsyncRealTimeLoop(
        FrameFeedbackController(30.0), remote, local_latency=0.02
    )
    traces = run(loop.run(duration=5.0))
    assert len(traces.throughput) >= 4
    assert traces.offload_target.values[-1] >= 9.0


def test_framefeedback_backs_off_on_asyncio():
    remote = AsyncFakeRemote(seed=2)
    remote.conditions = RemoteConditions(
        latency=0.02, jitter=0.002, failure_probability=1.0
    )
    loop = AsyncRealTimeLoop(
        FrameFeedbackController(30.0), remote, local_latency=0.02
    )
    traces = run(loop.run(duration=6.0))
    assert traces.offload_target.values[-1] <= 9.0
    assert traces.timeout_rate.values.max() > 0


def test_mid_run_degradation_triggers_backoff():
    async def scenario():
        remote = AsyncFakeRemote(seed=3)
        remote.conditions = RemoteConditions(
            latency=0.02, jitter=0.0, failure_probability=0.0
        )
        loop = AsyncRealTimeLoop(
            FrameFeedbackController(30.0), remote, local_latency=0.02
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

    traces = run(scenario())
    peak = traces.offload_target.values[:5].max()
    final = traces.offload_target.values[-1]
    assert final < peak  # backed off after the degradation


def test_requires_a_remote():
    with pytest.raises(TypeError):
        AsyncRealTimeLoop(FrameFeedbackController(30.0))


def test_ticker_keeps_cadence_when_remote_stalls():
    async def scenario():
        started = {"n": 0}
        cancelled = {"n": 0}

        async def wedged_exchange() -> None:
            try:
                await asyncio.sleep(30.0)  # never answers on its own
            except asyncio.CancelledError:
                cancelled["n"] += 1
                raise

        class WedgedRemote:
            """Owns a 0.1 s deadline, as the socket client does."""

            async def submit_frame(self):
                started["n"] += 1
                try:
                    await asyncio.wait_for(wedged_exchange(), timeout=0.1)
                except asyncio.TimeoutError:
                    return FrameOutcome.TIMEOUT
                return FrameOutcome.COMPLETED

        loop = AsyncRealTimeLoop(
            PinController(), WedgedRemote(), frame_rate=20.0, measure_period=0.5
        )
        traces = await loop.run(duration=1.2)
        return traces, started["n"], cancelled["n"]

    traces, started, cancelled = run(scenario())
    # a wedged remote must not stall the frame clock: ~20 fps for 1.2 s
    # means >= 15 offload attempts even with scheduling slop
    assert started >= 15
    # each attempt hit the watchdog deadline and was counted against T
    assert traces.timeout_rate.values.max() > 0
    # every wedged attempt was reaped (watchdog or teardown), none leaked
    assert cancelled >= 1


def test_measure_ticks_keep_absolute_times():
    """Ticks are armed at start + k * period, so a slow step does not
    push every later one back."""

    class SlowController(PinController):
        def update(self, measurement) -> float:
            time.sleep(0.03)  # a step that eats 60% of the period
            return super().update(measurement)

    loop = AsyncRealTimeLoop(SlowController(), AsyncFakeRemote(seed=0), measure_period=0.05)
    traces = run(loop.run(duration=0.25))
    assert traces.throughput.times == pytest.approx([0.05, 0.1, 0.15, 0.2, 0.25], abs=0.02)


def test_run_raises_on_an_open_frame_book():
    async def scenario():
        loop = AsyncRealTimeLoop(
            PinController(), AsyncFakeRemote(seed=0), frame_rate=50.0, measure_period=0.1
        )
        core = loop.core
        asyncio.get_running_loop().call_later(
            0.05, lambda: setattr(core, "frames_seen", core.frames_seen + 1)
        )
        with pytest.raises(RuntimeError, match="frames captured"):
            await loop.run(duration=0.1)

    run(scenario())


def test_run_raises_the_first_exception_of_an_offload_task():
    """A remote that raises must fail the run, not vanish into asyncio's
    'exception was never retrieved' log."""

    class BrokenRemote:
        calls = 0

        async def submit_frame(self):
            BrokenRemote.calls += 1
            raise ValueError(f"remote bug {BrokenRemote.calls}")

    loop = AsyncRealTimeLoop(
        PinController(), BrokenRemote(), frame_rate=50.0, measure_period=0.1
    )
    with pytest.raises(ValueError, match="remote bug 1$"):
        run(loop.run(duration=5.0))
    assert not loop._tasks
