"""Asyncio runtime: the device loop on a cooperative event loop.

A thin driver around the :class:`~repro.device.core.DeviceCore` the
simulator's :class:`~repro.device.device.EdgeDevice` drives: routing,
the buckets and ``T`` window, the measurement guard, the anti-windup
park, the heartbeat probe and the controller step are the core's, so a
:class:`~repro.control.base.Controller` sees the same
:class:`~repro.control.base.Measurement` on both clocks.  Frame and
measure ticks are loop timers at ``start + k * period``.

The remote is any object whose ``async submit_frame() -> FrameOutcome``
owns its deadline: :class:`AsyncFakeRemote` (in-process, with
:class:`RemoteConditions` swappable mid-run) or
:class:`~repro.realtime.client.ResilientSocketRemote`, whose ``layer``
the core then shares (its open breaker routes frames local and parks
the controller).  What still differs from the simulator's driver:

* the local engine is a fixed ``local_latency`` stand-in holding one
  frame, where ``LocalPipeline`` samples its latency and keeps a 1-deep
  prefetch slot;
* the breaker trial's timing lives in the remote, whose submit-driven
  probe sends the first submission after its backoff as the trial; the
  loop hands it one once the breaker has been seen open for a backoff.
  The simulator's device times its trials on kernel timers;
* frames carry no size, and there is no fleet router, latency
  breakdown or span tracing.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.control.base import Controller
from repro.device.camera import Frame
from repro.device.config import DeviceConfig
from repro.device.core import DeviceCore, DeviceTraces
from repro.realtime.client import FrameOutcome


@dataclass
class RemoteConditions:
    """Injectable offload-path behaviour (the NetEm analogue)."""

    latency: float = 0.06
    jitter: float = 0.01
    failure_probability: float = 0.0


class AsyncFakeRemote:
    """Awaitable fake edge server with injectable conditions."""

    def __init__(self, seed: int = 0, deadline: float = 0.25) -> None:
        if deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        self.deadline = deadline
        self.conditions = RemoteConditions()
        self._rng = np.random.default_rng(seed)

    async def submit_frame(self) -> FrameOutcome:
        """Completed after its latency, else a timeout (at the deadline
        at the latest)."""
        cond = self.conditions
        delay = max(0.0, cond.latency + float(self._rng.normal(0.0, cond.jitter)))
        await asyncio.sleep(min(delay, self.deadline))
        if delay <= self.deadline and self._rng.random() >= cond.failure_probability:
            return FrameOutcome.COMPLETED
        return FrameOutcome.TIMEOUT


class AsyncRealTimeLoop:
    """The device loop as loop timers around a :class:`DeviceCore`."""

    def __init__(
        self,
        controller: Controller,
        remote: Any,
        frame_rate: float = 30.0,
        local_latency: float = 0.03,
        measure_period: float = 1.0,
        t_window_buckets: int = 3,
    ) -> None:
        self.remote = remote
        self.local_latency = local_latency
        layer = getattr(remote, "layer", None)
        self._breaker = layer.breaker if layer is not None else None
        config = DeviceConfig(frame_rate=frame_rate, measure_period=measure_period,
                              t_window_buckets=t_window_buckets)
        self.core = DeviceCore(config, controller, self._send, self._offer, layer)
        self._tasks: set = set()
        self._in_flight = 0  # offloaded frames awaiting an outcome
        #: the local stand-in's completion timer while it holds a frame
        self._local: Optional[asyncio.TimerHandle] = None
        self._local_busy_seconds = 0.0
        self._trial_at: Optional[float] = None  # when the next trial is due

    # ------------------------------------------------------------------
    async def run(self, duration: float) -> DeviceTraces:
        """Run whole measure periods covering ``duration`` seconds.

        Returns the core's traces; raises ``RuntimeError`` if a captured
        frame is neither settled nor in flight at the end.  An offload,
        probe or trial task that raises ends the run, and ``run()``
        raises the first such exception.
        """
        loop = self._loop = asyncio.get_running_loop()
        self._start = loop.time()
        config = self.core.config
        self._ticks = math.ceil(duration / config.measure_period - 1e-9)
        self._done = loop.create_future()
        self._frame_timer = loop.call_at(
            self._start + config.frame_period, self._frame_tick, 1
        )
        self._measure_timer: Optional[asyncio.TimerHandle] = None
        self._measure_arm(0)
        try:
            await self._done
            self.core.check_accounting(self._in_flight + (self._local is not None))
        finally:
            self._frame_timer.cancel()
            if self._measure_timer is not None:
                self._measure_timer.cancel()
            if self._local is not None:
                self._local.cancel()
            for task in self._tasks:
                task.cancel()
            await asyncio.gather(*self._tasks, return_exceptions=True)
        return self.core.traces

    def _now(self) -> float:
        return self._loop.time() - self._start

    def _spawn(self, coro) -> None:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._task_done)

    def _task_done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if task.cancelled():
            return
        # retrieved here, so asyncio does not log it as never retrieved
        exc = task.exception()
        if exc is not None and not self._done.done():
            self._done.set_exception(exc)

    def _frame_tick(self, k: int) -> None:
        self._frame_timer = self._loop.call_at(
            self._start + (k + 1) * self.core.config.frame_period, self._frame_tick, k + 1
        )
        now = self._now()
        breaker = self._breaker
        if breaker is not None and not breaker.is_closed:
            if self._trial_at is None:
                self._trial_at = now + breaker.current_backoff
            elif now >= self._trial_at:
                self._trial_at = math.inf  # one trial in flight at a time
                self._spawn(self._trial())
        self.core.on_frame(Frame(k - 1, now, 0))

    def _measure_arm(self, k: int) -> None:
        if self._done.done():
            return  # a task's exception ended the run
        if k == self._ticks:
            self._done.set_result(None)
            return
        if self.core.probe_due():
            self._spawn(self._probe())
        self._measure_timer = self._loop.call_at(
            self._start + (k + 1) * self.core.config.measure_period,
            self._measure_tick, k + 1,
        )

    def _measure_tick(self, k: int) -> None:
        self.core.measure(self._now(), self._local_busy_seconds)
        self._measure_arm(k)

    def _send(self, frame: Frame) -> None:
        self._in_flight += 1
        self._spawn(self._offload(frame))

    async def _offload(self, frame: Frame) -> None:
        outcome = await self.remote.submit_frame()
        self._in_flight -= 1
        core = self.core
        if outcome is FrameOutcome.COMPLETED:
            core.on_offload_success(frame, self._now() - frame.captured_at)
        elif outcome is FrameOutcome.FALLBACK_LOCAL:
            core.on_fallback(frame)
        else:
            core.on_offload_timeout(frame, outcome.value)

    async def _probe(self) -> None:
        outcome = await self.remote.submit_frame()
        self.core.on_probe_result(outcome is FrameOutcome.COMPLETED)

    async def _trial(self) -> None:
        await self.remote.submit_frame()
        self._trial_at = None

    def _offer(self, frame: Frame) -> bool:
        # a real deployment would run the model in an executor
        if self._local is not None:
            return False
        self._local = self._loop.call_later(self.local_latency, self._local_done, frame)
        return True

    def _local_done(self, frame: Frame) -> None:
        self._local = None
        self._local_busy_seconds += self.local_latency
        self.core.on_local_complete(frame, self.local_latency)
