"""Asyncio runtime: the closed loop on a cooperative event loop.

The wall-clock twin of the deterministic simulator: both drive the
*same* :class:`~repro.control.base.Controller` objects through the same
:class:`~repro.control.base.Measurement` seam.  Asyncio is the natural
shape for an edge device whose "offloading" is an HTTP/2 or WebSocket
client: one event loop, no thread pools, thousands of in-flight
requests for free.

The remote side is pluggable: any ``async def submit() -> bool``
callable works, or a resilient socket client passed as ``remote=``
(:class:`~repro.realtime.client.ResilientSocketRemote`).
:class:`AsyncFakeRemote` is an in-process stand-in whose latency,
jitter and failure probability (:class:`RemoteConditions`) can be
swapped mid-run.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Awaitable, Callable, List, Optional

import numpy as np

from repro.control.base import Controller, Measurement
from repro.device.splitter import TokenBucketSplitter
from repro.metrics.counters import WindowedRate


@dataclass
class RemoteConditions:
    """Injectable offload-path behaviour (the NetEm analogue)."""

    latency: float = 0.06
    jitter: float = 0.01
    failure_probability: float = 0.0


class AsyncFakeRemote:
    """Awaitable fake edge server with injectable conditions."""

    def __init__(self, seed: int = 0) -> None:
        self.conditions = RemoteConditions()
        self._rng = np.random.default_rng(seed)

    async def submit(self) -> bool:
        cond = self.conditions
        delay = max(0.0, cond.latency + float(self._rng.normal(0.0, cond.jitter)))
        await asyncio.sleep(delay)
        return bool(self._rng.random() >= cond.failure_probability)


@dataclass
class AsyncLoopResult:
    """Per-period traces from one asyncio run."""

    times: List[float] = field(default_factory=list)
    offload_target: List[float] = field(default_factory=list)
    throughput: List[float] = field(default_factory=list)
    timeout_rate: List[float] = field(default_factory=list)


class AsyncRealTimeLoop:
    """The device loop as coroutines."""

    def __init__(
        self,
        controller: Controller,
        submit: Optional[Callable[[], Awaitable[bool]]] = None,
        frame_rate: float = 30.0,
        deadline: float = 0.25,
        local_latency: float = 0.03,
        measure_period: float = 1.0,
        t_window_buckets: int = 3,
        remote: Optional[object] = None,
    ) -> None:
        """``submit`` is any ``async () -> bool``; alternatively pass
        ``remote=`` an object with ``async submit_frame() -> FrameOutcome``
        (e.g. :class:`~repro.realtime.client.ResilientSocketRemote`) and
        the loop also routes breaker fallbacks onto the local pipeline
        instead of counting them as plain offload failures."""
        if frame_rate <= 0 or deadline <= 0 or measure_period <= 0:
            raise ValueError("rates, deadline and period must be positive")
        if submit is None and remote is None:
            raise ValueError("need either a submit callable or a remote")
        self.controller = controller
        self.remote = remote
        self.submit = submit if submit is not None else remote.submit
        self.frame_rate = frame_rate
        self.deadline = deadline
        self.local_latency = local_latency
        self.measure_period = measure_period
        self.splitter = TokenBucketSplitter(frame_rate)
        self.splitter.set_target(controller.initial_target(frame_rate))
        self._t_window = WindowedRate(t_window_buckets)
        self._local_busy = False
        self._counts = {
            "attempts": 0,
            "success": 0,
            "timeouts": 0,
            "local": 0,
            "fallback_dropped": 0,
        }

    # ------------------------------------------------------------------
    async def run(self, duration: float) -> AsyncLoopResult:
        result = AsyncLoopResult()
        loop = asyncio.get_running_loop()
        start = loop.time()
        ticker = asyncio.create_task(self._ticker(loop, start, duration))
        try:
            while loop.time() - start < duration:
                await asyncio.sleep(self.measure_period)
                self._measure_step(result, loop.time() - start)
        finally:
            ticker.cancel()
            try:
                await ticker
            except asyncio.CancelledError:
                pass
        return result

    # ------------------------------------------------------------------
    async def _ticker(self, loop, start: float, duration: float) -> None:
        period = 1.0 / self.frame_rate
        next_tick = loop.time() + period
        pending = set()
        try:
            while loop.time() - start < duration:
                await asyncio.sleep(max(0.0, next_tick - loop.time()))
                next_tick += period
                if self.splitter.route():
                    self._counts["attempts"] += 1
                    task = asyncio.create_task(self._offload_one())
                    pending.add(task)
                    task.add_done_callback(pending.discard)
                elif not self._local_busy:
                    task = asyncio.create_task(self._local_one())
                    pending.add(task)
                    task.add_done_callback(pending.discard)
        finally:
            for task in pending:
                task.cancel()

    async def _offload_one(self) -> None:
        if self.remote is not None:
            await self._offload_one_resilient()
            return
        try:
            ok = await asyncio.wait_for(self.submit(), timeout=self.deadline)
        except (asyncio.TimeoutError, OSError):
            ok = False
        if ok:
            self._counts["success"] += 1
        else:
            self._counts["timeouts"] += 1
            self._t_window.record(1)

    async def _offload_one_resilient(self) -> None:
        """Offload through a resilient remote (deadline owned there).

        A breaker fallback re-routes the frame to the local pipeline —
        the frame is *saved*, not failed, so the controller never sees
        it as a timeout (the sim's breaker has the same contract).
        """
        from repro.realtime.client import FrameOutcome

        outcome = await self.remote.submit_frame()
        if outcome is FrameOutcome.COMPLETED:
            self._counts["success"] += 1
        elif outcome is FrameOutcome.FALLBACK_LOCAL:
            if self._local_busy:
                self._counts["fallback_dropped"] += 1
            else:
                await self._local_one()
        else:
            self._counts["timeouts"] += 1
            self._t_window.record(1)

    async def _local_one(self) -> None:
        # cooperative stand-in: local inference yields the loop (a real
        # deployment would run the model in an executor)
        self._local_busy = True
        try:
            await asyncio.sleep(self.local_latency)
            self._counts["local"] += 1
        finally:
            self._local_busy = False

    def _measure_step(self, result: AsyncLoopResult, now: float) -> None:
        period = self.measure_period
        c = self._counts
        self._t_window.close_bucket(period)
        measurement = Measurement(
            time=now,
            frame_rate=self.frame_rate,
            offload_target=self.splitter.target,
            offload_rate=c["attempts"] / period,
            offload_success_rate=c["success"] / period,
            timeout_rate=self._t_window.average,
            timeout_rate_last=c["timeouts"] / period,
            local_rate=c["local"] / period,
            throughput=(c["success"] + c["local"]) / period,
        )
        self.splitter.set_target(self.controller.update(measurement))
        result.times.append(now)
        result.offload_target.append(self.splitter.target)
        result.throughput.append(measurement.throughput)
        result.timeout_rate.append(measurement.timeout_rate_last)
        self._counts = {k: 0 for k in c}
