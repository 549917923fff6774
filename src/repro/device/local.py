"""Local inference pipeline: one frame at a time, skip while busy.

§II-A.2's standing assumption is ``P_l < F_s``: the device cannot keep
up locally.  Real-time video pipelines deal with this by *frame
skipping* — a frame that arrives while the engine is busy is dropped,
not deeply queued (queueing would only add latency to already-stale
frames).  One frame *is* held pending, though: without a 1-deep
prefetch slot the engine would idle between the end of an inference
and the next camera tick and could never reach its measured rate
(Table II's ``P_l`` is continuous-processing throughput).  With the
slot, steady-state completion rate is ``min(local demand, P_l)``.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.device.camera import Frame
from repro.models.latency import LocalLatencyModel
from repro.sim.core import Environment
from repro.sim.events import Event


class LocalPipeline:
    """Single-slot local inference engine."""

    def __init__(
        self,
        env: Environment,
        latency_model: LocalLatencyModel,
        rng: np.random.Generator,
        on_complete: Optional[Callable[[Frame, float], None]] = None,
        tenant: str = "local",
    ) -> None:
        self.env = env
        self.latency_model = latency_model
        self.rng = rng
        self.on_complete = on_complete
        #: the device whose frame spans a completion closes
        self.tenant = tenant
        #: EnvStats counts the inference timers under this name
        self.event_owner = f"{tenant}:local"
        self.busy = False
        self.completed = 0
        self.skipped = 0
        self.busy_seconds = 0.0
        #: latency multiplier driven by fault injection (1.0 = healthy)
        self.slowdown = 1.0
        self._pending: Optional[Frame] = None

    def set_slowdown(self, factor: float) -> None:
        """Stretch local inference by ``factor`` (thermal throttling)."""
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {factor}")
        self.slowdown = float(factor)

    @property
    def frames_in_flight(self) -> int:
        """Frames in service plus the one held pending."""
        return int(self.busy) + (self._pending is not None)

    def offer(self, frame: Frame) -> bool:
        """Offer a frame; returns False (skipped) when engine + slot are full."""
        if self.busy:
            if self._pending is not None:
                self.skipped += 1
                return False
            self._pending = frame
            return True
        self.busy = True
        self._serve(frame)
        return True

    def _serve(self, frame: Frame) -> None:
        """Start inferring ``frame``; its latency is drawn now."""
        latency = self.latency_model.sample(self.rng) * self.slowdown
        self.env.call_later(latency, self._served, value=(frame, latency))

    def _served(self, event: Event) -> None:
        frame, latency = event.value
        self.busy_seconds += latency
        self.completed += 1
        if self.on_complete is not None:
            self.on_complete(frame, latency)
        tracer = self.env.tracer
        if tracer is not None:
            now = self.env.now
            tracer.end_local(self.tenant, frame.frame_id, now, latency)
            tracer.finish_frame(self.tenant, frame.frame_id, now, "completed-local")
        pending = self._pending
        if pending is None:
            self.busy = False
        else:
            self._pending = None
            self._serve(pending)

    def utilization(self, elapsed: float) -> float:
        """Busy fraction of the inference engine over ``elapsed``."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / elapsed)
