"""The edge device: the simulator's driver of the device core.

:class:`~repro.device.core.DeviceCore` decides (routing, buckets, the
measure step, probes); this module wires it to the camera, the local
pipeline and the offload client, and runs its measure loop and the
breaker's probe loop on kernel timers.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

import numpy as np

from repro.control.base import Controller, Measurement
from repro.device.camera import Frame, FrameSource
from repro.device.config import DeviceConfig
from repro.device.core import DeviceCore
from repro.device.local import LocalPipeline
from repro.device.offload import OffloadClient
from repro.metrics.breakdown import BreakdownCollector
from repro.metrics.qos import QosReport
from repro.metrics.timeseries import TimeSeries
from repro.models.frames import frame_bytes
from repro.models.latency import LocalLatencyModel
from repro.netem.link import Link
from repro.resilience.layer import ResilienceLayer
from repro.server.server import EdgeServer
from repro.sim.core import Environment
from repro.sim.events import Event, EventPriority

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fleet.router import Router


class EdgeDevice:
    """One §II edge device under a given controller."""

    def __init__(
        self,
        env: Environment,
        config: DeviceConfig,
        controller: Controller,
        uplink: Link,
        downlink: Link,
        server: EdgeServer,
        rng: np.random.Generator,
        router: Optional["Router"] = None,
    ) -> None:
        self.env = env
        self.config = config
        #: optional fleet routing seam shared with the offload client;
        #: None keeps the paper's fixed single-server path bit-identical
        self.router = router
        #: kernel-stats owner of the measure-loop and breaker-probe timers
        self.event_owner = f"{config.name}:control"
        #: optional resilient offload path (None = the paper's device)
        self.resilience: Optional[ResilienceLayer] = None
        if config.resilience is not None:
            self.resilience = ResilienceLayer(config.resilience)
            self.resilience.breaker.on_open = self._on_breaker_open
        self.core = core = DeviceCore(
            config, controller, resilience=self.resilience, router=router, host=env
        )
        self.splitter = core.splitter
        self.traces = core.traces

        self.local = LocalPipeline(
            env,
            LocalLatencyModel(config.profile, config.model),
            rng,
            on_complete=core.on_local_complete,
            tenant=config.name,
        )
        #: omniscient T_n/T_l attribution — analysis only, never
        #: visible to the controller (the paper's §II-B observation)
        self.breakdown = BreakdownCollector()
        self._breaker_probing = False
        self.offload = OffloadClient(
            env,
            uplink=uplink,
            downlink=downlink,
            server=server,
            tenant=config.name,
            model_name=config.model.name,
            deadline=config.deadline,
            response_bytes=config.frame_spec.response_bytes,
            on_success=core.on_offload_success,
            on_timeout=core.on_offload_timeout,
            on_probe_result=core.on_probe_result,
            breakdown=self.breakdown,
            resilience=self.resilience,
            router=router,
        )
        core.send = self.offload.send
        core.offer = self.local.offer
        if router is not None:
            # the instant the pool ejects a server, sweep our in-flight
            # frames off it (failover or crash-drop, never silence)
            router.pool.subscribe_down(self.offload.failover_from)

        self._probe_counter = 0
        #: supervision hook: called with each *admitted* measurement
        #: after the control step (heartbeat + checkpoint point)
        self.on_measure_tick: Optional[Callable[[Measurement], None]] = None
        self._video_sampler = (
            config.video.sampler(rng) if config.video is not None else None
        )
        self.source = FrameSource(
            env,
            frame_rate=config.frame_rate,
            nbytes=self._frame_nbytes,
            sink=core.on_frame,
            total_frames=config.total_frames or None,
            name=f"{config.name}:camera",
        )
        self._measure_start()

    # ------------------------------------------------------------------
    def _frame_nbytes(self) -> int:
        """Per-frame size under the current capture quality."""
        spec = self.config.frame_spec
        base = frame_bytes(spec.resolution, self.core.capture_quality)
        if self._video_sampler is None:
            return base
        # content variation scales around the quality-adjusted mean
        raw = self._video_sampler()
        return max(200, int(round(raw * base / spec.bytes_on_wire)))

    # ------------------------------------------------------------------
    # measurement / control loop
    # ------------------------------------------------------------------
    @property
    def measure_alive(self) -> bool:
        """True while the 1 Hz measurement/control loop is running."""
        return self._measure_timer is not None

    def crash_measure_loop(self) -> None:
        """Kill the measurement/control loop (controller-process crash).

        The data path keeps running — frames still route through the
        splitter at its last target — but no buckets close, no
        measurements reach the controller, and ``P_o`` stops adapting.
        That frozen-actuator blackout is exactly what the supervision
        layer's staleness policy exists to bound.  The pending tick is
        cancelled, so a loop killed in its start instant never ticks.
        """
        if self._measure_timer is not None:
            self._measure_timer.cancel()
            self._measure_timer = None

    def restart_measure_loop(self) -> None:
        """Respawn a crashed measurement/control loop.

        Measurement state is re-based first: the bucket that straddled
        the outage would otherwise divide an entire downtime's counts
        by one period, handing the controller a garbage first
        measurement.  Controller state is *not* touched here — warm
        vs cold restart policy belongs to the supervision layer.
        """
        if self._measure_timer is not None:
            return
        self.core.rebase(self.local.busy_seconds)
        self._measure_start()

    # one timer per measure period; the start timer is URGENT, so a loop
    # started in some instant arms its first tick ahead of that instant's
    # ordinary events
    def _measure_start(self) -> None:
        self._measure_timer = self.env.call_at(
            self.env.now, self._measure_arm, priority=EventPriority.URGENT
        )

    def _measure_arm(self, _event: Optional[Event] = None) -> None:
        if self.core.probe_due():
            self._send_probe()
        self._measure_timer = self.env.call_later(
            self.config.measure_period, self._measure_tick
        )

    def _measure_tick(self, event: Event) -> None:
        measurement = self.core.measure(self.env.now, self.local.busy_seconds)
        if measurement is not None and self.on_measure_tick is not None:
            self.on_measure_tick(measurement)
        if self._measure_timer is event:  # else the tick crashed the loop
            self._measure_arm()

    # ------------------------------------------------------------------
    # circuit-breaker probe loop
    # ------------------------------------------------------------------
    def _on_breaker_open(self) -> None:
        """Breaker just tripped: start the half-open probe loop."""
        if self._breaker_probing:
            return
        self._breaker_probing = True
        self.env.call_at(
            self.env.now, self._breaker_probe_wait, priority=EventPriority.URGENT
        )

    # Trial probes with exponential backoff until the path heals: one
    # probe per backoff interval, and the next wait starts only once the
    # trial's verdict is in (the offload watchdog bounds that wait by the
    # deadline), so at most one trial is ever in flight.
    def _breaker_probe_wait(self, _event: Optional[Event] = None) -> None:
        breaker = self.resilience.breaker
        if breaker.is_closed:
            self._breaker_probing = False
            return
        self.env.call_later(breaker.current_backoff, self._breaker_probe_send)

    def _breaker_probe_send(self, _event: Event) -> None:
        if not self.core.start_trial(self.env.now):
            self._breaker_probing = False
            return
        # the offload client books the trial's outcome with the breaker
        # (ResilienceLayer.settle) and reports it here exactly once
        self.offload.send(
            self._probe_frame(), is_probe=True, on_result=self._breaker_probe_result
        )

    def _breaker_probe_result(self, ok: bool) -> None:
        self.env.call_at(self.env.now, self._breaker_probe_wait)

    def _send_probe(self) -> None:
        """One heartbeat request (AllOrNothing's profiling probe)."""
        self.offload.send(self._probe_frame(), is_probe=True)

    def _probe_frame(self) -> Frame:
        self._probe_counter += 1
        return Frame(
            frame_id=-self._probe_counter,  # never collides with real ids
            captured_at=self.env.now,
            nbytes=self._frame_nbytes(),
        )

    # ------------------------------------------------------------------
    def check_accounting(self) -> None:
        """Raise unless every captured frame is settled or still in flight."""
        offload = self.offload
        self.core.check_accounting(
            offload.frames_in_flight + self.local.frames_in_flight, offload.aborted
        )

    def qos_report(self) -> QosReport:
        """Whole-run QoS rollup for this device."""
        core = self.core
        extras = {
            "offload_successes": float(core.offload_successes),
            "local_successes": float(core.local_successes),
            "mean_cpu_utilization": _mean(core.traces.cpu_utilization),
            "rtt_p50": core.rtt_histogram.quantile(0.5),
            "rtt_p95": core.rtt_histogram.quantile(0.95),
        }
        if self.resilience is not None:
            extras["breaker_opens"] = float(self.resilience.breaker.opened_count)
            extras["retries_sent"] = float(self.offload.retries)
            for kind, count in self.resilience.taxonomy.as_dict().items():
                extras[f"faults.{kind}"] = float(count)
        if self.router is not None:
            extras["fleet.failovers"] = float(self.offload.failovers)
            extras["fleet.crash_drops"] = float(self.offload.crash_drops)
            extras["fleet.no_routes"] = float(self.offload.no_routes)
            extras["fleet.outstanding"] = float(self.offload.outstanding_count)
            extras.update(self.router.pool.extras())
        for kind, count in core.input_guard.degraded_counts().items():
            extras[f"telemetry.{kind}"] = float(count)
        degraded = getattr(core.controller, "degraded_inputs", 0)
        if degraded:
            extras["telemetry.degraded_inputs"] = float(degraded)
        return QosReport(
            name=core.controller.name,
            total_frames=core.frames_seen,
            successful=core.successes,
            timeouts=core.timeouts,
            rejected=self.offload.rejections,
            dropped_local=core.local_skips,
            mean_throughput=_mean(core.traces.throughput),
            mean_violation_rate=_mean(core.traces.timeout_rate),
            extras=extras,
        )


def _mean(series: TimeSeries) -> float:
    return float(series.values.mean()) if len(series) else 0.0
