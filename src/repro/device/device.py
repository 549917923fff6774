"""The edge device: wiring plus the 1 Hz measurement/control loop."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING

import numpy as np

from repro.control.base import Controller, Measurement
from repro.control.validity import MeasurementGuard
from repro.device.camera import Frame, FrameSource
from repro.device.config import DeviceConfig
from repro.device.energy import CpuUtilizationModel
from repro.device.local import LocalPipeline
from repro.device.offload import OffloadClient
from repro.device.splitter import TokenBucketSplitter
from repro.metrics.breakdown import BreakdownCollector
from repro.metrics.counters import WindowedRate
from repro.metrics.qos import QosReport
from repro.metrics.streaming import StreamingHistogram
from repro.metrics.taxonomy import FailureKind
from repro.metrics.timeseries import TimeSeries
from repro.models.latency import LocalLatencyModel
from repro.netem.link import Link
from repro.resilience.layer import ResilienceLayer
from repro.server.server import EdgeServer
from repro.sim.core import Environment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fleet.router import Router


@dataclass
class DeviceTraces:
    """Every per-second series an experiment might plot.

    Matches the paper's figures: ``throughput`` is the dark series
    (``P``), ``offload_target`` is the light ``P_o`` series shown for
    FrameFeedback, ``timeout_rate`` is ``T``.
    """

    throughput: TimeSeries = field(default_factory=lambda: TimeSeries("P"))
    offload_target: TimeSeries = field(default_factory=lambda: TimeSeries("P_o target"))
    offload_rate: TimeSeries = field(default_factory=lambda: TimeSeries("P_o measured"))
    offload_success: TimeSeries = field(default_factory=lambda: TimeSeries("P_o ok"))
    local_rate: TimeSeries = field(default_factory=lambda: TimeSeries("P_l"))
    timeout_rate: TimeSeries = field(default_factory=lambda: TimeSeries("T"))
    timeout_window: TimeSeries = field(default_factory=lambda: TimeSeries("T avg"))
    error: TimeSeries = field(default_factory=lambda: TimeSeries("e(t)"))
    cpu_utilization: TimeSeries = field(default_factory=lambda: TimeSeries("cpu"))
    capture_quality: TimeSeries = field(default_factory=lambda: TimeSeries("JPEG q"))
    #: circuit-breaker state per period (0 closed / 0.5 half-open /
    #: 1 open); flat zero when no resilience layer is configured
    breaker_state: TimeSeries = field(default_factory=lambda: TimeSeries("breaker"))


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
        self.controller = controller
        self.rng = rng
        #: optional fleet routing seam shared with the offload client;
        #: None keeps the paper's fixed single-server path bit-identical
        self.router = router
        self.traces = DeviceTraces()
        self.energy_model = CpuUtilizationModel(config.profile)

        # --- actuation path -------------------------------------------------
        self.splitter = TokenBucketSplitter(config.frame_rate)
        self.splitter.set_target(controller.initial_target(config.frame_rate))

        self.local = LocalPipeline(
            env,
            LocalLatencyModel(config.profile, config.model),
            rng,
            on_complete=self._on_local_complete,
            name=f"{config.name}:local",
        )

        #: omniscient T_n/T_l attribution — analysis only, never
        #: visible to the controller (the paper's §II-B observation)
        self.breakdown = BreakdownCollector()
        #: whole-run RTT distribution (bounded memory), for reports
        self.rtt_histogram = StreamingHistogram(min_value=1e-3, max_value=5.0)
        #: optional resilient offload path (None = the paper's device)
        self.resilience: Optional[ResilienceLayer] = None
        if config.resilience is not None:
            self.resilience = ResilienceLayer(config.resilience, config.frame_rate)
            self.resilience.breaker.on_open = self._on_breaker_open
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
            on_success=self._on_offload_success,
            on_timeout=self._on_offload_timeout,
            on_probe_result=self._on_probe_result,
            breakdown=self.breakdown,
            resilience=self.resilience,
            router=router,
        )
        if router is not None:
            # the instant the pool ejects a server, sweep our in-flight
            # frames off it (failover or crash-drop, never silence)
            router.pool.subscribe_down(self._on_server_down)

        # --- measurement state ----------------------------------------------
        self._bucket_offload_attempts = 0
        self._bucket_offload_success = 0
        self._bucket_local_done = 0
        self._bucket_timeouts = 0
        self._bucket_rtts: list = []
        self._t_window = WindowedRate(config.t_window_buckets)
        self._probe_result: Optional[bool] = None
        self._probe_counter = 0
        self._prev_local_busy = 0.0
        #: admission control on the controller's input stream
        #: (duplicate/out-of-order rejection, NaN/range repair,
        #: staleness tagging); counters surface in the QoS extras
        self.input_guard = MeasurementGuard(
            frame_rate=config.frame_rate, measure_period=config.measure_period
        )
        #: supervision hook: called with each *admitted* measurement
        #: after the control step (heartbeat + checkpoint point)
        self.on_measure_tick: Optional[Callable[[Measurement], None]] = None

        # cumulative QoS counters
        self.frames_seen = 0
        self.successes = 0
        self.local_successes = 0
        self.offload_successes = 0
        self.timeouts = 0
        self.local_skips = 0

        #: runtime-adjustable JPEG quality (§II-D knob); controllers
        #: exposing a ``capture_quality`` attribute drive it
        self.capture_quality = config.frame_spec.jpeg_quality
        self._video_sampler = (
            config.video.sampler(rng) if config.video is not None else None
        )
        self.source = FrameSource(
            env,
            frame_rate=config.frame_rate,
            nbytes=self._frame_nbytes,
            sink=self._on_frame,
            total_frames=config.total_frames or None,
            name=f"{config.name}:camera",
        )
        self._measure_proc = env.process(
            self._measure_loop(), name=f"{config.name}:measure"
        )

    # ------------------------------------------------------------------
    # data path callbacks
    # ------------------------------------------------------------------
    def _frame_nbytes(self) -> int:
        """Per-frame size under the current capture quality."""
        from repro.models.frames import frame_bytes

        spec = self.config.frame_spec
        base = frame_bytes(spec.resolution, self.capture_quality)
        if self._video_sampler is None:
            return base
        # content variation scales around the quality-adjusted mean
        raw = self._video_sampler()
        return max(200, int(round(raw * base / spec.bytes_on_wire)))

    def _on_frame(self, frame: Frame) -> None:
        self.frames_seen += 1
        tracer = self.env.tracer
        tenant = self.config.name
        if self.resilience is not None and not self.resilience.breaker.is_closed:
            # Breaker tripped: the offload path is declared dead, so
            # *every* frame takes the local fallback — no 250 ms stalls
            # beyond the ones that tripped it.  Only the probe loop's
            # synthetic trials ride the wire while not closed.
            self.resilience.record(FailureKind.BREAKER_FALLBACK)
            if tracer is not None:
                tracer.begin_frame(
                    tenant, frame.frame_id, self.env.now, frame.nbytes,
                    "breaker-fallback",
                )
            if not self.local.offer(frame):
                self.local_skips += 1
                self.resilience.record(FailureKind.BREAKER_FALLBACK_DROPPED)
                if tracer is not None:
                    tracer.finish_frame(
                        tenant, frame.frame_id, self.env.now, "dropped-skip"
                    )
            elif tracer is not None:
                tracer.begin_local(tenant, frame.frame_id, self.env.now)
            return
        if self.router is not None and not self.router.available():
            # Fleet brownout: every server is ejected, so the offload
            # path is gone fleet-wide.  Degrade to the local pipeline
            # exactly like a breaker trip rather than erroring.
            if self.resilience is not None:
                self.resilience.record(FailureKind.BREAKER_FALLBACK)
            if tracer is not None:
                tracer.begin_frame(
                    tenant, frame.frame_id, self.env.now, frame.nbytes,
                    "brownout-fallback",
                )
            if not self.local.offer(frame):
                self.local_skips += 1
                if self.resilience is not None:
                    self.resilience.record(FailureKind.BREAKER_FALLBACK_DROPPED)
                if tracer is not None:
                    tracer.finish_frame(
                        tenant, frame.frame_id, self.env.now, "dropped-skip"
                    )
            elif tracer is not None:
                tracer.begin_local(tenant, frame.frame_id, self.env.now)
            return
        if self.splitter.route():
            if tracer is not None:
                tracer.begin_frame(
                    tenant, frame.frame_id, self.env.now, frame.nbytes, "offload"
                )
            self._bucket_offload_attempts += 1
            self.offload.send(frame)
        else:
            if tracer is not None:
                tracer.begin_frame(
                    tenant, frame.frame_id, self.env.now, frame.nbytes, "local"
                )
            if not self.local.offer(frame):
                self.local_skips += 1
                if tracer is not None:
                    tracer.finish_frame(
                        tenant, frame.frame_id, self.env.now, "dropped-skip"
                    )
            elif tracer is not None:
                tracer.begin_local(tenant, frame.frame_id, self.env.now)

    def _on_local_complete(self, frame: Frame, latency: float) -> None:
        self._bucket_local_done += 1
        self.local_successes += 1
        self.successes += 1
        tracer = self.env.tracer
        if tracer is not None:
            tenant = self.config.name
            tracer.end_local(tenant, frame.frame_id, self.env.now, latency)
            tracer.finish_frame(
                tenant, frame.frame_id, self.env.now, "completed-local"
            )

    def _on_offload_success(self, frame: Frame, rtt: float) -> None:
        self._bucket_offload_success += 1
        self._bucket_rtts.append(rtt)
        self.rtt_histogram.record(max(rtt, 1e-6))
        self.offload_successes += 1
        self.successes += 1

    def _on_offload_timeout(self, frame: Frame, reason: str) -> None:
        self._bucket_timeouts += 1
        self._t_window.record(1)
        self.timeouts += 1

    def _on_probe_result(self, ok: bool) -> None:
        self._probe_result = ok

    def _on_server_down(self, name: str) -> None:
        """Pool ejection hook: fail over / settle our in-flight frames."""
        self.offload.failover_from(name)

    # ------------------------------------------------------------------
    # measurement / control loop
    # ------------------------------------------------------------------
    @property
    def measure_alive(self) -> bool:
        """True while the 1 Hz measurement/control loop is running."""
        return self._measure_proc.is_alive

    def crash_measure_loop(self) -> None:
        """Kill the measurement/control loop (controller-process crash).

        The data path keeps running — frames still route through the
        splitter at its last target — but no buckets close, no
        measurements reach the controller, and ``P_o`` stops adapting.
        That frozen-actuator blackout is exactly what the supervision
        layer's staleness policy exists to bound.
        """
        if self._measure_proc.is_alive:
            self._measure_proc.kill()

    def restart_measure_loop(self) -> None:
        """Respawn a crashed measurement/control loop.

        Measurement state is re-based first: the bucket that straddled
        the outage would otherwise divide an entire downtime's counts
        by one period, handing the controller a garbage first
        measurement.  Controller state is *not* touched here — warm
        vs cold restart policy belongs to the supervision layer.
        """
        if self._measure_proc.is_alive:
            return
        self._rebase_measurement_state()
        self._measure_proc = self.env.process(
            self._measure_loop(), name=f"{self.config.name}:measure"
        )

    def _rebase_measurement_state(self) -> None:
        self._bucket_offload_attempts = 0
        self._bucket_offload_success = 0
        self._bucket_local_done = 0
        self._bucket_timeouts = 0
        self._bucket_rtts = []
        self._t_window = WindowedRate(self.config.t_window_buckets)
        self._probe_result = None
        self._prev_local_busy = self.local.busy_seconds

    def _measure_loop(self):
        env = self.env
        cfg = self.config
        period = cfg.measure_period
        while True:
            if self.controller.wants_probe and not self._offload_path_down:
                self._send_probe()
            yield env.sleep(period)
            raw = self._close_buckets(period)
            decision = self.input_guard.admit(raw)
            if not decision.admitted:
                # Duplicate or out-of-order window: hold the last
                # action rather than feed the PD law a bad dt.
                if env.tracer is not None:
                    env.tracer.event(
                        env.now, "controller.held",
                        target=float(self.splitter.target), reason="inadmissible",
                    )
                self.traces.offload_target.append(env.now, self.splitter.target)
                self.traces.capture_quality.append(env.now, self.capture_quality)
                self.traces.error.append(
                    env.now, getattr(self.controller, "last_error", 0.0)
                )
                continue
            measurement = decision.measurement
            tracer = env.tracer
            if self._offload_path_down:
                # Controller frozen (anti-windup): it would otherwise
                # integrate an outage it cannot observe — every frame
                # is being saved locally, so T reads zero — and resume
                # from a nonsense state.  The splitter is parked at the
                # paper's 0.1 F_s standing probe; on close (breaker) or
                # first re-admission (fleet brownout) the controller
                # picks up exactly where it was frozen.
                self.splitter.set_target(self._park_target)
                if tracer is not None:
                    reason = (
                        "breaker-open" if self._breaker_engaged
                        else "fleet-brownout"
                    )
                    tracer.event(
                        env.now, "controller.held",
                        target=float(self.splitter.target), reason=reason,
                    )
            else:
                degraded_before = (
                    getattr(self.controller, "degraded_inputs", 0)
                    if tracer is not None
                    else 0
                )
                new_target = self.controller.update(measurement)
                self.splitter.set_target(new_target)
                if tracer is not None:
                    tracer.event(
                        env.now, "controller.update", target=float(new_target)
                    )
                    degraded_after = getattr(
                        self.controller, "degraded_inputs", degraded_before
                    )
                    if degraded_after > degraded_before:
                        tracer.event(env.now, "controller.degraded-input")
                quality = getattr(self.controller, "capture_quality", None)
                if quality is not None:
                    self.capture_quality = float(quality)
            self.traces.offload_target.append(env.now, self.splitter.target)
            self.traces.capture_quality.append(env.now, self.capture_quality)
            err = getattr(self.controller, "last_error", 0.0)
            self.traces.error.append(env.now, err)
            if self.on_measure_tick is not None:
                self.on_measure_tick(measurement)

    @property
    def _breaker_engaged(self) -> bool:
        return self.resilience is not None and not self.resilience.breaker.is_closed

    @property
    def _offload_path_down(self) -> bool:
        """Breaker tripped, or the whole fleet is ejected (brownout)."""
        return self._breaker_engaged or (
            self.router is not None and not self.router.available()
        )

    @property
    def _park_target(self) -> float:
        """Standing-probe target while the offload path is down."""
        if self.resilience is not None:
            return self.resilience.open_target
        return 0.1 * self.config.frame_rate

    # ------------------------------------------------------------------
    # circuit-breaker probe loop
    # ------------------------------------------------------------------
    def _on_breaker_open(self) -> None:
        """Breaker just tripped: start the half-open probe loop."""
        if self._breaker_probing:
            return
        self._breaker_probing = True
        self.env.process(
            self._breaker_probe_loop(), name=f"{self.config.name}:breaker-probe"
        )

    def _breaker_probe_loop(self):
        """Trial probes with exponential backoff until the path heals.

        One probe per backoff interval; the loop waits for each trial's
        verdict (the offload watchdog bounds that wait by the deadline)
        so at most one trial is ever in flight.
        """
        resilience = self.resilience
        breaker = resilience.breaker
        while not breaker.is_closed:
            yield self.env.sleep(breaker.current_backoff)
            if breaker.is_closed:
                break
            verdict = self.env.event()

            def on_result(ok: bool, verdict=verdict) -> None:
                breaker.record_probe(ok, self.env.now)
                if not ok:
                    resilience.record(FailureKind.PROBE_FAILED)
                if not verdict.triggered:
                    verdict.succeed()

            breaker.on_probe_sent(self.env.now)
            self._probe_counter += 1
            trial = Frame(
                frame_id=-self._probe_counter,
                captured_at=self.env.now,
                nbytes=self._frame_nbytes(),
            )
            self.offload.send(trial, is_probe=True, on_result=on_result)
            yield verdict
        self._breaker_probing = False

    def _send_probe(self) -> None:
        """One heartbeat request (AllOrNothing's profiling probe)."""
        self._probe_counter += 1
        probe_frame = Frame(
            frame_id=-self._probe_counter,  # never collides with real ids
            captured_at=self.env.now,
            nbytes=self._frame_nbytes(),
        )
        self.offload.send(probe_frame, is_probe=True)

    def _close_buckets(self, period: float) -> Measurement:
        env = self.env
        cfg = self.config

        offload_rate = self._bucket_offload_attempts / period
        success_rate = self._bucket_offload_success / period
        local_rate = self._bucket_local_done / period
        timeout_last = self._bucket_timeouts / period
        throughput = success_rate + local_rate
        self._t_window.close_bucket(period)
        t_avg = self._t_window.average

        # per-interval CPU utilization from local busy time + offloads
        busy_now = self.local.busy_seconds
        busy_frac = min(1.0, (busy_now - self._prev_local_busy) / period)
        self._prev_local_busy = busy_now
        cpu = self.energy_model.utilization(busy_frac, offload_rate)

        overload_rate = retry_rate = breaker_open = 0.0
        if self.resilience is not None:
            fault_rates = self.resilience.taxonomy.close_bucket(period)
            overload_rate = fault_rates[FailureKind.OVERLOADED]
            retry_rate = fault_rates[FailureKind.RETRY_SENT]
            breaker_open = self.resilience.breaker.state_value()

        self.traces.throughput.append(env.now, throughput)
        self.traces.offload_rate.append(env.now, offload_rate)
        self.traces.offload_success.append(env.now, success_rate)
        self.traces.local_rate.append(env.now, local_rate)
        self.traces.timeout_rate.append(env.now, timeout_last)
        self.traces.timeout_window.append(env.now, t_avg)
        self.traces.cpu_utilization.append(env.now, cpu)
        self.traces.breaker_state.append(env.now, breaker_open)

        rtt_mean = rtt_p95 = None
        if self._bucket_rtts:
            arr = np.asarray(self._bucket_rtts)
            rtt_mean = float(arr.mean())
            rtt_p95 = float(np.percentile(arr, 95))

        measurement = Measurement(
            time=env.now,
            frame_rate=cfg.frame_rate,
            offload_target=self.splitter.target,
            offload_rate=offload_rate,
            offload_success_rate=success_rate,
            timeout_rate=t_avg,
            timeout_rate_last=timeout_last,
            local_rate=local_rate,
            throughput=throughput,
            probe_ok=self._probe_result,
            rtt_mean=rtt_mean,
            rtt_p95=rtt_p95,
            overload_rate=overload_rate,
            retry_rate=retry_rate,
            breaker_open=breaker_open,
        )

        self._bucket_offload_attempts = 0
        self._bucket_offload_success = 0
        self._bucket_local_done = 0
        self._bucket_timeouts = 0
        self._bucket_rtts = []
        return measurement

    # ------------------------------------------------------------------
    def qos_report(self, elapsed: Optional[float] = None) -> QosReport:
        """Whole-run QoS rollup for this device."""
        elapsed = elapsed if elapsed is not None else self.env.now
        mean_p = (
            float(self.traces.throughput.values.mean())
            if len(self.traces.throughput)
            else 0.0
        )
        mean_t = (
            float(self.traces.timeout_rate.values.mean())
            if len(self.traces.timeout_rate)
            else 0.0
        )
        extras = {
            "offload_successes": float(self.offload_successes),
            "local_successes": float(self.local_successes),
            "mean_cpu_utilization": (
                float(self.traces.cpu_utilization.values.mean())
                if len(self.traces.cpu_utilization)
                else 0.0
            ),
            "rtt_p50": self.rtt_histogram.quantile(0.5),
            "rtt_p95": self.rtt_histogram.quantile(0.95),
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
        for kind, count in self.input_guard.degraded_counts().items():
            extras[f"telemetry.{kind}"] = float(count)
        degraded = getattr(self.controller, "degraded_inputs", 0)
        if degraded:
            extras["telemetry.degraded_inputs"] = float(degraded)
        return QosReport(
            name=self.controller.name,
            total_frames=self.frames_seen,
            successful=self.successes,
            timeouts=self.timeouts,
            rejected=self.offload.rejections,
            dropped_local=self.local_skips,
            mean_throughput=mean_p,
            mean_violation_rate=mean_t,
            extras=extras,
        )
