"""The device core: routing, buckets and the measure step, no clock.

One edge device's decisions, for the simulator's
:class:`~repro.device.device.EdgeDevice` and the wall-clock
:class:`~repro.realtime.aio.AsyncRealTimeLoop` alike.  The driver owns
the camera, the engines, the timers and the clock: a frame arrives
stamped with its capture time, the engine that settles it calls the
core's handler directly, and :meth:`DeviceCore.measure` is given
``now``.  Offloading and local inference are the injected ``send`` and
``offer`` actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.control.base import Controller, Measurement
from repro.control.validity import MeasurementGuard
from repro.device.camera import Frame
from repro.device.config import DeviceConfig
from repro.device.energy import CpuUtilizationModel
from repro.device.splitter import TokenBucketSplitter
from repro.metrics.counters import WindowedRate
from repro.metrics.rtt import rtt_mean, rtt_p95
from repro.metrics.streaming import StreamingHistogram
from repro.metrics.taxonomy import FailureKind
from repro.metrics.timeseries import TimeSeries
from repro.resilience.layer import ResilienceLayer

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


#: the span host of a driver that records no spans
_UNTRACED = SimpleNamespace(tracer=None)


class DeviceCore:
    """One §II edge device's decisions under a given controller.

    ``resilience`` is the offload path's layer and ``router`` the fleet
    seam: an open breaker or a fleet-wide brownout routes every frame
    local and parks the controller.  ``host`` is the object whose
    ``tracer`` the span hooks read (the simulator's ``Environment``).
    """

    def __init__(
        self,
        config: DeviceConfig,
        controller: Controller,
        send: Optional[Callable[[Frame], None]] = None,
        offer: Optional[Callable[[Frame], bool]] = None,
        resilience: Optional[ResilienceLayer] = None,
        router: Optional["Router"] = None,
        host: Any = _UNTRACED,
    ) -> None:
        self.config = config
        self.controller = controller
        self.send = send  # ship a frame (pipelined; the engine reports back)
        self.offer = offer  # hand a frame to the local engine; False if full
        self.resilience = resilience
        self.router = router
        self.host = host
        self.traces = DeviceTraces()
        self.energy_model = CpuUtilizationModel(config.profile)
        self.splitter = TokenBucketSplitter(config.frame_rate)
        self.splitter.set_target(controller.initial_target(config.frame_rate))
        #: whole-run RTT distribution (bounded memory), for reports
        self.rtt_histogram = StreamingHistogram(min_value=1e-3, max_value=5.0)
        #: admission control on the controller's input stream
        #: (duplicate/out-of-order rejection, NaN/range repair,
        #: staleness tagging); counters surface in the QoS extras
        self.input_guard = MeasurementGuard(
            frame_rate=config.frame_rate, measure_period=config.measure_period
        )
        #: runtime-adjustable JPEG quality (§II-D knob); controllers
        #: exposing a ``capture_quality`` attribute drive it
        self.capture_quality = config.frame_spec.jpeg_quality

        # cumulative QoS counters
        self.frames_seen = 0
        self.successes = 0
        self.local_successes = 0
        self.offload_successes = 0
        self.timeouts = 0
        self.local_skips = 0
        self.rebase(0.0)

    # ------------------------------------------------------------------
    # per-frame handlers (wired straight into the camera and engines)
    # ------------------------------------------------------------------
    def on_frame(self, frame: Frame) -> None:
        """Route one captured frame: offload, local, or local fallback."""
        self.frames_seen += 1
        tracer = self.host.tracer
        resilience = self.resilience
        router = self.router
        engaged = resilience is not None and not resilience.breaker.is_closed
        if engaged or (router is not None and not router.available()):
            # Breaker tripped, or fleet brownout (every server ejected):
            # the offload path is declared dead, so *every* frame takes
            # the local fallback — no 250 ms stalls beyond the ones that
            # declared it.  Only breaker trials ride the wire meanwhile.
            if resilience is not None:
                resilience.record(FailureKind.BREAKER_FALLBACK)
            route = "breaker-fallback" if engaged else "brownout-fallback"
        elif self.splitter.route():
            if tracer is not None:
                tracer.begin_frame(
                    self.config.name, frame.frame_id, frame.captured_at,
                    frame.nbytes, "offload",
                )
            self._bucket_offload_attempts += 1
            self.send(frame)
            return
        else:
            route = "local"
        if tracer is not None:
            tracer.begin_frame(
                self.config.name, frame.frame_id, frame.captured_at, frame.nbytes, route
            )
        if not self.offer(frame):
            self.local_skips += 1
            if route != "local" and resilience is not None:
                resilience.record(FailureKind.BREAKER_FALLBACK_DROPPED)
            if tracer is not None:
                tracer.finish_frame(
                    self.config.name, frame.frame_id, frame.captured_at, "dropped-skip"
                )
        elif tracer is not None:
            tracer.begin_local(self.config.name, frame.frame_id, frame.captured_at)

    def on_fallback(self, frame: Frame) -> None:
        """A routed frame the remote diverted local unsent (its breaker
        opened meanwhile); only the untraced wall-clock remote does so."""
        if not self.offer(frame):
            self.local_skips += 1
            if self.resilience is not None:
                self.resilience.record(FailureKind.BREAKER_FALLBACK_DROPPED)

    def on_local_complete(self, frame: Frame, latency: float) -> None:
        self._bucket_local_done += 1
        self.local_successes += 1
        self.successes += 1

    def on_offload_success(self, frame: Frame, rtt: float) -> None:
        self._bucket_offload_success += 1
        self._bucket_rtts.append(rtt)
        self.rtt_histogram.record(max(rtt, 1e-6))
        self.offload_successes += 1
        self.successes += 1

    def on_offload_timeout(self, frame: Frame, reason: str) -> None:
        self._bucket_timeouts += 1
        self._t_window.record(1)
        self.timeouts += 1

    def on_probe_result(self, ok: bool) -> None:
        self._probe_result = ok

    # ------------------------------------------------------------------
    def probe_due(self) -> bool:
        """Send a heartbeat probe (AllOrNothing's) as a period starts?"""
        return self.controller.wants_probe and not self.offload_path_down

    def start_trial(self, now: float) -> bool:
        """Book a half-open breaker trial sent now; False once closed."""
        breaker = self.resilience.breaker
        if breaker.is_closed:
            return False
        breaker.on_probe_sent(now)
        return True

    @property
    def breaker_engaged(self) -> bool:
        return self.resilience is not None and not self.resilience.breaker.is_closed

    @property
    def offload_path_down(self) -> bool:
        """Breaker tripped, or the whole fleet is ejected (brownout)."""
        router = self.router
        return self.breaker_engaged or (router is not None and not router.available())

    @property
    def park_target(self) -> float:
        """Standing-probe target while the offload path is down: the
        resilience layer's ``open_target_frac`` of ``F_s`` (the paper's
        0.1 F_s without one)."""
        if self.resilience is not None:
            return self.resilience.config.open_target_frac * self.config.frame_rate
        return 0.1 * self.config.frame_rate

    def rebase(self, local_busy_seconds: float) -> None:
        """Empty the buckets and the ``T`` window, forget the last probe
        (a measure loop restarting after an outage starts afresh)."""
        self._open_buckets()
        self._t_window = WindowedRate(self.config.t_window_buckets)
        self._probe_result: Optional[bool] = None
        self._prev_local_busy = local_busy_seconds

    def measure(self, now: float, local_busy_seconds: float) -> Optional[Measurement]:
        """Close one measure period's buckets and run the control step.

        ``local_busy_seconds`` is the local engine's cumulative busy
        time.  Returns the admitted measurement, or None when the guard
        refused the window.
        """
        controller = self.controller
        splitter = self.splitter
        tracer = self.host.tracer
        raw = self._close_buckets(now, local_busy_seconds)
        decision = self.input_guard.admit(raw)
        measurement = decision.measurement
        if measurement is None:
            # Duplicate or out-of-order window: hold the last action
            # rather than feed the PD law a bad dt.
            if tracer is not None:
                tracer.event(
                    now, "controller.held",
                    target=float(splitter.target), reason="inadmissible",
                )
        elif self.offload_path_down:
            # Controller frozen (anti-windup): it would otherwise
            # integrate an outage it cannot observe — every frame is
            # being saved locally, so T reads zero — and resume from a
            # nonsense state.  The splitter is parked at the paper's
            # 0.1 F_s standing probe; on close (breaker) or first
            # re-admission (fleet brownout) the controller picks up
            # exactly where it was frozen.
            splitter.set_target(self.park_target)
            if tracer is not None:
                reason = "breaker-open" if self.breaker_engaged else "fleet-brownout"
                tracer.event(
                    now, "controller.held",
                    target=float(splitter.target), reason=reason,
                )
        else:
            degraded_before = (
                getattr(controller, "degraded_inputs", 0) if tracer is not None else 0
            )
            new_target = controller.update(measurement)
            splitter.set_target(new_target)
            if tracer is not None:
                tracer.event(now, "controller.update", target=float(new_target))
                degraded_after = getattr(controller, "degraded_inputs", degraded_before)
                if degraded_after > degraded_before:
                    tracer.event(now, "controller.degraded-input")
            quality = getattr(controller, "capture_quality", None)
            if quality is not None:
                self.capture_quality = float(quality)
        traces = self.traces
        traces.offload_target.append(now, splitter.target)
        traces.capture_quality.append(now, self.capture_quality)
        traces.error.append(now, getattr(controller, "last_error", 0.0))
        return measurement

    def _close_buckets(self, now: float, local_busy_seconds: float) -> Measurement:
        period = self.config.measure_period
        offload_rate = self._bucket_offload_attempts / period
        success_rate = self._bucket_offload_success / period
        local_rate = self._bucket_local_done / period
        timeout_last = self._bucket_timeouts / period
        throughput = success_rate + local_rate
        self._t_window.close_bucket(period)
        t_avg = self._t_window.average

        # per-interval CPU utilization from local busy time + offloads
        busy_frac = min(1.0, (local_busy_seconds - self._prev_local_busy) / period)
        self._prev_local_busy = local_busy_seconds
        cpu = self.energy_model.utilization(busy_frac, offload_rate)

        overload_rate = retry_rate = breaker_open = 0.0
        if self.resilience is not None:
            fault_rates = self.resilience.taxonomy.close_bucket(period)
            overload_rate = fault_rates[FailureKind.OVERLOADED]
            retry_rate = fault_rates[FailureKind.RETRY_SENT]
            breaker_open = self.resilience.breaker.state_value()

        traces = self.traces
        traces.throughput.append(now, throughput)
        traces.offload_rate.append(now, offload_rate)
        traces.offload_success.append(now, success_rate)
        traces.local_rate.append(now, local_rate)
        traces.timeout_rate.append(now, timeout_last)
        traces.timeout_window.append(now, t_avg)
        traces.cpu_utilization.append(now, cpu)
        traces.breaker_state.append(now, breaker_open)

        rtts = self._bucket_rtts
        self._open_buckets()
        return Measurement(
            time=now,
            frame_rate=self.config.frame_rate,
            offload_target=self.splitter.target,
            offload_rate=offload_rate,
            offload_success_rate=success_rate,
            timeout_rate=t_avg,
            timeout_rate_last=timeout_last,
            local_rate=local_rate,
            throughput=throughput,
            probe_ok=self._probe_result,
            rtt_mean=rtt_mean(rtts) if rtts else None,
            rtt_p95=rtt_p95(rtts) if rtts else None,
            overload_rate=overload_rate,
            retry_rate=retry_rate,
            breaker_open=breaker_open,
        )

    def _open_buckets(self) -> None:
        self._bucket_offload_attempts = 0
        self._bucket_offload_success = 0
        self._bucket_local_done = 0
        self._bucket_timeouts = 0
        self._bucket_rtts: list = []

    def check_accounting(self, in_flight: int, aborted: int = 0) -> None:
        """Raise unless every captured frame is settled or still in flight
        (``aborted``: dropped by an engine with no outcome, as a reboot does)."""
        settled = self.successes + self.timeouts + self.local_skips + aborted
        if self.frames_seen != settled + in_flight:
            raise RuntimeError(
                f"device {self.config.name!r}: {self.frames_seen} frames "
                f"captured, but {settled} settled and {in_flight} in flight"
            )
