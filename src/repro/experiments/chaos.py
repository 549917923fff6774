"""Chaos scenarios: composed fault injection with recovery validation.

A :class:`ChaosScenario` is an ordinary :class:`Scenario` plus a set of
:class:`~repro.faults.FaultInjector` instances composed over one
simulated run.  :func:`run_chaos`

* validates the plan (same-resource injectors must not overlap),
* wires the testbed via :func:`~repro.experiments.scenario.build_runtime`
  and installs every injector on the live substrate,
* wraps the controller so the full measurement→target transcript is
  captured (:mod:`repro.control.transcript` format — two runs with the
  same seed must serialize byte-identically),
* records per-window QoS for every fault window, and
* evaluates the paper's recovery invariants (§II-A.3 / Table IV) on
  every *total-failure* window: ``P_o`` settles at the ``0.1 F_s``
  standing probe, and re-converges within a bounded number of control
  periods after the fault heals.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.control.base import Measurement
from repro.control.transcript import FORMAT_VERSION
from repro.experiments.scenario import RunResult, Scenario, build_runtime
from repro.faults.base import FaultInjector, validate_plan
from repro.faults.device import CameraStall, CpuThrottle
from repro.faults.invariants import (
    MIN_PROBE_WINDOW,
    BreakerTransitions,
    InvariantCheck,
    breaker_reclose_invariant,
    breaker_trip_invariant,
    reconvergence_invariant,
    restart_ordering_invariant,
    restart_settle_invariant,
    settle_periods_after_restart,
    standing_probe_invariant,
)
from repro.faults.link import BandwidthCollapse, BurstLoss
from repro.faults.process import ControllerKill, DeviceReboot, ServerKill
from repro.faults.server import ServerCrash, ServerSlowdown
from repro.faults.windows import FaultTimeline, FaultWindow
from repro.resilience.config import ResilienceConfig
from repro.supervision.supervisor import SupervisionConfig, Supervisor

#: ``Measurement`` holds only scalars, so a transcript step is a plain
#: field-order dict of them (what ``dataclasses.asdict`` builds, without
#: its recursive deep copy once per controller tick)
_MEASUREMENT_FIELDS = tuple(f.name for f in dataclasses.fields(Measurement))


class RecordingController:
    """Transparent controller wrapper capturing the control transcript.

    Duck-typed, not a :class:`~repro.control.base.Controller` subclass:
    every attribute the device reads (``wants_probe``, ``name``,
    ``last_error``, ``capture_quality``, ...) is forwarded to the
    wrapped controller, so wrapping never changes behaviour — only
    observes it.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.steps: List[dict] = []

    def update(self, measurement) -> float:
        inner = self.inner
        before = getattr(inner, "degraded_inputs", None)
        target = inner.update(measurement)
        step = {
            "measurement": {
                name: getattr(measurement, name) for name in _MEASUREMENT_FIELDS
            },
            "target": float(target),
        }
        if before is not None:
            after = getattr(inner, "degraded_inputs", before)
            if after > before:
                # The input was repaired (NaN/negative/excessive T);
                # stamp the step so transcript consumers can see which
                # windows ran on degraded telemetry.  Clean runs emit
                # no key, keeping golden transcripts byte-stable.
                validity = getattr(inner, "last_input_validity", None)
                step["degraded_input"] = getattr(validity, "value", True)
        self.steps.append(step)
        return target

    def reset(self) -> None:
        self.inner.reset()
        self.steps.clear()

    def transcript(self, frame_rate: float) -> Dict[str, object]:
        """The captured run in :mod:`repro.control.transcript` format."""
        return {
            "version": FORMAT_VERSION,
            "controller": self.inner.name,
            "initial_target": float(self.inner.initial_target(frame_rate)),
            "steps": list(self.steps),
        }

    def __getattr__(self, item):
        if item == "inner":  # guard unpickling/copy before __init__
            raise AttributeError(item)
        return getattr(self.inner, item)


@dataclass(frozen=True)
class WindowQos:
    """Per-fault-window QoS summary read from the device traces."""

    injector: str
    layer: str
    window: FaultWindow
    mean_throughput: float
    mean_timeout_rate: float
    mean_offload_target: float

    def row(self) -> list:
        return [
            self.injector,
            self.layer,
            f"[{self.window.start:g},{self.window.end:g})",
            f"{self.mean_throughput:6.2f}",
            f"{self.mean_timeout_rate:6.2f}",
            f"{self.mean_offload_target:6.2f}",
        ]


@dataclass
class ChaosScenario:
    """One scenario plus the fault plan composed over it."""

    base: Scenario
    injectors: Sequence[FaultInjector] = ()
    #: standing-probe fraction the controller under test parks at
    #: during total failure (FrameFeedback/Headroom: the Table IV
    #: ``0.1``; AIMD: set its ``floor`` to match)
    probe_frac: float = 0.1
    #: re-convergence threshold as a fraction of ``F_s``
    reconverge_frac: float = 0.6
    #: control periods allowed for re-convergence after healing
    reconverge_periods: int = 25
    #: when set, the run gets the full defense stack: the device is
    #: rebuilt with this resilience config and the server with overload
    #: pushback, and the breaker trip/re-close invariants join the
    #: recovery checks on every total-failure window
    resilience: Optional[ResilienceConfig] = None
    #: control periods within which the breaker must trip after a
    #: total-failure onset (resilience runs only)
    breaker_trip_periods: float = 3.0
    #: when set, a :class:`~repro.supervision.Supervisor` is attached
    #: to the runtime: heartbeats, per-tick controller checkpoints, the
    #: degraded-telemetry hold-then-decay policy, and MTTR/restart
    #: counters exported into the QoS extras.  Process-kill injectors
    #: route their restarts through it, and the restart-settle
    #: invariant joins the checks on every controller-outage window.
    supervision: Optional[SupervisionConfig] = None
    #: measure windows a *warm* restart gets to re-settle within
    #: ``settle_tolerance_fps`` of the pre-crash ``P_o`` (the tentpole
    #: acceptance bound); cold restarts get ``reconverge_periods``
    warm_restart_windows: float = 3.0

    def with_seed(self, seed: int) -> "ChaosScenario":
        return dataclasses.replace(
            self, base=dataclasses.replace(self.base, seed=seed)
        )

    def effective_base(self) -> Scenario:
        """The base scenario with the resilience stack applied, if any."""
        if self.resilience is None:
            return self.base
        return dataclasses.replace(
            self.base,
            device=dataclasses.replace(self.base.device, resilience=self.resilience),
            server_pushback=True,
        )


@dataclass
class ChaosResult:
    """Everything observable from one chaos run."""

    run: RunResult
    transcript: Dict[str, object]
    window_qos: List[WindowQos] = field(default_factory=list)
    invariants: List[InvariantCheck] = field(default_factory=list)
    #: circuit-breaker state changes ``(time, state)``; empty when the
    #: run had no resilience layer
    breaker_transitions: BreakerTransitions = field(default_factory=list)
    #: cumulative failure-taxonomy counts (wire names); empty likewise
    failure_taxonomy: Dict[str, int] = field(default_factory=dict)
    #: supervision stats (``SupervisionStats.as_dict()``); None when
    #: the run had no supervisor attached
    supervision: Optional[Dict[str, object]] = None

    @property
    def all_invariants_hold(self) -> bool:
        return all(c.passed for c in self.invariants)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (``repro chaos --json``)."""
        qos = self.run.qos
        return {
            "controller": self.run.controller_name,
            "seed": self.run.scenario.seed,
            "elapsed": self.run.elapsed,
            "resilience": bool(self.breaker_transitions or self.failure_taxonomy),
            "qos": {
                "total_frames": qos.total_frames,
                "successful": qos.successful,
                "timeouts": qos.timeouts,
                "rejected": qos.rejected,
                "mean_throughput": qos.mean_throughput,
                "mean_violation_rate": qos.mean_violation_rate,
            },
            "window_qos": [
                {
                    "injector": w.injector,
                    "layer": w.layer,
                    "window": [w.window.start, w.window.end],
                    "mean_throughput": w.mean_throughput,
                    "mean_timeout_rate": w.mean_timeout_rate,
                    "mean_offload_target": w.mean_offload_target,
                }
                for w in self.window_qos
            ],
            "invariants": [_check_to_dict(c) for c in self.invariants],
            "breaker_transitions": [
                [t, state.value] for t, state in self.breaker_transitions
            ],
            "failure_taxonomy": dict(self.failure_taxonomy),
            "supervision": self.supervision,
            "verdict": "PASS" if self.all_invariants_hold else "FAIL",
        }


def _finite(x: float) -> Optional[float]:
    return float(x) if math.isfinite(x) else None


def _check_to_dict(c: InvariantCheck) -> Dict[str, object]:
    return {
        "name": c.name,
        "window": [c.window.start, c.window.end] if c.window else None,
        "observed": _finite(c.observed),
        "expected": _finite(c.expected),
        "tolerance": c.tolerance,
        "passed": c.passed,
        "detail": c.detail,
    }


def _window_qos(result: RunResult, injector: FaultInjector) -> List[WindowQos]:
    out: List[WindowQos] = []
    for w in injector.timeline:
        t1 = min(w.end, result.elapsed)
        if t1 <= w.start:
            continue  # window entirely past the run's end

        def mean(series):
            v = series.mean_over(w.start, t1)
            return 0.0 if math.isnan(v) else v

        out.append(
            WindowQos(
                injector=injector.name,
                layer=injector.layer,
                window=w,
                mean_throughput=mean(result.traces.throughput),
                mean_timeout_rate=mean(result.traces.timeout_rate),
                mean_offload_target=mean(result.traces.offload_target),
            )
        )
    return out


def _recovery_checks(
    chaos: ChaosScenario,
    result: RunResult,
    breaker_transitions: Optional[BreakerTransitions] = None,
) -> List[InvariantCheck]:
    """Evaluate the recovery invariants on every total-failure window."""
    checks: List[InvariantCheck] = []
    fs = chaos.base.device.frame_rate
    period = chaos.base.device.measure_period
    po = result.traces.offload_target
    # Worst re-close case: a max-length backoff sleep begun just before
    # the heal, its probe failing at the deadline, then one more
    # max-length sleep before the probe that finally lands.
    reclose_delay = None
    if chaos.resilience is not None:
        reclose_delay = (
            chaos.resilience.backoff_max
            + chaos.base.device.deadline
            + 2.0 * period
        )
    supervision = chaos.supervision
    for injector in chaos.injectors:
        # Controller-outage windows (ControllerKill / DeviceReboot) get
        # the restart-settle invariant when a supervisor ran: warm
        # restarts must re-settle within ``warm_restart_windows``
        # measure windows, cold ones within the re-convergence bound.
        if supervision is not None and getattr(injector, "controller_outage", False):
            mode = getattr(injector, "restart", "supervised")
            if mode != "none":
                warm = (
                    supervision.checkpoint_enabled
                    if mode == "supervised"
                    else mode == "warm"
                )
                name = "warm-restart-settle" if warm else "cold-restart-settle"
                bound = (
                    chaos.warm_restart_windows
                    if warm
                    else float(chaos.reconverge_periods)
                )
                for w in injector.timeline:
                    if w.end + bound * period <= result.elapsed:
                        checks.append(
                            restart_settle_invariant(
                                po,
                                crash_time=w.start,
                                restart_time=w.end,
                                frame_rate=fs,
                                tolerance_fps=supervision.settle_tolerance_fps,
                                max_periods=bound,
                                control_period=period,
                                window=w,
                                name=name,
                            )
                        )
        if not injector.total_failure:
            continue
        for w in injector.timeline:
            if w.duration >= MIN_PROBE_WINDOW and w.end <= result.elapsed:
                checks.append(
                    standing_probe_invariant(po, w, fs, probe_frac=chaos.probe_frac)
                )
            # Only judge re-convergence when the run actually observed
            # the full allowance after healing.
            horizon = w.end + chaos.reconverge_periods * period
            if w.end < result.elapsed and horizon <= result.elapsed:
                checks.append(
                    reconvergence_invariant(
                        po,
                        heal_time=w.end,
                        frame_rate=fs,
                        threshold_frac=chaos.reconverge_frac,
                        max_periods=chaos.reconverge_periods,
                        control_period=period,
                        window=w,
                    )
                )
            if breaker_transitions is None or reclose_delay is None:
                continue
            if w.end <= result.elapsed:
                checks.append(
                    breaker_trip_invariant(
                        breaker_transitions,
                        w,
                        control_period=period,
                        max_periods=chaos.breaker_trip_periods,
                    )
                )
            if w.end + reclose_delay <= result.elapsed:
                checks.append(
                    breaker_reclose_invariant(
                        breaker_transitions,
                        heal_time=w.end,
                        max_delay=reclose_delay,
                        window=w,
                    )
                )
    return checks


def run_chaos(chaos: ChaosScenario, tracer=None) -> ChaosResult:
    """Execute one chaos scenario deterministically.

    ``tracer`` (a :class:`repro.trace.Tracer`) is attached to the
    runtime environment before anything runs, so per-frame spans cover
    the whole stream and supervision/controller events land in the
    same trace (see :mod:`repro.trace.scenarios`).
    """
    if chaos.base.members:
        # FaultTargets holds one box and one device: a fault would
        # silently hit member 0 only
        raise ValueError("chaos runs take a single-device scenario, not members")
    validate_plan(list(chaos.injectors))
    runtime = build_runtime(chaos.effective_base())
    if tracer is not None:
        runtime.env.tracer = tracer

    # The supervisor checkpoints the *inner* controller: wrapping for
    # transcripts must not change what a restore reloads (and a warm
    # restart must never clear the recorded steps).
    supervisor = None
    if chaos.supervision is not None:
        supervisor = Supervisor(
            runtime.env,
            runtime.device,
            runtime.server,
            chaos.supervision,
            controller=runtime.controller,
        )
        runtime.supervisor = supervisor

    recorder = RecordingController(runtime.device.core.controller)
    runtime.device.core.controller = recorder

    targets = runtime.fault_targets()
    for injector in chaos.injectors:
        injector.install(runtime.env, targets)

    result = runtime.run()
    if supervisor is not None:
        result.qos.extras.update(supervisor.stats.as_extras())

    window_qos: List[WindowQos] = []
    for injector in chaos.injectors:
        window_qos.extend(_window_qos(result, injector))

    resilience = runtime.device.resilience
    transitions = list(resilience.breaker.transitions) if resilience else []
    return ChaosResult(
        run=result,
        transcript=recorder.transcript(chaos.base.device.frame_rate),
        window_qos=window_qos,
        invariants=_recovery_checks(
            chaos, result, breaker_transitions=transitions if resilience else None
        ),
        breaker_transitions=transitions,
        failure_taxonomy=resilience.taxonomy.as_dict() if resilience else {},
        supervision=supervisor.stats.as_dict() if supervisor else None,
    )


def default_chaos_injectors() -> List[FaultInjector]:
    """The canned cross-layer plan behind ``framefeedback chaos``.

    One fault per substrate knob, spread over ~two minutes: burst loss
    and a server slowdown (degraded-but-alive regimes), a 20 s server
    blackout and a 12 s bandwidth collapse (the two total-failure
    windows the recovery invariants are asserted on), plus device-side
    CPU throttling and a camera stall.
    """
    return [
        BurstLoss(FaultTimeline.from_rows([(15.0, 10.0)]), loss=0.25, burst=6.0),
        ServerSlowdown(FaultTimeline.from_rows([(32.0, 10.0)]), factor=4.0),
        ServerCrash(FaultTimeline.from_rows([(50.0, 20.0)])),
        CpuThrottle(FaultTimeline.from_rows([(74.0, 8.0)]), factor=2.0),
        CameraStall(FaultTimeline.from_rows([(84.0, 3.0)])),
        BandwidthCollapse(FaultTimeline.from_rows([(89.0, 16.0)]), factor=0.01),
    ]


# ----------------------------------------------------------------------
# supervision chaos: crash/restart schedule run warm vs cold
# ----------------------------------------------------------------------


def supervision_chaos_injectors(
    controller_kill: Optional[tuple] = (60.0, 5.0),
    server_kill: Optional[tuple] = (90.0, 15.0),
    reboot: Optional[tuple] = (108.0, 4.0),
) -> List[FaultInjector]:
    """The canned process-crash plan behind ``framefeedback chaos --supervision``.

    Three kill windows, each ``(start, duration)`` and individually
    omittable: the controller loop dies mid-steady-state, the server
    loses its service loop (and queue), and finally the whole device
    reboots.  Injectors are built fresh per call — they bind to one
    environment and must not be shared across runs.
    """
    out: List[FaultInjector] = []
    if controller_kill is not None:
        out.append(ControllerKill(FaultTimeline.from_rows([controller_kill])))
    if server_kill is not None:
        out.append(ServerKill(FaultTimeline.from_rows([server_kill])))
    if reboot is not None:
        out.append(DeviceReboot(FaultTimeline.from_rows([reboot])))
    return out


@dataclass
class SupervisionChaosResult:
    """One crash schedule executed twice: checkpointing on, then off.

    The pair is the tentpole's evidence: identical seeds and fault
    plans, differing only in whether the supervisor restores from
    checkpoints — so every gap between the two runs is attributable to
    the checkpoint, and the warm-beats-cold ordering invariant can be
    asserted per outage window.
    """

    warm: ChaosResult
    cold: ChaosResult
    #: cross-run checks (warm-beats-cold per controller-outage window)
    cross_invariants: List[InvariantCheck] = field(default_factory=list)

    @property
    def all_invariants_hold(self) -> bool:
        return (
            self.warm.all_invariants_hold
            and self.cold.all_invariants_hold
            and all(c.passed for c in self.cross_invariants)
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "mode": "supervision",
            "warm": self.warm.to_dict(),
            "cold": self.cold.to_dict(),
            "cross_invariants": [_check_to_dict(c) for c in self.cross_invariants],
            "verdict": "PASS" if self.all_invariants_hold else "FAIL",
        }


def run_supervision_chaos(
    seed: int = 0,
    total_frames: int = 4000,
    controller_factory=None,
    controller_kill: Optional[tuple] = (60.0, 5.0),
    server_kill: Optional[tuple] = (90.0, 15.0),
    reboot: Optional[tuple] = (108.0, 4.0),
    resilience: Optional[ResilienceConfig] = None,
    settle_tolerance_fps: float = 1.0,
    warm_restart_windows: float = 3.0,
) -> SupervisionChaosResult:
    """Run the crash schedule twice (warm, then cold) and compare.

    Both runs share the seed, scenario and fault plan; only
    ``SupervisionConfig.checkpoint_enabled`` differs.  Per-run
    invariants assert the absolute bounds (warm re-settles within
    ``warm_restart_windows`` measure windows of the restart, cold
    within the re-convergence allowance); the cross-run ordering check
    then asserts warm is *strictly* faster for every outage window.
    """
    from repro.device.config import DeviceConfig
    from repro.experiments.standard import framefeedback_factory

    factory = (
        controller_factory if controller_factory is not None else framefeedback_factory()
    )
    base = Scenario(
        controller_factory=factory,
        device=DeviceConfig(total_frames=total_frames),
        seed=seed,
    )

    def one(checkpoint_enabled: bool) -> ChaosResult:
        return run_chaos(
            ChaosScenario(
                base=base,
                injectors=supervision_chaos_injectors(
                    controller_kill, server_kill, reboot
                ),
                resilience=resilience,
                supervision=SupervisionConfig(
                    checkpoint_enabled=checkpoint_enabled,
                    settle_tolerance_fps=settle_tolerance_fps,
                ),
                warm_restart_windows=warm_restart_windows,
            )
        )

    warm = one(True)
    cold = one(False)

    period = base.device.measure_period
    cross: List[InvariantCheck] = []
    for injector in supervision_chaos_injectors(controller_kill, server_kill, reboot):
        if not getattr(injector, "controller_outage", False):
            continue
        for w in injector.timeline:
            if w.end >= min(warm.run.elapsed, cold.run.elapsed):
                continue
            _, warm_periods = settle_periods_after_restart(
                warm.run.traces.offload_target,
                w.start,
                w.end,
                tolerance_fps=settle_tolerance_fps,
                control_period=period,
            )
            _, cold_periods = settle_periods_after_restart(
                cold.run.traces.offload_target,
                w.start,
                w.end,
                tolerance_fps=settle_tolerance_fps,
                control_period=period,
            )
            cross.append(
                restart_ordering_invariant(warm_periods, cold_periods, window=w)
            )
    return SupervisionChaosResult(warm=warm, cold=cold, cross_invariants=cross)
