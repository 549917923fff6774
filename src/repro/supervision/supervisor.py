"""The supervisor: watchdog, restart policy, degraded-telemetry control.

One :class:`Supervisor` watches one scenario runtime.  It is glued to
the testbed at three points:

* the device's ``on_measure_tick`` hook — every admitted measurement
  beats the controller's heartbeat and (when enabled) checkpoints the
  controller;
* a watchdog timer polling component liveness (measure loop, server
  service loop, camera) and telemetry freshness every
  ``watchdog_period`` seconds;
* restart entry points (:meth:`restart_controller`,
  :meth:`restart_server`, :meth:`restart_camera`) that the process-kill
  fault injectors call when their windows close, so downtime stays
  exactly as scripted and runs remain deterministic.

Degraded-telemetry policy (the paper has no story here; this is the
supervision layer's contribution): when the controller's telemetry
goes silent for more than ``stale_after_periods`` measure periods, the
supervisor first *holds the last action* for ``hold_periods`` — a
transient gap should not move the operating point — then decays the
splitter target multiplicatively (``decay_factor`` per period) toward
the paper's ``0.1·F_s`` standing probe.  Rationale: with no ``T``
signal the controller cannot distinguish a healthy path from a dead
one, and the standing probe is precisely the paper's own answer to
"offload blindly, but cheaply, so recovery is immediate" (§III).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.control.base import Controller, Measurement
from repro.device.device import EdgeDevice
from repro.server.server import EdgeServer
from repro.sim.core import Environment
from repro.sim.events import Event, EventPriority
from repro.supervision.checkpoint import CheckpointStore, ControllerCheckpoint

#: component keys used in stats tables
CONTROLLER = "controller"
SERVER = "server"
CAMERA = "camera"


@dataclass(frozen=True)
class SupervisionConfig:
    """Tuning knobs for one supervisor."""

    #: checkpoint every measure tick; False = restarts are always cold
    checkpoint_enabled: bool = True
    #: watchdog poll period, seconds
    watchdog_period: float = 0.5
    #: telemetry silence (in measure periods) before it counts as stale
    stale_after_periods: float = 3.0
    #: stale periods to hold the last action before decaying
    hold_periods: float = 2.0
    #: per-period multiplicative decay toward the standing probe
    decay_factor: float = 0.5
    #: standing-probe floor as a fraction of F_s (the paper's 0.1)
    probe_frac: float = 0.1
    #: |splitter target - pre-crash target| below which the controller
    #: counts as recovered (MTTR stops accruing)
    settle_tolerance_fps: float = 1.0

    def __post_init__(self) -> None:
        if self.watchdog_period <= 0:
            raise ValueError("watchdog period must be positive")
        if self.stale_after_periods <= 0 or self.hold_periods < 0:
            raise ValueError("staleness thresholds must be non-negative")
        if not 0.0 < self.decay_factor < 1.0:
            raise ValueError(
                f"decay factor must be in (0,1), got {self.decay_factor}"
            )
        if not 0.0 <= self.probe_frac <= 1.0:
            raise ValueError(f"probe fraction must be in [0,1], got {self.probe_frac}")
        if self.settle_tolerance_fps <= 0:
            raise ValueError("settle tolerance must be positive")


@dataclass
class SupervisionStats:
    """Counters a chaos run exports into the QoS summary."""

    crashes: Dict[str, int] = field(default_factory=dict)
    restarts: Dict[str, int] = field(default_factory=dict)
    warm_restarts: int = 0
    cold_restarts: int = 0
    #: measure windows that never delivered telemetry during stale
    #: episodes (beyond the detection threshold itself)
    missed_windows: int = 0
    #: stale episodes detected (one per silence, however long)
    stale_detections: int = 0
    #: decay actuations applied by the degraded-telemetry policy
    decay_steps: int = 0
    checkpoints_saved: int = 0
    #: detection-to-recovery seconds per component; for the controller,
    #: recovery means the splitter target re-settled within the
    #: configured tolerance of its pre-crash value
    mttr: Dict[str, List[float]] = field(default_factory=dict)

    def _bump(self, table: Dict[str, int], component: str) -> None:
        table[component] = table.get(component, 0) + 1

    def record_mttr(self, component: str, seconds: float) -> None:
        self.mttr.setdefault(component, []).append(seconds)

    # ------------------------------------------------------------------
    def as_extras(self) -> Dict[str, float]:
        """Flat float map merged into ``QosReport.extras``."""
        samples = [s for values in self.mttr.values() for s in values]
        extras = {
            "supervision.crashes": float(sum(self.crashes.values())),
            "supervision.restarts": float(sum(self.restarts.values())),
            "supervision.warm_restarts": float(self.warm_restarts),
            "supervision.cold_restarts": float(self.cold_restarts),
            "supervision.missed_windows": float(self.missed_windows),
            "supervision.stale_detections": float(self.stale_detections),
            "supervision.decay_steps": float(self.decay_steps),
            "supervision.checkpoints_saved": float(self.checkpoints_saved),
        }
        if samples:
            extras["supervision.mttr_mean"] = sum(samples) / len(samples)
            extras["supervision.mttr_max"] = max(samples)
        for component, values in self.mttr.items():
            if values:
                extras[f"supervision.mttr.{component}"] = sum(values) / len(values)
        return extras

    def as_dict(self) -> dict:
        """JSON-able structured form (chaos ``--json`` output)."""
        return {
            "crashes": dict(self.crashes),
            "restarts": dict(self.restarts),
            "warm_restarts": self.warm_restarts,
            "cold_restarts": self.cold_restarts,
            "missed_windows": self.missed_windows,
            "stale_detections": self.stale_detections,
            "decay_steps": self.decay_steps,
            "checkpoints_saved": self.checkpoints_saved,
            "mttr": {k: list(v) for k, v in self.mttr.items()},
        }


class Supervisor:
    """Heartbeats + watchdog + checkpoint/restore for one runtime."""

    #: kernel-stats owner of the watchdog timers
    event_owner = "supervisor:watchdog"

    def __init__(
        self,
        env: Environment,
        device: EdgeDevice,
        server: EdgeServer,
        config: Optional[SupervisionConfig] = None,
        controller: Optional[Controller] = None,
    ) -> None:
        from repro.supervision.heartbeat import Heartbeat

        self.env = env
        self.device = device
        self.server = server
        self.config = config or SupervisionConfig()
        #: the *real* controller (pass it explicitly when the device
        #: core's ``controller`` is wrapped, e.g. for transcripts —
        #: checkpoints must capture the inner state machine)
        self.controller = controller if controller is not None else device.core.controller
        self.store = CheckpointStore()
        self.stats = SupervisionStats()
        period = device.config.measure_period
        self.heartbeats: Dict[str, Heartbeat] = {
            CONTROLLER: Heartbeat(CONTROLLER, period),
            SERVER: Heartbeat(SERVER, self.config.watchdog_period),
            CAMERA: Heartbeat(CAMERA, self.config.watchdog_period),
        }
        #: detection time per currently-down component
        self._down_since: Dict[str, float] = {}
        self._pre_crash_target: Optional[float] = None
        # per-stale-episode actuation state
        self._stale_active = False
        self._episode_missed = 0
        self._episode_decays = 0
        device.on_measure_tick = self._on_measure_tick
        env.call_at(env.now, self._watchdog_arm, priority=EventPriority.URGENT)

    # ------------------------------------------------------------------
    # measure-tick hook: heartbeat + checkpoint + recovery bookkeeping
    # ------------------------------------------------------------------
    def _on_measure_tick(self, measurement: Measurement) -> None:
        now = self.env.now
        self.heartbeats[CONTROLLER].beat(now)
        self._stale_active = False
        self._episode_missed = 0
        self._episode_decays = 0

        down_at = self._down_since.get(CONTROLLER)
        if down_at is not None:
            # One-sided on purpose: at or above the pre-crash operating
            # point counts as recovered (a restart landing mid-climb
            # legitimately keeps climbing past the transient pre value).
            pre = self._pre_crash_target
            settled = (
                pre is None
                or self.device.splitter.target
                >= pre - self.config.settle_tolerance_fps
            )
            if settled:
                self.stats.record_mttr(CONTROLLER, now - down_at)
                del self._down_since[CONTROLLER]
                self._pre_crash_target = None

        if self.config.checkpoint_enabled:
            state = self.controller.snapshot_state()
            if state is not None:
                breaker = None
                if self.device.resilience is not None:
                    breaker = self.device.resilience.breaker.snapshot()
                self.store.save(
                    ControllerCheckpoint(
                        time=now,
                        target=self.device.splitter.target,
                        controller_state=state,
                        breaker_state=breaker,
                    )
                )
                self.stats.checkpoints_saved += 1

    # ------------------------------------------------------------------
    # watchdog: liveness + telemetry freshness
    # ------------------------------------------------------------------
    def _watchdog_arm(self, _event: Optional[Event] = None) -> None:
        self.env.call_later(self.config.watchdog_period, self._watchdog_tick)

    def _watchdog_tick(self, _event: Event) -> None:
        self._watchdog_check()
        self._watchdog_arm()

    def _watchdog_check(self) -> None:
        env = self.env
        cfg = self.config
        period = self.device.config.measure_period
        now = env.now

        # -- liveness ------------------------------------------------
        if not self.device.measure_alive:
            self._note_crash(CONTROLLER, now)
        if self.server.service_alive:
            self.heartbeats[SERVER].beat(now)
            self._note_recovered(SERVER, now)
        else:
            self._note_crash(SERVER, now)
        source = self.device.source
        if source.alive or source.done.triggered:
            self.heartbeats[CAMERA].beat(now)
            self._note_recovered(CAMERA, now)
        else:
            self._note_crash(CAMERA, now)

        # -- telemetry freshness ------------------------------------
        hb = self.heartbeats[CONTROLLER]
        if not hb.is_stale(now, cfg.stale_after_periods):
            return
        if not self._stale_active:
            self._stale_active = True
            self.stats.stale_detections += 1
        # Windows that were due but never closed, beyond the
        # detection threshold, counted incrementally as silence
        # stretches (the QoS "missed windows" figure).
        periods_silent = int(hb.age(now) / period)
        missed = max(0, periods_silent - int(cfg.stale_after_periods) + 1)
        if missed > self._episode_missed:
            self.stats.missed_windows += missed - self._episode_missed
            self._episode_missed = missed
        # Hold-then-decay: leave the last action alone for
        # hold_periods after detection, then step the splitter
        # toward the standing probe once per silent period.
        decay_due = max(
            0,
            periods_silent
            - int(cfg.stale_after_periods)
            - int(cfg.hold_periods),
        )
        while self._episode_decays < decay_due:
            self._episode_decays += 1
            self._decay_step(now)

    def _decay_step(self, now: float) -> None:
        device = self.device
        probe = self.config.probe_frac * device.config.frame_rate
        current = device.splitter.target
        decayed = probe + self.config.decay_factor * (current - probe)
        if abs(decayed - probe) < 1e-9:
            decayed = probe
        device.splitter.set_target(decayed)
        device.traces.offload_target.append(now, decayed)
        self.stats.decay_steps += 1
        if self.env.tracer is not None:
            self.env.tracer.event(now, "supervision.decay", target=float(decayed))

    # ------------------------------------------------------------------
    def _note_crash(self, component: str, now: float) -> None:
        if component in self._down_since:
            return
        self._down_since[component] = now
        self.stats._bump(self.stats.crashes, component)
        if self.env.tracer is not None:
            self.env.tracer.event(now, "supervision.crash", component=component)
        if component == CONTROLLER:
            # what "recovered" must re-settle to (captured before any
            # decay steps move the splitter)
            self._pre_crash_target = self.device.splitter.target

    def _note_recovered(self, component: str, now: float) -> None:
        """Liveness-based recovery (server / camera)."""
        down_at = self._down_since.pop(component, None)
        if down_at is not None:
            self.stats.record_mttr(component, now - down_at)

    # ------------------------------------------------------------------
    # restart entry points (called by injectors / operators)
    # ------------------------------------------------------------------
    def restart_controller(self, warm: Optional[bool] = None) -> bool:
        """Bring a killed control loop back up.

        ``warm=None`` follows the config (checkpointing on => warm).
        A warm restart restores the controller, splitter target and
        breaker from the latest checkpoint; a cold restart loses all
        of it — ``reset()`` + ``initial_target`` + a fresh breaker —
        and re-converges from scratch, exactly the behaviour the
        checkpoint exists to avoid.  Returns False when the loop was
        not down (nothing to do).
        """
        device = self.device
        if device.measure_alive:
            return False
        cfg = self.config
        if warm is None:
            warm = cfg.checkpoint_enabled
        now = self.env.now
        controller = self.controller
        # The crash lost the in-memory state either way; a warm restart
        # differs only in what it reloads afterwards.
        controller.reset()
        checkpoint = self.store.latest if warm else None
        if checkpoint is not None:
            controller.restore_state(checkpoint.controller_state)
            device.splitter.set_target(checkpoint.target)
            if device.resilience is not None and checkpoint.breaker_state is not None:
                device.resilience.breaker.restore(checkpoint.breaker_state, now)
            self.stats.warm_restarts += 1
        else:
            device.splitter.set_target(
                controller.initial_target(device.config.frame_rate)
            )
            if device.resilience is not None:
                breaker = device.resilience.breaker
                breaker.restore(
                    {
                        "state": "closed",
                        "current_backoff": breaker.config.backoff_initial,
                        "consecutive_failures": 0,
                        "probe_successes": 0,
                    },
                    now,
                )
            self.stats.cold_restarts += 1
        device.restart_measure_loop()
        # Re-arm the freshness clock: the loop just came back, so give
        # it a full staleness allowance before the decay policy may act
        # again — otherwise the watchdog would decay the just-restored
        # target before the first post-restart measure tick lands.
        self.heartbeats[CONTROLLER].beat(now)
        self._stale_active = False
        self._episode_missed = 0
        self._episode_decays = 0
        self.stats._bump(self.stats.restarts, CONTROLLER)
        if self.env.tracer is not None:
            self.env.tracer.event(
                now, "supervision.restart", component=CONTROLLER, warm=bool(warm)
            )
        return True

    def restart_server(self) -> bool:
        if self.server.service_alive:
            return False
        self.server.restart()
        self.stats._bump(self.stats.restarts, SERVER)
        if self.env.tracer is not None:
            self.env.tracer.event(
                self.env.now, "supervision.restart", component=SERVER
            )
        return True

    def restart_camera(self) -> bool:
        source = self.device.source
        if source.alive or source.done.triggered:
            return False
        source.restart()
        self.stats._bump(self.stats.restarts, CAMERA)
        if self.env.tracer is not None:
            self.env.tracer.event(
                self.env.now, "supervision.restart", component=CAMERA
            )
        return True
