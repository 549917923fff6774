"""Process-crash injectors: kill and restart the testbed's loops mid-run.

Where the PR-1 injectors degrade the *substrate* (link conditions, GPU
speed, sensor cadence), these kill the *components* the testbed is made
of: the device's measurement/control loop, the server's service loop,
or the whole device.  Each window is ``[crash, restart)`` — the
component is killed at the window's start and brought back at its end,
so downtime is exactly as scripted and runs stay deterministic.

Restarts route through :attr:`FaultTargets.supervisor` when one is
attached: the supervisor decides warm vs cold (checkpoint restore vs
``reset()``), and its MTTR/restart counters see the event.  Without a
supervisor the component is restarted in place with whatever state the
in-memory object still holds — a "hot" restart that loses nothing,
which is precisely the unrealistic baseline the supervision layer
replaces (a real crashed process does not keep its heap).
"""

from __future__ import annotations

from typing import Optional

from repro.faults.base import FaultInjector, FaultTargets, resolve_server
from repro.faults.windows import FaultTimeline
from repro.sim.core import Environment

#: restart policies a ControllerKill window may request
RESTART_MODES = ("supervised", "warm", "cold", "none")


class ControllerKill(FaultInjector):
    """Kill the device's measurement/control loop for each window.

    While dead, the data path keeps running at the last splitter
    target (a frozen actuator), no buckets close, and telemetry goes
    silent — the supervisor's staleness policy takes over.  At the
    window's end the loop is restarted per ``restart``:

    * ``"supervised"`` — defer to the supervisor's config (warm when
      checkpointing is enabled, else cold);
    * ``"warm"`` / ``"cold"`` — force the mode (requires a supervisor);
    * ``"none"`` — stay dead (measure the unsupervised blackout).
    """

    layer = "device"
    resource = "device.controller"
    #: chaos runners key restart-settle invariants off this marker
    controller_outage = True

    def __init__(
        self,
        timeline: FaultTimeline,
        restart: str = "supervised",
        name: Optional[str] = None,
    ) -> None:
        if restart not in RESTART_MODES:
            raise ValueError(
                f"restart must be one of {RESTART_MODES}, got {restart!r}"
            )
        super().__init__(timeline, name)
        self.restart = restart

    def bind(self, env: Environment, targets: FaultTargets) -> None:
        targets.require("device", self.name)
        if self.restart in ("warm", "cold") and targets.supervisor is None:
            raise ValueError(
                f"{self.name}: restart={self.restart!r} needs a supervisor "
                "(attach one, or use 'supervised'/'none')"
            )

    def on_enter(self, env: Environment, targets: FaultTargets, window) -> None:
        targets.require("device", self.name).crash_measure_loop()

    def on_exit(self, env: Environment, targets: FaultTargets, window) -> None:
        if self.restart == "none":
            return
        supervisor = targets.supervisor
        if supervisor is not None:
            warm = None if self.restart == "supervised" else (self.restart == "warm")
            supervisor.restart_controller(warm=warm)
        else:
            targets.require("device", self.name).restart_measure_loop()


class ServerKill(FaultInjector):
    """Crash the server, losing its queue and its GPU batch, per window.

    Harsher than :class:`~repro.faults.server.ServerCrash` (a stall):
    queued and in-flight requests are dropped unanswered and arrivals
    during the window land on a dead host.  Devices observe pure
    silence — every offload burns its full deadline — so the standing
    probe and re-convergence invariants apply to these windows.
    Shares ``server.loop`` with ``ServerCrash``: the two cannot overlap.

    With ``server=<name>`` the kill targets one member of a fleet pool:
    the resource becomes ``server.loop:<name>`` (kills of *different*
    members may overlap), ``total_failure`` drops to False (the fleet
    still serves — the blackout invariants don't apply), and the
    kill/restart route through the pool so the member is ejected (which
    triggers the in-flight failover sweep) and re-admitted after
    probation.  An unnamed kill on a fleet scenario hits the pool's
    first member.
    """

    layer = "server"
    resource = "server.loop"
    total_failure = True

    def __init__(
        self,
        timeline: FaultTimeline,
        server: Optional[str] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(timeline, name)
        self.server = server
        if server is not None:
            self.resource = f"server.loop:{server}"
            self.total_failure = False

    def bind(self, env: Environment, targets: FaultTargets) -> None:
        resolve_server(targets, self.server, self.name)

    def on_enter(self, env: Environment, targets: FaultTargets, window) -> None:
        pool = targets.pool
        if pool is not None:
            pool.kill(self.server or pool.servers[0].name)
        else:
            targets.require("server", self.name).crash()

    def on_exit(self, env: Environment, targets: FaultTargets, window) -> None:
        pool = targets.pool
        if pool is not None:
            pool.restart(self.server or pool.servers[0].name)
            return
        supervisor = targets.supervisor
        if supervisor is not None:
            supervisor.restart_server()
        else:
            targets.require("server", self.name).restart()


class DeviceReboot(FaultInjector):
    """Reboot the whole device: camera, control loop, in-flight frames.

    The camera and measurement loop are killed and every outstanding
    offload is aborted (the offload client's deadline and hedge timers
    are cancelled — a rebooted device has no one waiting for those
    responses, and they must count as neither success nor timeout).
    On exit the camera resumes the stream where it stopped and the
    controller restarts per the supervisor's policy.

    Claims the ``device.controller`` resource (the invariant-bearing
    one), so it cannot overlap :class:`ControllerKill`; plan validation
    does not see its camera side — avoid overlapping a camera-resource
    injector with a reboot window.
    """

    layer = "device"
    resource = "device.controller"
    controller_outage = True

    def bind(self, env: Environment, targets: FaultTargets) -> None:
        targets.require("device", self.name)

    def on_enter(self, env: Environment, targets: FaultTargets, window) -> None:
        device = targets.require("device", self.name)
        device.source.crash()
        device.crash_measure_loop()
        device.offload.abort_inflight()

    def on_exit(self, env: Environment, targets: FaultTargets, window) -> None:
        device = targets.require("device", self.name)
        supervisor = targets.supervisor
        if supervisor is not None:
            supervisor.restart_camera()
            supervisor.restart_controller()
        else:
            device.source.restart()
            device.restart_measure_loop()
