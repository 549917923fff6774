"""Server-layer injectors: crash/stall, slowdown, GPU contention.

:class:`ServerCrash` is §II-A.3's blunt form (the service loop stops
draining; arrivals pile up and get rejected on resume).
:class:`ServerSlowdown` and :class:`GpuContention` are the graded
forms from the Cotter et al. accuracy-vs-performance axis: the GPU
still answers, just late — which is what actually produces
deadline-*constrained* degradation rather than a clean blackout.

The legacy :class:`OutageSchedule` API lives here too (re-exported
from :mod:`repro.workloads` for backward compatibility), now with
mid-simulation installation fixed: windows already in the past
are skipped and a straddling window pauses only for its remainder.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.faults.base import FaultInjector, FaultTargets, resolve_server
from repro.faults.windows import FaultTimeline, FaultWindow
from repro.server.server import EdgeServer
from repro.sim.core import Environment

#: back-compat alias: an outage window is just a fault window
OutageWindow = FaultWindow


class ServerCrash(FaultInjector):
    """Stall the server's service loop for each window (blackout).

    With ``server=<name>`` the stall targets one member of a fleet
    pool (resource ``server.loop:<name>``; no longer a total failure —
    the rest of the fleet keeps serving).  The pool's prober notices
    the stalled heartbeat and ejects the member.
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
        server = resolve_server(targets, self.server, self.name)
        server.pause(window.end - env.now)

    def on_exit(self, env: Environment, targets: FaultTargets, window) -> None:
        pass  # pause() already encoded the resume instant


class ServerSlowdown(FaultInjector):
    """Multiply GPU batch latency by a fixed factor during windows.

    Models a driver regression, thermal throttling, or a co-scheduled
    job stealing SM time: requests still complete, but late enough that
    a fraction miss the 250 ms deadline.
    """

    layer = "server"
    resource = "server.gpu"

    def __init__(
        self,
        timeline: FaultTimeline,
        factor: float = 4.0,
        server: Optional[str] = None,
        name: Optional[str] = None,
    ) -> None:
        if factor <= 1.0:
            raise ValueError(f"slowdown factor must be > 1, got {factor}")
        super().__init__(timeline, name)
        self.factor = factor
        self.server = server
        if server is not None:
            self.resource = f"server.gpu:{server}"

    def bind(self, env: Environment, targets: FaultTargets) -> None:
        resolve_server(targets, self.server, self.name)

    def on_enter(self, env: Environment, targets: FaultTargets, window) -> None:
        server: EdgeServer = resolve_server(targets, self.server, self.name)
        server.gpu.set_slowdown(self.factor)

    def on_exit(self, env: Environment, targets: FaultTargets, window) -> None:
        server: EdgeServer = resolve_server(targets, self.server, self.name)
        server.gpu.set_slowdown(1.0)


class GpuContention(FaultInjector):
    """Stochastic GPU slowdown spikes: a noisy co-tenant.

    Each window draws its own contention factor from ``targets.rng``
    (lognormal around ``mean_factor``), so spike severity varies across
    windows yet is bit-reproducible under the run's seed.
    """

    layer = "server"
    resource = "server.gpu"

    def __init__(
        self,
        timeline: FaultTimeline,
        mean_factor: float = 3.0,
        sigma: float = 0.25,
        server: Optional[str] = None,
        name: Optional[str] = None,
    ) -> None:
        if mean_factor <= 1.0:
            raise ValueError(f"mean contention factor must be > 1, got {mean_factor}")
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        super().__init__(timeline, name)
        self.mean_factor = mean_factor
        self.sigma = sigma
        self.server = server
        if server is not None:
            self.resource = f"server.gpu:{server}"

    def bind(self, env: Environment, targets: FaultTargets) -> None:
        resolve_server(targets, self.server, self.name)
        targets.require("rng", self.name)

    def _draw_factor(self, targets: FaultTargets) -> float:
        rng = targets.require("rng", self.name)
        if self.sigma <= 0:
            return self.mean_factor
        jitter = float(
            rng.lognormal(mean=-0.5 * self.sigma * self.sigma, sigma=self.sigma)
        )
        return max(1.0 + 1e-9, self.mean_factor * jitter)

    def on_enter(self, env: Environment, targets: FaultTargets, window) -> None:
        server: EdgeServer = resolve_server(targets, self.server, self.name)
        server.gpu.set_slowdown(self._draw_factor(targets))

    def on_exit(self, env: Environment, targets: FaultTargets, window) -> None:
        server: EdgeServer = resolve_server(targets, self.server, self.name)
        server.gpu.set_slowdown(1.0)


class OutageSchedule:
    """A set of non-overlapping outage windows applied to a server.

    The original (pre-``repro.faults``) fault API, kept because tests,
    examples and downstream scripts build on it.  Internally it is a
    :class:`ServerCrash` over a :class:`FaultTimeline`.
    """

    def __init__(self, windows: Sequence[FaultWindow]) -> None:
        self._timeline = FaultTimeline(windows)

    @classmethod
    def from_rows(cls, rows: Sequence[Tuple[float, float]]) -> "OutageSchedule":
        """Build from ``(start, duration)`` pairs."""
        return cls([FaultWindow(float(s), float(d)) for s, d in rows])

    @property
    def windows(self):
        return self._timeline.windows

    def is_down(self, t: float) -> bool:
        return self._timeline.active_at(t)

    @property
    def total_downtime(self) -> float:
        return self._timeline.total_active

    def install(self, env: Environment, server: EdgeServer) -> None:
        """Apply the windows to ``server`` inside ``env``.

        Safe to call mid-simulation: windows whose end already passed
        are skipped, and a window straddling ``env.now`` pauses the
        server only for its remaining duration (the old behaviour
        paused immediately for each stale window's *full* length).
        """
        crash = ServerCrash(self._timeline, name="outage-schedule")
        crash.install(env, FaultTargets(server=server))
