"""Injector interface: one fault mechanism driven over a timeline.

Every injector names the substrate ``layer`` it attacks (link, server,
device) and the exclusive ``resource`` it mutates.  Two injectors may
overlap in time freely *unless* they share a resource — two things
cannot rewrite the same knob at once — which :func:`validate_plan`
enforces before a chaos run starts.

Installation goes through :class:`FaultTargets`, the bag of substrate
handles a :class:`~repro.experiments.scenario.ScenarioRuntime` exposes;
each injector picks the handles it needs and raises early when its
target is missing.  All stochastic choices draw from ``targets.rng``
(the registry's ``"faults"`` stream) so chaos runs stay bit-reproducible.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.faults.windows import FaultOverlapError, FaultTimeline
from repro.sim.core import Environment
from repro.sim.events import Event, EventPriority

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.device.device import EdgeDevice
    from repro.fleet.pool import ServerPool
    from repro.netem.link import ConditionBox
    from repro.server.server import EdgeServer
    from repro.supervision.supervisor import Supervisor


@dataclass
class FaultTargets:
    """Substrate handles an injector may attack (any may be absent)."""

    box: "Optional[ConditionBox]" = None
    server: "Optional[EdgeServer]" = None
    device: "Optional[EdgeDevice]" = None
    rng: Optional[np.random.Generator] = None
    #: supervision layer, when attached — process-kill injectors route
    #: their restarts through it so warm/cold policy and MTTR counters
    #: live in one place
    supervisor: "Optional[Supervisor]" = None
    #: fleet tier, when the scenario has a multi-server topology —
    #: server-layer injectors resolve named targets through it and
    #: route kill/restart through its ejection lifecycle
    pool: "Optional[ServerPool]" = None

    def require(self, attr: str, who: str):
        value = getattr(self, attr)
        if value is None:
            raise ValueError(f"{who} needs a {attr!r} target, none was provided")
        return value


def resolve_server(targets: FaultTargets, server_name: Optional[str], who: str):
    """Look up an injector's server target, by name when given.

    A named target requires a fleet pool and must be a member of it;
    the error lists the valid names (mirroring the config layer's
    unknown-key style).  Unnamed targets fall back to the pool's first
    member, then to the classic single ``targets.server`` handle.
    """
    if server_name is None:
        if targets.pool is not None:
            return targets.pool.servers[0]
        return targets.require("server", who)
    pool = targets.require("pool", who)
    server = pool.by_name.get(server_name)
    if server is None:
        raise ValueError(
            f"{who}: unknown server {server_name!r}; "
            f"valid servers: {sorted(pool.by_name)}"
        )
    return server


class FaultInjector(abc.ABC):
    """One fault mechanism applied over a :class:`FaultTimeline`."""

    #: substrate layer, for reports ("link" | "server" | "device")
    layer: str = "?"
    #: exclusive knob this injector rewrites; two installed injectors
    #: sharing a resource must not overlap in time
    resource: str = "?"
    #: True when an active window makes *every* offload fail — the
    #: windows the recovery invariants (standing probe, re-convergence)
    #: are asserted against
    total_failure: bool = False

    def __init__(self, timeline: FaultTimeline, name: Optional[str] = None) -> None:
        self.timeline = timeline
        self.name = name or type(self).__name__

    # ------------------------------------------------------------------
    def active_at(self, t: float) -> bool:
        return self.timeline.active_at(t)

    def install(self, env: Environment, targets: FaultTargets) -> None:
        """Start the timers applying this injector's windows.

        Windows already in the past at install time are skipped; a
        window straddling ``env.now`` runs for its remaining duration.
        """
        self.bind(env, targets)
        _WindowDriver(self, env, targets, self.timeline.clipped_from(env.now))

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def bind(self, env: Environment, targets: FaultTargets) -> None:
        """Validate targets / subscribe listeners before the run starts."""

    @abc.abstractmethod
    def on_enter(self, env: Environment, targets: FaultTargets, window) -> None:
        """Engage the fault at the window's start instant."""

    @abc.abstractmethod
    def on_exit(self, env: Environment, targets: FaultTargets, window) -> None:
        """Heal the fault at the window's end instant."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.timeline!r})"


def validate_plan(injectors: Sequence[FaultInjector]) -> None:
    """Reject plans where same-resource injectors overlap in time."""
    for i, a in enumerate(injectors):
        for b in injectors[i + 1 :]:
            if a.resource != b.resource:
                continue
            if a.timeline.overlaps_timeline(b.timeline):
                raise FaultOverlapError(
                    f"{a.name} and {b.name} both drive resource "
                    f"{a.resource!r} over overlapping windows"
                )


class _WindowDriver:
    """Enters and leaves one injector's windows on kernel timers.

    One window is pending at a time: its enter timer, then its exit
    timer, whose callback moves on to the next window.
    """

    def __init__(
        self,
        injector: FaultInjector,
        env: Environment,
        targets: FaultTargets,
        windows: Sequence,
    ) -> None:
        self.injector = injector
        self.env = env
        self.targets = targets
        self.windows = iter(windows)
        self.window = None
        #: kernel-stats owner of the window timers
        self.event_owner = f"fault:{injector.name}"
        env.call_at(env.now, self._next, priority=EventPriority.URGENT)

    def _next(self, _event: Optional[Event] = None) -> None:
        self.window = window = next(self.windows, None)
        if window is None:
            return
        env = self.env
        if window.start > env.now:
            env.call_later(window.start - env.now, self._enter)
        else:
            self._enter()

    def _enter(self, _event: Optional[Event] = None) -> None:
        env = self.env
        self.injector.on_enter(env, self.targets, self.window)
        env.call_later(self.window.end - env.now, self._leave)

    def _leave(self, _event: Event) -> None:
        self.injector.on_exit(self.env, self.targets, self.window)
        self._next()
