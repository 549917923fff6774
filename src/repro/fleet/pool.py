"""`ServerPool`: N `EdgeServer` instances plus an active health-check prober.

The pool owns the ejection lifecycle::

    healthy --(crash / stale heartbeat / N consecutive failures)--> ejected
    ejected --(alive again for a full probation window)----------> healthy

Ejected servers are invisible to the :class:`~repro.fleet.router.Router`;
listeners subscribed via :meth:`subscribe_down` (the device's offload
client) are told the instant a server leaves the routing set so they can
fail over in-flight frames.  With ``config.failover`` False the whole
recovery tier is inert — no ejections, no notifications — which is the
ablation baseline for the failover-beats-none invariant.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.sim.events import Event, EventPriority

from .config import FleetConfig
from .health import ServerHealth

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.server.server import EdgeServer
    from repro.sim import Environment


class ServerPool:
    """Host N servers in one environment and track their health."""

    #: kernel-stats owner of the prober's timers
    event_owner = "fleet:prober"

    def __init__(
        self,
        env: "Environment",
        servers: Sequence["EdgeServer"],
        config: Optional[FleetConfig] = None,
    ) -> None:
        if not servers:
            raise ValueError("ServerPool needs at least one server")
        names = [s.name for s in servers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate server names in pool: {names}")
        self.env = env
        self.config = config or FleetConfig()
        self.servers: List["EdgeServer"] = list(servers)
        self.by_name: Dict[str, "EdgeServer"] = {s.name: s for s in servers}
        self.health: Dict[str, ServerHealth] = {
            s.name: ServerHealth(s.name, i, self.config)
            for i, s in enumerate(servers)
        }
        self.mttr_samples: List[float] = []
        self._down_listeners: List[Callable[[str], None]] = []
        # routable members in topology order, rebuilt on every ejection/
        # re-admission so the per-attempt route() never re-filters
        self._healthy: List["EdgeServer"] = list(servers)
        env.call_at(env.now, self._probe_arm, priority=EventPriority.URGENT)

    # ------------------------------------------------------------------
    # membership

    def subscribe_down(self, callback: Callable[[str], None]) -> None:
        """Register a callback fired (with the server name) on ejection."""
        self._down_listeners.append(callback)

    def healthy(self) -> List["EdgeServer"]:
        """Routable servers, in topology order (cached; do not mutate)."""
        return self._healthy

    @property
    def all_ejected(self) -> bool:
        """Fleet-wide brownout: nothing left to route to."""
        return all(h.ejected for h in self.health.values())

    # ------------------------------------------------------------------
    # lifecycle transitions

    def kill(self, name: str) -> int:
        """Crash a member (ServerKill hook) and eject it immediately."""
        dropped = self.by_name[name].crash()
        self.mark_down(name)
        return dropped

    def restart(self, name: str) -> None:
        """Respawn a crashed member; re-admission waits out probation."""
        self.by_name[name].restart()

    def mark_down(self, name: str) -> None:
        """Eject ``name`` from the routing set and notify listeners.

        No-op when the recovery tier is disabled or the server is
        already out — ejection is idempotent, so data-path failures
        racing the prober cannot double-fire the failover sweep.
        """
        if not self.config.failover:
            return
        health = self.health[name]
        if health.ejected:
            return
        health.ejected = True
        health.ejected_at = self.env.now
        health.healthy_since = None
        health.ejections += 1
        self._rebuild_healthy()
        tracer = getattr(self.env, "tracer", None)
        if tracer is not None:
            tracer.event(self.env.now, "fleet.eject", server=name)
        for callback in list(self._down_listeners):
            callback(name)

    def record_result(self, name: str, ok: bool, rtt: Optional[float] = None) -> None:
        """Fold one data-path outcome into a member's health ledger."""
        health = self.health[name]
        if ok:
            health.consecutive_failures = 0
            health.successes += 1
            if rtt is not None:
                health.observe_rtt(rtt)
            return
        health.failures += 1
        health.consecutive_failures += 1
        if health.consecutive_failures >= self.config.fail_threshold:
            self.mark_down(name)

    # ------------------------------------------------------------------
    # prober

    def _probe_arm(self, _event: Optional[Event] = None) -> None:
        self.env.call_later(self.config.probe_period, self._probe_tick)

    def _probe_tick(self, _event: Event) -> None:
        cfg = self.config
        now = self.env.now
        for server in self.servers:
            health = self.health[server.name]
            alive = server.service_alive and not server.paused
            if alive:
                health.heartbeat.beat(now)
            if not cfg.failover:
                continue
            if not health.ejected:
                # catches pause-style crashes (ServerCrash) that
                # never crash the server: the heartbeat goes stale
                if health.heartbeat.is_stale(now, cfg.stale_grace_periods):
                    self.mark_down(server.name)
                continue
            if not alive:
                health.healthy_since = None
                continue
            if health.healthy_since is None:
                health.healthy_since = now
            if now - health.healthy_since >= cfg.probation:
                self._readmit(health, now)
        self._probe_arm()

    def _readmit(self, health: ServerHealth, now: float) -> None:
        health.ejected = False
        health.readmissions += 1
        health.consecutive_failures = 0
        self._rebuild_healthy()
        if health.ejected_at is not None:
            self.mttr_samples.append(now - health.ejected_at)
        health.ejected_at = None
        health.healthy_since = None
        tracer = getattr(self.env, "tracer", None)
        if tracer is not None:
            tracer.event(now, "fleet.readmit", server=health.name)

    def _rebuild_healthy(self) -> None:
        self._healthy = [
            s for s in self.servers if not self.health[s.name].ejected
        ]

    # ------------------------------------------------------------------
    # reporting

    def extras(self) -> Dict[str, float]:
        """Per-server counters plus fleet MTTR, for QoS extras."""
        out: Dict[str, float] = {}
        for server in self.servers:
            out.update(self.health[server.name].extras())
        if self.mttr_samples:
            out["fleet.mttr_mean"] = sum(self.mttr_samples) / len(self.mttr_samples)
        else:
            out["fleet.mttr_mean"] = 0.0
        out["fleet.mttr_count"] = float(len(self.mttr_samples))
        return out
