"""Wall-clock chaos: the simulator's fault algebra on a real gateway.

The simulator expresses chaos as declarative fault timelines
(:mod:`repro.faults`, spec'd via :mod:`repro.search.language`).  This
module replays the *same* ``ScenarioSpec`` fault blocks against a live
:class:`~repro.realtime.gateway.InferenceGateway` over real sockets:

=====================  ==============================================
spec fault kind        wall-clock action
=====================  ==============================================
``server_crash``       kill the gateway (connections reset), restart
``server_kill``        at the window end on the *same* port
``server_slowdown``    ``slowdown_factor = factor`` on the GPU model
``gpu_contention``     ``slowdown_factor = mean_factor`` (the mean of
                       the sim's lognormal contention)
``latency_spike``      ``extra_latency = extra_delay`` per batch
``burst_loss``         ``reset_fraction = loss`` (deterministic share
                       of new connections reset on arrival)
``bandwidth_collapse`` ``read_stall = (factor - 1) * STALL_UNIT`` — a
                       byte-level read stall approximating the
                       shrunken uplink
=====================  ==============================================

Kinds with no wall-clock analogue (``camera_stall``, ``cpu_throttle``,
``controller_kill``, ``device_reboot`` — they fault the *device*, and
here the device is the load generator itself) raise
:class:`~repro.search.language.SpecError` up front, honouring the
language's no-silent-drop rule.

:func:`run_realtime_chaos` drives a seeded load burst through the
faulted gateway and judges the run with the same
:class:`~repro.faults.invariants.InvariantCheck` rows the simulator's
chaos harness emits: the breaker must open during a kill, local
fallback must be served while it is open, it must re-close after the
restart, completions must resume, and accounting must be closed on
both sides of the wire.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.invariants import InvariantCheck
from repro.faults.windows import FaultTimeline, FaultWindow
from repro.realtime.client import FrameOutcome, ResilientSocketRemote
from repro.realtime.gateway import GatewayConfig, GatewayStats, InferenceGateway
from repro.realtime.loadgen import LoadgenConfig, LoadgenReport, run_loadgen
from repro.resilience.config import ResilienceConfig
from repro.search.language import ScenarioSpec, SpecError

#: seconds of read stall per unit of lost bandwidth factor (the sim's
#: bandwidth term scaled to a per-request localhost stall)
STALL_UNIT = 0.01

#: fault kinds lowered to a kill/restart of the gateway process
KILL_KINDS = frozenset({"server_crash", "server_kill"})

#: fault kinds lowered to a gateway chaos knob: kind -> (knob, lower)
#: where ``lower(entry)`` maps spec parameters to the knob's on-value
KNOB_KINDS: Dict[str, Tuple[str, Any]] = {
    "server_slowdown": ("slowdown_factor", lambda e: float(e.get("factor", 3.0))),
    "gpu_contention": (
        "slowdown_factor",
        lambda e: float(e.get("mean_factor", 2.0)),
    ),
    "latency_spike": ("extra_latency", lambda e: float(e.get("extra_delay", 0.08))),
    "burst_loss": ("reset_fraction", lambda e: float(e.get("loss", 0.3))),
    "bandwidth_collapse": (
        "read_stall",
        lambda e: max(0.0, (float(e.get("factor", 8.0)) - 1.0) * STALL_UNIT),
    ),
}

#: knob name -> healthy value restored when a window closes
KNOB_DEFAULTS: Dict[str, float] = {
    "slowdown_factor": 1.0,
    "extra_latency": 0.0,
    "read_stall": 0.0,
    "reset_fraction": 0.0,
}


class GatewayHarness:
    """One gateway "process" with a kill/restart story.

    Owns the listening port across incarnations (restart rebinds the
    *same* port, so clients reconnect without rediscovery — the shape
    of a supervised process respawn), re-applies live chaos knob
    values to each new incarnation, and accumulates the stats of dead
    incarnations so whole-run accounting stays checkable.
    """

    def __init__(self, config: Optional[GatewayConfig] = None) -> None:
        self.config = config or GatewayConfig()
        self.gateway: Optional[InferenceGateway] = None
        self.incarnations = 0
        self._port: Optional[int] = None
        self._dead_stats: List[GatewayStats] = []
        self._knobs: Dict[str, float] = dict(KNOB_DEFAULTS)

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self.gateway is not None

    @property
    def address(self) -> Tuple[str, int]:
        if self._port is None:
            raise RuntimeError("harness not started")
        return (self.config.host, self._port)

    async def start(self) -> "GatewayHarness":
        if self.gateway is not None:
            raise RuntimeError("gateway already running")
        config = self.config
        if self._port is not None and config.port != self._port:
            # rebind the port the first incarnation was assigned
            config = GatewayConfig(
                **{**_config_dict(config), "port": self._port}
            )
        self.gateway = InferenceGateway(config)
        await self.gateway.start()
        self._port = self.gateway.address[1]
        self.incarnations += 1
        for knob, value in self._knobs.items():
            setattr(self.gateway, knob, value)
        return self

    async def kill(self) -> None:
        """Abort the live incarnation (clients see connection resets)."""
        if self.gateway is None:
            return
        gateway, self.gateway = self.gateway, None
        await gateway.stop(abort=True)
        self._dead_stats.append(gateway.stats)

    async def restart(self) -> None:
        await self.start()

    async def stop(self) -> None:
        """Graceful final stop (queue drained as REJECTED)."""
        if self.gateway is None:
            return
        gateway, self.gateway = self.gateway, None
        await gateway.stop()
        self._dead_stats.append(gateway.stats)

    # ------------------------------------------------------------------
    def set_knob(self, knob: str, value: float) -> None:
        if knob not in KNOB_DEFAULTS:
            raise ValueError(f"unknown chaos knob {knob!r}")
        self._knobs[knob] = value
        if self.gateway is not None:
            setattr(self.gateway, knob, value)

    def clear_knob(self, knob: str) -> None:
        self.set_knob(knob, KNOB_DEFAULTS[knob])

    # ------------------------------------------------------------------
    @property
    def all_stats(self) -> List[GatewayStats]:
        """Stats of every incarnation, dead first, live (if any) last."""
        out = list(self._dead_stats)
        if self.gateway is not None:
            out.append(self.gateway.stats)
        return out

    @property
    def accounting_closed(self) -> bool:
        """Every incarnation settled every request it decoded."""
        return all(s.accounting_closed for s in self.all_stats)

    def stats_dict(self) -> Dict[str, int]:
        """Counters summed across incarnations."""
        total: Dict[str, int] = {}
        for stats in self.all_stats:
            for key, value in stats.as_dict().items():
                total[key] = total.get(key, 0) + value
        return total


def _config_dict(config: GatewayConfig) -> Dict[str, Any]:
    return {
        name: getattr(config, name)
        for name in GatewayConfig.__dataclass_fields__
    }


# ----------------------------------------------------------------------
# spec -> wall-clock action schedule
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Action:
    """One scheduled injector step."""

    at: float
    kind: str  # "kill" | "restart" | "set" | "clear"
    knob: Optional[str] = None
    value: float = 0.0


def lower_faults(faults: List[Dict[str, Any]]) -> List[_Action]:
    """Validate spec fault entries and lower them to a schedule.

    Raises :class:`SpecError` for kinds with no wall-clock mapping —
    a fault the run would silently not inject is the exact failure
    mode the spec language forbids.
    """
    actions: List[_Action] = []
    kill_timelines: List[FaultTimeline] = []
    for i, entry in enumerate(faults):
        kind = entry["kind"]
        timeline = FaultTimeline.from_rows(
            [tuple(w) for w in entry["windows"]]
        )
        if kind in KILL_KINDS:
            kill_timelines.append(timeline)
            for at, active in timeline.edges():
                actions.append(_Action(at, "kill" if active else "restart"))
        elif kind in KNOB_KINDS:
            knob, lower = KNOB_KINDS[kind]
            value = lower(entry)
            for at, active in timeline.edges():
                if active:
                    actions.append(_Action(at, "set", knob, value))
                else:
                    actions.append(_Action(at, "clear", knob))
        else:
            raise SpecError(
                f"faults[{i}]: kind {kind!r} has no wall-clock mapping "
                f"(supported: {sorted(KILL_KINDS | set(KNOB_KINDS))})"
            )
    if len(kill_timelines) > 1:
        merged = kill_timelines[0]
        for timeline in kill_timelines[1:]:
            if merged.overlaps_timeline(timeline):
                raise SpecError(
                    "overlapping kill windows: the gateway cannot die twice"
                )
            merged = merged.union(timeline)
    return sorted(actions, key=lambda a: a.at)


def kill_timeline(faults: List[Dict[str, Any]]) -> FaultTimeline:
    """Union of all kill-kind windows (empty when none)."""
    merged = FaultTimeline()
    for entry in faults:
        if entry["kind"] in KILL_KINDS:
            merged = merged.union(
                FaultTimeline.from_rows([tuple(w) for w in entry["windows"]])
            )
    return merged


class WallClockInjector:
    """Replays a lowered fault schedule against a live harness."""

    def __init__(self, harness: GatewayHarness, faults: List[Dict[str, Any]]):
        self.harness = harness
        self.actions = lower_faults(faults)
        self.applied: List[Tuple[float, str]] = []

    async def run(self, start: float) -> None:
        """Apply every action at its offset from ``start`` (loop time)."""
        loop = asyncio.get_running_loop()
        for action in self.actions:
            delay = start + action.at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if action.kind == "kill":
                await self.harness.kill()
            elif action.kind == "restart":
                await self.harness.restart()
            elif action.kind == "set":
                self.harness.set_knob(action.knob, action.value)
            else:
                self.harness.clear_knob(action.knob)
            self.applied.append((loop.time() - start, action.kind))


# ----------------------------------------------------------------------
# the chaos run
# ----------------------------------------------------------------------


def default_realtime_spec(seed: int = 0) -> ScenarioSpec:
    """The stock wall-clock chaos scenario: one mid-run gateway kill.

    Sized for CI: ~7 s wall clock, 6 clients at 10 fps, a 1.5 s outage
    starting at t=2 — long enough for every breaker to trip, serve
    fallbacks, probe, and re-close inside the run.
    """
    return ScenarioSpec.from_dict(
        {
            "seed": seed,
            "duration": 7.0,
            "device": {"frame_rate": 10.0, "deadline": 0.25},
            "gpu": {
                "base_latency": GatewayConfig.base_latency,
                "per_item": GatewayConfig.per_item,
            },
            "population": {"size": 6, "name_prefix": "dev"},
            "faults": [{"kind": "server_crash", "windows": [[2.0, 1.5]]}],
        }
    )


def configs_from_spec(
    spec: ScenarioSpec,
) -> Tuple[GatewayConfig, LoadgenConfig]:
    """Lower a spec's device/gpu/population blocks to run configs.

    GPU terms the spec leaves out keep :class:`GatewayConfig`'s
    defaults, which are the simulator's.
    """
    dev = spec.data.get("device", {})
    gpu = spec.data.get("gpu", {})
    pop = spec.data.get("population", {})
    gateway = GatewayConfig(
        **{key: gpu[key] for key in ("base_latency", "per_item") if key in gpu}
    )
    loadgen = LoadgenConfig(
        clients=pop.get("size", 6),
        frame_rate=dev.get("frame_rate", 10.0),
        deadline=dev.get("deadline", 0.25),
        duration=spec.data.get("duration", 7.0),
        frame_bytes=2_000,
        seed=spec.seed,
        tenant_prefix=pop.get("name_prefix", "dev"),
    )
    return gateway, loadgen


@dataclass
class RealtimeChaosResult:
    """One judged wall-clock chaos run."""

    spec: ScenarioSpec
    report: LoadgenReport
    gateway_stats: Dict[str, int]
    incarnations: int
    invariants: List[InvariantCheck]
    #: completions visible at the heal instant (recovery baseline)
    completed_at_heal: Optional[int] = None
    applied: List[Tuple[float, str]] = field(default_factory=list)

    @property
    def all_invariants_hold(self) -> bool:
        return all(c.passed for c in self.invariants)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "report": self.report.to_dict(),
            "gateway": self.gateway_stats,
            "incarnations": self.incarnations,
            "completed_at_heal": self.completed_at_heal,
            "invariants": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "observed": c.observed,
                    "expected": c.expected,
                    "tolerance": c.tolerance,
                    "detail": c.detail,
                }
                for c in self.invariants
            ],
            "all_invariants_hold": self.all_invariants_hold,
        }


async def run_realtime_chaos_async(
    spec: Optional[ScenarioSpec] = None,
    resilience: Optional[ResilienceConfig] = None,
) -> RealtimeChaosResult:
    """Run one spec'd chaos scenario against a live gateway."""
    spec = spec or default_realtime_spec()
    gw_config, lg_config = configs_from_spec(spec)
    harness = GatewayHarness(gw_config)
    injector = WallClockInjector(harness, spec.faults)  # validates up front
    kills = kill_timeline(spec.faults)
    await harness.start()
    remotes = [
        ResilientSocketRemote(
            harness.address,
            deadline=lg_config.deadline,
            config=resilience or ResilienceConfig.wallclock(),
            tenant=f"{lg_config.tenant_prefix}{i}",
            frame_bytes=lg_config.frame_bytes,
        )
        for i in range(lg_config.clients)
    ]
    loop = asyncio.get_running_loop()
    start = loop.time()
    heal_snapshot: Dict[str, int] = {}

    async def snapshot_at_heal() -> None:
        if not len(kills):
            return
        await asyncio.sleep(max(0.0, start + kills.last_end + 0.05 - loop.time()))
        heal_snapshot["completed"] = sum(
            r.counts[FrameOutcome.COMPLETED] for r in remotes
        )

    injector_task = asyncio.ensure_future(injector.run(start))
    snapshot_task = asyncio.ensure_future(snapshot_at_heal())
    try:
        report = await run_loadgen(lg_config, harness.address, remotes=remotes)
        await asyncio.gather(injector_task, snapshot_task)
    finally:
        injector_task.cancel()
        snapshot_task.cancel()
        await asyncio.gather(
            injector_task, snapshot_task, return_exceptions=True
        )
        await harness.stop()
    invariants = _judge(report, harness, kills, heal_snapshot.get("completed"))
    return RealtimeChaosResult(
        spec=spec,
        report=report,
        gateway_stats=harness.stats_dict(),
        incarnations=harness.incarnations,
        invariants=invariants,
        completed_at_heal=heal_snapshot.get("completed"),
        applied=injector.applied,
    )


def run_realtime_chaos(
    spec: Optional[ScenarioSpec] = None,
    resilience: Optional[ResilienceConfig] = None,
) -> RealtimeChaosResult:
    """Synchronous entry point (owns its event loop)."""
    return asyncio.run(run_realtime_chaos_async(spec, resilience))


def _judge(
    report: LoadgenReport,
    harness: GatewayHarness,
    kills: FaultTimeline,
    completed_at_heal: Optional[int],
) -> List[InvariantCheck]:
    """The wall-clock chaos invariants, as judgeable rows."""
    checks: List[InvariantCheck] = []
    window = kills.windows[0] if len(kills) else None
    checks.append(
        InvariantCheck(
            name="client-accounting-closed",
            passed=report.accounting_closed,
            observed=float(report.submitted - sum(report.outcomes.values())),
            expected=0.0,
            tolerance=0.0,
            detail="submitted minus settled across all clients",
        )
    )
    gateway = harness.stats_dict()
    checks.append(
        InvariantCheck(
            name="gateway-accounting-closed",
            passed=harness.accounting_closed,
            observed=float(
                gateway.get("received", 0)
                - (
                    gateway.get("completed", 0)
                    + gateway.get("rejected", 0)
                    + gateway.get("overloaded", 0)
                    + gateway.get("expired", 0)
                )
            ),
            expected=0.0,
            tolerance=0.0,
            detail="decoded minus settled across all gateway incarnations",
        )
    )
    if not len(kills):
        return checks
    checks.append(
        InvariantCheck(
            name="breaker-opened",
            passed=report.breakers_opened >= 1,
            observed=float(report.breakers_opened),
            expected=1.0,
            tolerance=0.0,
            window=window,
            detail="total open transitions across client breakers (>= 1)",
        )
    )
    fallbacks = report.outcomes.get("fallback_local", 0)
    checks.append(
        InvariantCheck(
            name="fallback-served",
            passed=fallbacks >= 1,
            observed=float(fallbacks),
            expected=1.0,
            tolerance=0.0,
            window=window,
            detail="frames diverted to local inference while open (>= 1)",
        )
    )
    checks.append(
        InvariantCheck(
            name="breakers-reclosed",
            passed=report.breakers_all_closed,
            observed=float(
                sum(1 for r in report.remotes if r.breaker.is_closed)
            ),
            expected=float(report.clients),
            tolerance=0.0,
            window=window,
            detail="breakers CLOSED at end of run",
        )
    )
    recovered = (
        report.completed - completed_at_heal
        if completed_at_heal is not None
        else 0
    )
    checks.append(
        InvariantCheck(
            name="recovered-after-restart",
            passed=recovered >= 1,
            observed=float(recovered),
            expected=1.0,
            tolerance=0.0,
            window=window,
            detail="completions after the gateway restarted (>= 1)",
        )
    )
    checks.append(
        InvariantCheck(
            name="gateway-restarted",
            passed=harness.incarnations >= 2,
            observed=float(harness.incarnations),
            expected=2.0,
            tolerance=0.0,
            window=window,
            detail="gateway incarnations (kill + restart happened)",
        )
    )
    return checks
