"""Scenario wiring: devices + links + servers + schedules, one seed.

A :class:`Scenario` is a complete description of one run of the §IV
testbed, from one device to a fleet of :class:`FleetMember` devices
sharing the edge server (the paper's three concurrent Pis, §IV-A).
:func:`build_runtime` is the one place a testbed is assembled;
:func:`run_scenario` executes it deterministically and returns a
:class:`RunResult` with every trace and counter the paper's figures
need.

Controller factories come in two arities:

* ``factory(config)`` — ordinary controllers (FrameFeedback and the
  paper baselines observe only device-local measurements);
* ``factory(config, context)`` — controllers that need testbed wiring:
  the clairvoyant oracle reads the schedules, the reservation baseline
  talks to a server-side broker.  ``context`` is a
  :class:`ScenarioContext`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.control.base import Controller
from repro.device.config import DeviceConfig
from repro.device.device import DeviceTraces, EdgeDevice
from repro.fleet.config import FleetTopology
from repro.metrics.qos import QosReport
from repro.models.latency import GpuBatchModel
from repro.netem.link import ConditionBox, Link, LinkConditions
from repro.netem.schedule import NetworkSchedule
from repro.server.batching import BatchPolicy
from repro.server.server import EdgeServer, ServerStats
from repro.sim.core import Environment
from repro.sim.rng import RngRegistry
from repro.workloads.loadgen import BackgroundLoad, LoadSchedule


@dataclass
class ScenarioContext:
    """Testbed wiring handed to two-argument controller factories."""

    env: Environment
    server: EdgeServer
    rng: RngRegistry
    network: Optional[NetworkSchedule]
    load: Optional[LoadSchedule]
    gpu_model: GpuBatchModel


def _build_controller(factory, config: DeviceConfig, context: ScenarioContext):
    """Call a one- or two-argument controller factory.

    Only *required* positional parameters count toward the arity, so
    ``lambda cfg, captured=x: ...`` closures stay one-argument.
    """
    try:
        params = inspect.signature(factory).parameters.values()
    except (TypeError, ValueError):  # builtins / odd callables
        params = ()
    required = sum(
        1
        for p in params
        if p.default is inspect.Parameter.empty
        and p.kind
        in (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    )
    if required >= 2:
        return factory(config, context)
    return factory(config)


@dataclass(frozen=True)
class FleetMember:
    """One device's slot in a scenario."""

    config: DeviceConfig
    #: static link conditions (None -> defaults); members may have
    #: heterogeneous radios, as real deployments do
    link: Optional[LinkConditions] = None
    #: per-member network schedule; overrides ``link`` when present
    network: Optional[NetworkSchedule] = None


@dataclass
class Scenario:
    """One complete experiment configuration.

    ``controller_factory`` builds a fresh controller per device and run
    so the same scenario can be executed across seeds without state
    leakage.  A scenario runs ``device`` on ``network``, or the
    ``members`` fleet when one is given; all devices share the server
    (or the ``topology`` pool) and the background ``load``.
    """

    controller_factory: Callable[[DeviceConfig], Controller]
    device: DeviceConfig = field(default_factory=DeviceConfig)
    network: Optional[NetworkSchedule] = None
    #: the devices of a multi-device run (the paper's three concurrent
    #: Pis, §IV-A); empty means ``(FleetMember(device, network=network),)``
    members: Sequence[FleetMember] = ()
    load: Optional[LoadSchedule] = None
    duration: Optional[float] = None
    seed: int = 0
    gpu_model: GpuBatchModel = field(default_factory=GpuBatchModel)
    batch_policy: BatchPolicy = BatchPolicy.FIFO
    uplink_queue_bytes: float = 131_072.0
    #: server answers overflow with OVERLOADED + retry-after instead of
    #: bare rejections (pairs with ``device.resilience``)
    server_pushback: bool = False
    #: multi-server fleet topology; ``None`` keeps the classic
    #: single-server testbed (bit-identical to pre-fleet runs)
    topology: Optional[FleetTopology] = None

    def __post_init__(self) -> None:
        if not self.members:
            return
        self.members = tuple(self.members)
        if self.network is not None or self.device != DeviceConfig():
            raise ValueError("give either members or device/network, not both")
        names = [m.config.name for m in self.members]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate device names: {names}")

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)

    @property
    def effective_members(self) -> Tuple[FleetMember, ...]:
        """Every device of the run, in wiring order (never empty)."""
        return self.members or (FleetMember(self.device, network=self.network),)

    @property
    def run_duration(self) -> float:
        """Explicit duration, or the longest stream plus drain slack."""
        if self.duration is not None:
            return self.duration
        return max(m.config.stream_duration for m in self.effective_members) + 2.0


def homogeneous_fleet(
    n: int,
    total_frames: int = 1800,
    link: Optional[LinkConditions] = None,
    name_prefix: str = "pi",
) -> List[FleetMember]:
    """N identical members (the paper's three-Pi setup generalized)."""
    if n < 1:
        raise ValueError(f"need at least one device, got {n}")
    return [
        FleetMember(
            config=DeviceConfig(name=f"{name_prefix}{i}", total_frames=total_frames),
            link=link,
        )
        for i in range(n)
    ]


@dataclass
class RunResult:
    """Everything observable from one scenario run.

    ``traces``, ``qos``, ``uplink_stats`` and ``breakdown`` belong to
    the first device; ``devices`` holds every device's QoS by name.
    """

    scenario: Scenario
    traces: DeviceTraces
    qos: QosReport
    server_stats: ServerStats
    uplink_stats: "object"
    background_sent: int = 0
    background_rejected: int = 0
    #: mean GPU busy fraction over every server
    gpu_utilization: float = 0.0
    elapsed: float = 0.0
    #: omniscient T_n/T_l attribution (None only for legacy callers)
    breakdown: "object" = None
    devices: Dict[str, QosReport] = field(default_factory=dict)
    #: GPU frames per batch — small values are the §II-A.1 hardware
    #: fragmentation a single tenant causes
    mean_batch_size: float = 0.0
    #: per-server stats for multi-server runs (empty otherwise)
    per_server_stats: Dict[str, ServerStats] = field(default_factory=dict)
    #: pool routing/health counters (``fleet.*``) for multi-server runs
    fleet_extras: Dict[str, float] = field(default_factory=dict)

    @property
    def controller_name(self) -> str:
        return self.qos.name

    def throughputs(self) -> Dict[str, float]:
        return {name: qos.mean_throughput for name, qos in self.devices.items()}

    def jain_fairness(self) -> float:
        """Jain's fairness index over per-device throughput (1 = equal)."""
        x = np.array(list(self.throughputs().values()))
        if not x.any():
            return 1.0
        return float(x.sum() ** 2 / (len(x) * (x**2).sum()))


@dataclass
class MemberRuntime:
    """One device's live wiring: its link pair, controller and device."""

    box: ConditionBox
    uplink: Link
    downlink: Link
    controller: Controller
    device: EdgeDevice


def _check_accounting(device: EdgeDevice) -> None:
    """Raise unless every captured frame is settled or still in flight."""
    settled = (
        device.successes
        + device.timeouts
        + device.local_skips
        + device.offload.aborted
    )
    in_flight = device.offload.frames_in_flight + device.local.frames_in_flight
    if device.frames_seen != settled + in_flight:
        raise RuntimeError(
            f"device {device.config.name!r}: {device.frames_seen} frames "
            f"captured, but {settled} settled and {in_flight} in flight"
        )


@dataclass
class ScenarioRuntime:
    """A fully-wired testbed that has not started running yet.

    :func:`build_runtime` assembles the substrate (links, server,
    devices, schedules) and hands it back *before* ``env.run``, so
    callers can attach extra machinery — fault injectors, probes,
    tracing — to live components.  :meth:`run` then executes and
    collects the :class:`RunResult`.  ``box``, ``uplink``,
    ``downlink``, ``controller`` and ``device`` are the first member's.
    """

    scenario: Scenario
    env: Environment
    rng: RngRegistry
    server: EdgeServer
    background: Optional[BackgroundLoad]
    members: List[MemberRuntime]
    #: attached supervision layer, if any (set by chaos runners after
    #: build; rides along into :meth:`fault_targets`)
    supervisor: Optional[object] = None
    #: fleet tier (multi-server scenarios only)
    pool: Optional[object] = None

    @property
    def box(self) -> ConditionBox:
        return self.members[0].box

    @property
    def uplink(self) -> Link:
        return self.members[0].uplink

    @property
    def downlink(self) -> Link:
        return self.members[0].downlink

    @property
    def controller(self) -> Controller:
        return self.members[0].controller

    @property
    def device(self) -> EdgeDevice:
        return self.members[0].device

    def fault_targets(self):
        """Substrate handles for :meth:`repro.faults.FaultInjector.install`."""
        from repro.faults.base import FaultTargets

        return FaultTargets(
            box=self.box,
            server=self.server,
            device=self.device,
            rng=self.rng.stream("faults"),
            supervisor=self.supervisor,
            pool=self.pool,
        )

    def run(self, until: Optional[float] = None) -> RunResult:
        """Execute to ``until`` (default: the scenario's duration)."""
        duration = until if until is not None else self.scenario.run_duration
        self.env.run(until=duration)
        return self.collect(duration)

    def collect(self, elapsed: float) -> RunResult:
        """Snapshot every observable into a :class:`RunResult`.

        Raises :class:`RuntimeError` when a device's frame accounting
        does not close.
        """
        devices: Dict[str, QosReport] = {}
        for member in self.members:
            _check_accounting(member.device)
            devices[member.device.config.name] = member.device.qos_report(elapsed)
        first = self.device
        servers = self.pool.servers if self.pool is not None else [self.server]
        frames_run = sum(s.gpu.frames_run for s in servers)
        batches_run = sum(s.gpu.batches_run for s in servers)
        return RunResult(
            scenario=self.scenario,
            traces=first.traces,
            qos=devices[first.config.name],
            server_stats=self.server.stats,
            uplink_stats=self.uplink.stats,
            background_sent=self.background.sent if self.background else 0,
            background_rejected=self.background.rejected if self.background else 0,
            gpu_utilization=sum(s.gpu.utilization(elapsed) for s in servers)
            / len(servers),
            elapsed=elapsed,
            breakdown=first.breakdown,
            devices=devices,
            mean_batch_size=frames_run / max(batches_run, 1),
            per_server_stats=(
                {s.name: s.stats for s in servers} if self.pool is not None else {}
            ),
            fleet_extras=self.pool.extras() if self.pool is not None else {},
        )


def build_runtime(scenario: Scenario) -> ScenarioRuntime:
    """Wire one scenario's testbed without running it.

    This is the only place a testbed is assembled.  One device keeps
    the classic ``uplink`` / ``downlink`` / ``device`` rng streams and
    link names; in a fleet each is suffixed with the device name
    (``uplink:pi0``), so adding a member never perturbs another's
    randomness.
    """
    env = Environment()
    rng = RngRegistry(seed=scenario.seed)
    members = scenario.effective_members

    def named(base: str, member: FleetMember) -> str:
        return base if len(members) == 1 else f"{base}:{member.config.name}"

    pool = None
    if scenario.topology is not None:
        # Fleet: one EdgeServer per topology name, each on its own rng
        # stream, plus the pool/health/router tier.  Imported lazily so
        # single-server runs never touch the fleet package.
        from repro.fleet.pool import ServerPool
        from repro.fleet.router import Router

        edge_servers = [
            EdgeServer(
                env,
                rng.stream(f"server:{name}"),
                cost_model=scenario.gpu_model,
                batch_policy=scenario.batch_policy,
                name=name,
                pushback=scenario.server_pushback,
                trace_identity=True,
            )
            for name in scenario.topology.servers
        ]
        pool = ServerPool(env, edge_servers, scenario.topology.config)
        # edge_servers[0] stays the "primary" handle: background load,
        # stats collection and ScenarioContext keep working.
        server = edge_servers[0]
    else:
        server = EdgeServer(
            env,
            rng.stream("server"),
            cost_model=scenario.gpu_model,
            batch_policy=scenario.batch_policy,
            pushback=scenario.server_pushback,
        )

    background: Optional[BackgroundLoad] = None
    if scenario.load is not None:
        background = BackgroundLoad(
            env,
            server,
            scenario.load,
            rng.stream("background"),
            payload_bytes=members[0].config.frame_spec.bytes_on_wire,
        )

    runtimes = []
    for member in members:
        # Network: one condition box per device shared by both
        # directions, driven by its schedule (exactly like NetEm
        # shaping a Pi's interface).
        if member.network is not None:
            initial = member.network.at(0.0)
        else:
            initial = member.link or LinkConditions()
        box = ConditionBox(initial)
        # responses are tiny; the same byte cap never binds downstream
        uplink, downlink = (
            Link(
                env,
                rng.stream(name),
                box,
                name=name,
                queue_bytes_cap=scenario.uplink_queue_bytes,
            )
            for name in (named("uplink", member), named("downlink", member))
        )
        if member.network is not None:
            member.network.install(env, box)
        context = ScenarioContext(
            env=env,
            server=server,
            rng=rng,
            network=member.network,
            load=scenario.load,
            gpu_model=scenario.gpu_model,
        )
        controller = _build_controller(
            scenario.controller_factory, member.config, context
        )
        # one Router per device, so round-robin rotation is per-device
        # state, not cross-device coupling
        router = Router(pool) if pool is not None else None
        device = EdgeDevice(
            env,
            member.config,
            controller,
            uplink=uplink,
            downlink=downlink,
            server=server,
            rng=rng.stream(named("device", member)),
            router=router,
        )
        runtimes.append(MemberRuntime(box, uplink, downlink, controller, device))

    return ScenarioRuntime(
        scenario=scenario,
        env=env,
        rng=rng,
        server=server,
        background=background,
        members=runtimes,
        pool=pool,
    )


def run_scenario(scenario: Scenario) -> RunResult:
    """Execute one scenario deterministically."""
    return build_runtime(scenario).run()


def run_controllers(
    scenario: Scenario,
    controllers: Dict[str, Callable[[DeviceConfig], Controller]],
) -> Dict[str, RunResult]:
    """Run the same scenario once per controller (identical seeds)."""
    out: Dict[str, RunResult] = {}
    for name, factory in controllers.items():
        out[name] = run_scenario(replace(scenario, controller_factory=factory))
    return out
