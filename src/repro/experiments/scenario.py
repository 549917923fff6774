"""Scenario wiring: device + links + server + schedules, one seed.

A :class:`Scenario` is a complete description of one run of the §IV
testbed; :func:`run_scenario` executes it deterministically and
returns a :class:`RunResult` with every trace and counter the paper's
figures need.

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
from typing import Callable, Dict, Optional

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


@dataclass
class Scenario:
    """One complete experiment configuration.

    ``controller_factory`` builds a fresh controller per run so the
    same scenario can be executed across seeds without state leakage.
    """

    controller_factory: Callable[[DeviceConfig], Controller]
    device: DeviceConfig = field(default_factory=DeviceConfig)
    network: Optional[NetworkSchedule] = None
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

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)

    @property
    def run_duration(self) -> float:
        """Explicit duration, or the stream length plus drain slack."""
        if self.duration is not None:
            return self.duration
        return self.device.stream_duration + 2.0


@dataclass
class RunResult:
    """Everything observable from one scenario run."""

    scenario: Scenario
    traces: DeviceTraces
    qos: QosReport
    server_stats: ServerStats
    uplink_stats: "object"
    background_sent: int = 0
    background_rejected: int = 0
    gpu_utilization: float = 0.0
    elapsed: float = 0.0
    #: omniscient T_n/T_l attribution (None only for legacy callers)
    breakdown: "object" = None

    @property
    def controller_name(self) -> str:
        return self.qos.name


@dataclass
class ScenarioRuntime:
    """A fully-wired testbed that has not started running yet.

    :func:`build_runtime` assembles the substrate (links, server,
    device, schedules) and hands it back *before* ``env.run``, so
    callers can attach extra machinery — fault injectors, probes,
    tracing — to live components.  :meth:`run` then executes and
    collects the :class:`RunResult` exactly as :func:`run_scenario`
    always did.
    """

    scenario: Scenario
    env: Environment
    rng: RngRegistry
    box: ConditionBox
    uplink: Link
    downlink: Link
    server: EdgeServer
    background: Optional[BackgroundLoad]
    context: ScenarioContext
    controller: Controller
    device: EdgeDevice
    #: attached supervision layer, if any (set by chaos runners after
    #: build; rides along into :meth:`fault_targets`)
    supervisor: Optional[object] = None
    #: fleet tier (multi-server scenarios only)
    pool: Optional[object] = None
    router: Optional[object] = None

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
        """Snapshot every observable into a :class:`RunResult`."""
        return RunResult(
            scenario=self.scenario,
            traces=self.device.traces,
            qos=self.device.qos_report(elapsed),
            server_stats=self.server.stats,
            uplink_stats=self.uplink.stats,
            background_sent=self.background.sent if self.background else 0,
            background_rejected=self.background.rejected if self.background else 0,
            gpu_utilization=self.server.gpu.utilization(elapsed),
            elapsed=elapsed,
            breakdown=self.device.breakdown,
        )


def build_runtime(scenario: Scenario) -> ScenarioRuntime:
    """Wire one scenario's testbed without running it."""
    env = Environment()
    rng = RngRegistry(seed=scenario.seed)

    # Network: one condition box shared by both directions, driven by
    # the schedule (exactly like NetEm shaping the Pi's interface).
    initial = (
        scenario.network.at(0.0) if scenario.network is not None else LinkConditions()
    )
    box = ConditionBox(initial)
    uplink = Link(
        env,
        rng.stream("uplink"),
        box,
        name="uplink",
        queue_bytes_cap=scenario.uplink_queue_bytes,
    )
    downlink = Link(
        env,
        rng.stream("downlink"),
        box,
        name="downlink",
        # responses are tiny; the same byte cap never binds
        queue_bytes_cap=scenario.uplink_queue_bytes,
    )
    if scenario.network is not None:
        scenario.network.install(env, box)

    pool = None
    router = None
    if scenario.topology is not None:
        # Fleet: one EdgeServer per topology name, each on its own rng
        # stream, plus the pool/health/router tier.  Imported lazily so
        # single-server runs never touch the fleet package.
        from repro.fleet.pool import ServerPool
        from repro.fleet.router import Router

        members = [
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
        pool = ServerPool(env, members, scenario.topology.config)
        router = Router(pool)
        # members[0] stays the "primary" handle: background load,
        # legacy stats collection and ScenarioContext keep working.
        server = members[0]
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
            payload_bytes=scenario.device.frame_spec.bytes_on_wire,
        )

    context = ScenarioContext(
        env=env,
        server=server,
        rng=rng,
        network=scenario.network,
        load=scenario.load,
        gpu_model=scenario.gpu_model,
    )
    controller = _build_controller(scenario.controller_factory, scenario.device, context)
    device = EdgeDevice(
        env,
        scenario.device,
        controller,
        uplink=uplink,
        downlink=downlink,
        server=server,
        rng=rng.stream("device"),
        router=router,
    )

    return ScenarioRuntime(
        scenario=scenario,
        env=env,
        rng=rng,
        box=box,
        uplink=uplink,
        downlink=downlink,
        server=server,
        background=background,
        context=context,
        controller=controller,
        device=device,
        pool=pool,
        router=router,
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
