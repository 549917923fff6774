"""Scenario compiler: lower the scenario language onto the testbed.

Four lowering levels, each a pure function of the spec:

* :func:`network_rows` / :func:`load_rows` — lower a schedule field
  (explicit phases *or* a generator dict) to flat ``(start, ...)``
  phase rows;
* :func:`compile_flat` — the spec with every generator lowered to
  phase rows (defaults untouched): what ``repro compile`` emits, itself
  a valid spec that compiles to the same run;
* :func:`compile_scenario` — the one spec -> :class:`Scenario`
  lowering, behind ``repro run`` / ``repro sweep`` (via
  :func:`benign_spec`) and every chaos run;
* :func:`compile_chaos` — the runnable
  :class:`~repro.experiments.chaos.ChaosScenario` (base scenario +
  live injectors + optional resilience/supervision stacks).

Population specs expand with :func:`expand_population`: one flat
config per device, heterogeneity assigned round-robin so the expansion
is a deterministic function of the spec alone.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Callable, Dict, List, Optional

from repro.device.config import DeviceConfig
from repro.experiments.chaos import ChaosScenario
from repro.experiments.scenario import Scenario
from repro.experiments.standard import extended_controllers
from repro.faults.base import FaultInjector, validate_plan
from repro.faults.device import CameraStall, CpuThrottle
from repro.faults.link import BandwidthCollapse, BurstLoss, LatencySpike
from repro.faults.process import ControllerKill, DeviceReboot, ServerKill
from repro.faults.server import GpuContention, ServerCrash, ServerSlowdown
from repro.faults.windows import FaultTimeline
from repro.fleet.config import FleetConfig, FleetTopology
from repro.models.device_profiles import DEVICE_PROFILES
from repro.models.frames import FrameSpec, frame_bytes
from repro.models.latency import GpuBatchModel
from repro.models.zoo import MODEL_ZOO
from repro.netem.schedule import NetworkSchedule
from repro.search.language import ScenarioSpec, SpecError
from repro.server.batching import BatchPolicy
from repro.workloads.loadgen import LoadSchedule

#: fault kind -> injector class (parameters pass through by name)
INJECTOR_CLASSES = {
    "bandwidth_collapse": BandwidthCollapse,
    "burst_loss": BurstLoss,
    "latency_spike": LatencySpike,
    "server_crash": ServerCrash,
    "server_slowdown": ServerSlowdown,
    "gpu_contention": GpuContention,
    "cpu_throttle": CpuThrottle,
    "camera_stall": CameraStall,
    "controller_kill": ControllerKill,
    "server_kill": ServerKill,
    "device_reboot": DeviceReboot,
}

#: default sampling step for generator schedules (seconds)
DEFAULT_STEP = 5.0

#: spec keys a plain run (``repro run`` / ``repro sweep``) refuses
#: rather than silently dropping a fault plan, fleet or defence stack
PLAIN_RUN_REFUSED = ("faults", "population", "resilience", "supervision")


def _spec_duration(spec: ScenarioSpec) -> float:
    """The run horizon a generator must cover."""
    if "duration" in spec.data:
        return float(spec.data["duration"])
    dev = spec.data.get("device", {})
    frames = int(dev.get("total_frames", 4000))
    rate = float(dev.get("frame_rate", 30.0))
    return frames / rate + 2.0


# ----------------------------------------------------------------------
# schedule lowering
# ----------------------------------------------------------------------
def network_rows(spec: ScenarioSpec) -> Optional[List[List[float]]]:
    """Lower the ``network`` field to ``[start, bandwidth, loss%]`` rows."""
    value = spec.data.get("network")
    if value is None:
        return None
    if isinstance(value, list):
        return [list(row) for row in value]
    kind = value["kind"]
    if kind == "phases":
        return [list(row) for row in value["rows"]]
    if kind == "diurnal":
        return _diurnal_network_rows(value, _spec_duration(spec))
    if kind == "mobility":
        return _mobility_rows(value, _spec_duration(spec))
    raise SpecError(f"unhandled network generator kind {kind!r}")  # pragma: no cover


def load_rows(spec: ScenarioSpec) -> Optional[List[List[float]]]:
    """Lower the ``load`` field to ``[start, rate]`` rows."""
    value = spec.data.get("load")
    if value is None:
        return None
    if isinstance(value, list):
        return [list(row) for row in value]
    kind = value["kind"]
    if kind == "phases":
        return [list(row) for row in value["rows"]]
    if kind == "diurnal":
        return _diurnal_load_rows(value, _spec_duration(spec))
    if kind == "flash_crowd":
        return _flash_crowd_rows(value, _spec_duration(spec))
    raise SpecError(f"unhandled load generator kind {kind!r}")  # pragma: no cover


def _diurnal_network_rows(gen: Dict[str, Any], horizon: float) -> List[List[float]]:
    """A traffic-cycle link: bandwidth dips (and loss peaks) at rush hour.

    ``bandwidth(t) = base - dip * (1 - cos(2*pi*t/period)) / 2`` sampled
    every ``step`` seconds — the trough sits mid-period.
    """
    period = float(gen.get("period", 120.0))
    base = float(gen.get("base_bandwidth", 10.0))
    dip = float(gen.get("dip", 8.0))
    loss_peak = float(gen.get("loss_peak", 0.0))
    step = float(gen.get("step", DEFAULT_STEP))
    duration = float(gen.get("duration", horizon))
    if period <= 0 or step <= 0:
        raise SpecError("diurnal network: period and step must be positive")
    if not 0.0 <= dip <= base:
        raise SpecError(f"diurnal network: need 0 <= dip <= base_bandwidth, got {dip}")
    rows: List[List[float]] = []
    t = 0.0
    while t < duration:
        depth = (1.0 - math.cos(2.0 * math.pi * t / period)) / 2.0
        rows.append([t, base - dip * depth, loss_peak * depth])
        t += step
    return rows


def _mobility_rows(gen: Dict[str, Any], horizon: float) -> List[List[float]]:
    """A patrol-loop trajectory lowered through the radio model."""
    from repro.workloads.mobility import mobility_schedule, patrol_loop

    lap_seconds = float(gen.get("lap_seconds", 60.0))
    if lap_seconds <= 0:
        raise SpecError(f"mobility network: lap_seconds must be positive, got {lap_seconds}")
    laps = int(gen.get("laps", max(1, math.ceil(horizon / lap_seconds))))
    try:
        trajectory = patrol_loop(
            radius_near=float(gen.get("radius_near", 5.0)),
            radius_far=float(gen.get("radius_far", 45.0)),
            lap_seconds=lap_seconds,
            laps=laps,
        )
    except ValueError as exc:
        raise SpecError(f"mobility network: {exc}") from exc
    schedule = mobility_schedule(
        trajectory,
        step=float(gen.get("step", 2.0)),
        duration=min(horizon, trajectory.duration),
    )
    return [
        [p.start, p.conditions.bandwidth, p.conditions.loss * 100.0]
        for p in schedule.phases
    ]


def _diurnal_load_rows(gen: Dict[str, Any], horizon: float) -> List[List[float]]:
    """Background request rate following a traffic cycle (peak mid-period)."""
    period = float(gen.get("period", 120.0))
    base = float(gen.get("base_rate", 0.0))
    peak = float(gen.get("peak_rate", 120.0))
    step = float(gen.get("step", DEFAULT_STEP))
    duration = float(gen.get("duration", horizon))
    if period <= 0 or step <= 0:
        raise SpecError("diurnal load: period and step must be positive")
    if peak < base:
        raise SpecError(f"diurnal load: peak_rate {peak} below base_rate {base}")
    rows: List[List[float]] = []
    t = 0.0
    while t < duration:
        depth = (1.0 - math.cos(2.0 * math.pi * t / period)) / 2.0
        rows.append([t, base + (peak - base) * depth])
        t += step
    return rows


def _flash_crowd_rows(gen: Dict[str, Any], horizon: float) -> List[List[float]]:
    """A flash crowd: ramp to peak at ``at``, hold, decay back to base."""
    base = float(gen.get("base_rate", 0.0))
    peak = float(gen.get("peak_rate", 150.0))
    at = float(gen.get("at", 10.0))
    ramp = float(gen.get("ramp", 5.0))
    hold = float(gen.get("hold", 10.0))
    decay = float(gen.get("decay", 10.0))
    step = float(gen.get("step", 2.0))
    if peak < base:
        raise SpecError(f"flash crowd: peak_rate {peak} below base_rate {base}")
    if min(at, ramp, hold, decay) < 0 or step <= 0:
        raise SpecError("flash crowd: times must be >= 0 and step positive")
    rows: List[List[float]] = [[0.0, base]]
    # ramp up in `step`-sized increments (piecewise-constant approximation)
    t = at
    while t < at + ramp:
        frac = (t - at) / ramp if ramp > 0 else 1.0
        rows.append([t, base + (peak - base) * frac])
        t += step
    rows.append([at + ramp, peak])
    t = at + ramp + hold
    while t < at + ramp + hold + decay:
        frac = (t - (at + ramp + hold)) / decay if decay > 0 else 1.0
        rows.append([t, peak - (peak - base) * frac])
        t += step
    rows.append([at + ramp + hold + decay, base])
    # drop duplicate start times introduced by zero-length segments
    seen: Dict[float, float] = {}
    for start, rate in rows:
        seen[start] = rate
    return [[s, seen[s]] for s in sorted(seen)]


# ----------------------------------------------------------------------
# flattening + population expansion
# ----------------------------------------------------------------------
def compile_flat(spec: ScenarioSpec) -> Dict[str, Any]:
    """The spec dict with every generator lowered to phase rows.

    Faults, population and stack switches are stripped, so the result
    is a spec :func:`benign_spec` accepts and compiles to the same
    :class:`Scenario` as ``spec``.
    """
    out: Dict[str, Any] = {}
    for key in ("controller", "seed", "duration", "device", "gpu",
                "batch_policy", "uplink_queue_bytes", "topology"):
        if key in spec.data:
            out[key] = spec.to_dict()[key]
    net = network_rows(spec)
    if net is not None:
        out["network"] = net
    load = load_rows(spec)
    if load is not None:
        out["load"] = load
    return out


def expand_population(spec: ScenarioSpec) -> List[Dict[str, Any]]:
    """One flat config per population member (round-robin heterogeneity).

    Without a ``population`` block this is just ``[compile_flat(spec)]``.
    """
    base = compile_flat(spec)
    pop = spec.data.get("population")
    if not pop:
        return [base]
    profiles = pop.get("profiles") or [base.get("device", {}).get("profile", "pi4b_r1_2")]
    models = pop.get("models") or [base.get("device", {}).get("model", "mobilenet_v3_small")]
    prefix = pop.get("name_prefix", "dev")
    out: List[Dict[str, Any]] = []
    for i in range(pop["size"]):
        device = dict(base.get("device", {}))
        device["name"] = f"{prefix}{i}"
        device["profile"] = profiles[i % len(profiles)]
        device["model"] = models[i % len(models)]
        out.append({**base, "device": device})
    return out


# ----------------------------------------------------------------------
# runnable lowering
# ----------------------------------------------------------------------
def build_injectors(spec: ScenarioSpec) -> List[FaultInjector]:
    """Fresh injector instances for the spec's fault timeline list.

    Injectors bind to one environment; build a new list per run.
    """
    out: List[FaultInjector] = []
    for i, entry in enumerate(spec.faults):
        cls = INJECTOR_CLASSES[entry["kind"]]
        params = {k: v for k, v in entry.items() if k not in ("kind", "windows")}
        timeline = FaultTimeline.from_rows([tuple(w) for w in entry["windows"]])
        try:
            out.append(cls(timeline, **params))
        except (TypeError, ValueError) as exc:
            raise SpecError(f"faults[{i}] ({entry['kind']}): {exc}") from exc
    # two injectors sharing a resource must not overlap in time — fail
    # at compile time, not mid-run (FaultOverlapError is a ValueError)
    validate_plan(out)
    return out


def benign_spec(raw: Any) -> ScenarioSpec:
    """Validate a plain-run config (``repro run`` / ``repro sweep``).

    A plain run has no fault, population or defence-stack machinery, so
    a spec carrying any :data:`PLAIN_RUN_REFUSED` key is a
    :class:`SpecError` naming it.
    """
    spec = ScenarioSpec.from_dict(raw)
    for key in PLAIN_RUN_REFUSED:
        if key in spec.data:
            raise SpecError(
                f"{key}: a plain run (repro run / repro sweep) does not "
                f"honour this field; remove it"
            )
    return spec


def compile_scenario(spec: ScenarioSpec) -> Scenario:
    """The benign base :class:`Scenario` (faults not attached).

    Built straight from the normalized ``spec.data``: a field the spec
    leaves out keeps its dataclass default, and schedules lower through
    :func:`network_rows` / :func:`load_rows`.
    """
    data = spec.data
    dev = dict(data.get("device", {}))
    frame = {k: dev.pop(k) for k in ("resolution", "jpeg_quality") if k in dev}
    if "profile" in dev:
        dev["profile"] = DEVICE_PROFILES[dev["profile"]]
    if "model" in dev:
        dev["model"] = MODEL_ZOO[dev["model"]]
    kwargs: Dict[str, Any] = {
        k: data[k] for k in ("duration", "seed", "uplink_queue_bytes") if k in data
    }
    if "batch_policy" in data:
        kwargs["batch_policy"] = BatchPolicy(data["batch_policy"])
    net = network_rows(spec)
    if net is not None:
        kwargs["network"] = NetworkSchedule.from_rows(net)
    load = load_rows(spec)
    if load is not None:
        kwargs["load"] = LoadSchedule.from_rows(load)
    topo = data.get("topology")
    if topo is not None:
        kwargs["topology"] = FleetTopology(
            servers=tuple(topo["servers"]),
            config=_build(
                "topology", FleetConfig, {k: v for k, v in topo.items() if k != "servers"}
            ),
        )
    frame_spec = _build("device", _frame_spec, frame)
    return Scenario(
        controller_factory=extended_controllers()[spec.controller],
        device=_build("device", functools.partial(DeviceConfig, frame_spec=frame_spec), dev),
        gpu_model=GpuBatchModel(**data.get("gpu", {})),
        **kwargs,
    )


def _frame_spec(**fields: Any) -> FrameSpec:
    """A :class:`FrameSpec` whose size model accepts it."""
    spec = FrameSpec(**fields)
    frame_bytes(spec.resolution, spec.jpeg_quality)  # the size model's checks
    return spec


def _build(where: str, make: Callable[..., Any], fields: Dict[str, Any]) -> Any:
    """``make(**fields)``, a ``ValueError`` from it re-raised as a
    :class:`SpecError` naming the first field that fails on its own."""
    try:
        return make(**fields)
    except ValueError as exc:
        for key, value in fields.items():
            try:
                make(**{key: value})
            except ValueError:
                raise SpecError(f"{where}.{key}: {exc}") from None
        raise SpecError(f"{where}: {exc}") from None


def compile_chaos(spec: ScenarioSpec) -> ChaosScenario:
    """The runnable chaos scenario: base + injectors + stacks."""
    from repro.resilience.config import ResilienceConfig
    from repro.supervision.supervisor import SupervisionConfig

    return ChaosScenario(
        base=compile_scenario(spec),
        injectors=build_injectors(spec),
        resilience=ResilienceConfig() if spec.data.get("resilience") else None,
        supervision=SupervisionConfig() if spec.data.get("supervision") else None,
    )
