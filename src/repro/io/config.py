"""Scenario (de)serialization: experiments as shareable JSON artifacts.

Only declarative pieces serialize — device settings, schedules, seed,
GPU model, batching policy.  The controller is referenced by *name*
(resolved through the same registry the experiment harness uses), so a
config file fully determines a run:

.. code-block:: json

    {
      "controller": "FrameFeedback",
      "seed": 3,
      "device": {"total_frames": 4000, "frame_rate": 30.0},
      "network": [[0, 10, 0], [30, 4, 0]],
      "load": [[0, 0], [10, 90]]
    }
"""

from __future__ import annotations

from typing import Optional

from repro.device.config import DeviceConfig
from repro.experiments.scenario import Scenario
from repro.experiments.standard import extended_controllers
from repro.fleet.config import FleetConfig, FleetTopology
from repro.models.device_profiles import DEVICE_PROFILES
from repro.models.frames import FrameSpec
from repro.models.latency import GpuBatchModel
from repro.models.zoo import MODEL_ZOO
from repro.netem.schedule import NetworkSchedule
from repro.server.batching import BatchPolicy
from repro.workloads.loadgen import LoadSchedule

#: every key :func:`scenario_from_dict` understands — anything else is
#: an error, never a silent no-op (extended fields like ``faults`` /
#: ``population`` belong to the :mod:`repro.search` scenario language)
KNOWN_KEYS = (
    "controller",
    "seed",
    "duration",
    "device",
    "gpu",
    "network",
    "load",
    "batch_policy",
    "uplink_queue_bytes",
    "topology",
)

DEVICE_KEYS = (
    "name",
    "profile",
    "model",
    "frame_rate",
    "deadline",
    "measure_period",
    "t_window_buckets",
    "total_frames",
    "resolution",
    "jpeg_quality",
)

GPU_KEYS = ("base_latency", "per_item", "jitter_sigma")

TOPOLOGY_KEYS = (
    "servers",
    "policy",
    "failover",
    "admission_rate",
    "admission_burst",
    "probe_period",
    "stale_grace_periods",
    "fail_threshold",
    "probation",
)


def _reject_unknown(data: dict, allowed, where: str) -> None:
    """Unknown keys are config bugs; name them instead of dropping them."""
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown {where} field(s) {unknown}; "
            f"valid fields: {sorted(allowed)}"
        )


def _schedule_rows(data: dict, key: str) -> list:
    """The phase rows of ``data[key]``, lowering a generator dict if needed."""
    value = data[key]
    if not isinstance(value, dict):
        return [tuple(row) for row in value]
    # a generator dict ({"kind": "diurnal", ...}) — lower it through the
    # scenario compiler, which also validates the generator's fields
    from repro.search.compiler import load_rows, network_rows
    from repro.search.language import ScenarioSpec

    sub = {k: data[k] for k in ("device", "duration", key) if k in data}
    spec = ScenarioSpec.from_dict(sub)
    rows = network_rows(spec) if key == "network" else load_rows(spec)
    return [tuple(row) for row in rows]


def scenario_to_dict(scenario: Scenario, controller_name: str) -> dict:
    """Serialize the declarative parts of a scenario.

    ``controller_name`` must be a registry name (the factory itself is
    not serializable).
    """
    if controller_name not in extended_controllers():
        raise ValueError(
            f"unknown controller {controller_name!r}; "
            f"available: {sorted(extended_controllers())}"
        )
    if scenario.members:
        raise ValueError("multi-device scenarios have no config form")
    d = scenario.device
    out: dict = {
        "controller": controller_name,
        "seed": scenario.seed,
        "batch_policy": scenario.batch_policy.value,
        "uplink_queue_bytes": scenario.uplink_queue_bytes,
        "gpu": {
            "base_latency": scenario.gpu_model.base_latency,
            "per_item": scenario.gpu_model.per_item,
            "jitter_sigma": scenario.gpu_model.jitter_sigma,
        },
        "device": {
            "name": d.name,
            "profile": d.profile.name,
            "model": d.model.name,
            "frame_rate": d.frame_rate,
            "deadline": d.deadline,
            "measure_period": d.measure_period,
            "t_window_buckets": d.t_window_buckets,
            "total_frames": d.total_frames,
            "resolution": d.frame_spec.resolution,
            "jpeg_quality": d.frame_spec.jpeg_quality,
        },
    }
    if scenario.duration is not None:
        out["duration"] = scenario.duration
    if scenario.network is not None:
        out["network"] = [
            [p.start, p.conditions.bandwidth, p.conditions.loss * 100.0]
            for p in scenario.network.phases
        ]
    if scenario.load is not None:
        out["load"] = [[p.start, p.rate] for p in scenario.load.phases]
    if scenario.topology is not None:
        topo = scenario.topology
        out["topology"] = {
            "servers": list(topo.servers),
            "policy": topo.config.policy,
            "failover": topo.config.failover,
            "admission_rate": topo.config.admission_rate,
            "admission_burst": topo.config.admission_burst,
            "probe_period": topo.config.probe_period,
            "stale_grace_periods": topo.config.stale_grace_periods,
            "fail_threshold": topo.config.fail_threshold,
            "probation": topo.config.probation,
        }
    return out


def _topology_from_dict(data: dict) -> FleetTopology:
    """Rebuild a fleet topology block, rejecting unknown/typoed keys."""
    _reject_unknown(data, TOPOLOGY_KEYS, "topology")
    servers = data.get("servers")
    if not isinstance(servers, (list, tuple)) or not servers:
        raise ValueError(
            f"topology.servers: expected a non-empty list of names, got {servers!r}"
        )
    kwargs: dict = {}
    for key in ("policy",):
        if key in data:
            kwargs[key] = str(data[key])
    for key in ("failover",):
        if key in data:
            kwargs[key] = bool(data[key])
    for key in ("admission_rate", "admission_burst", "probe_period",
                "stale_grace_periods", "probation"):
        if key in data:
            kwargs[key] = float(data[key])
    if "fail_threshold" in data:
        kwargs["fail_threshold"] = int(data["fail_threshold"])
    return FleetTopology(
        servers=tuple(str(s) for s in servers), config=FleetConfig(**kwargs)
    )


def scenario_from_dict(data: dict) -> Scenario:
    """Rebuild a scenario from :func:`scenario_to_dict` output.

    Every key is checked against :data:`KNOWN_KEYS` (and the nested
    ``device`` / ``gpu`` blocks against theirs): a typoed field raises a
    ``ValueError`` naming it and listing the valid fields, rather than
    silently falling back to a default.  ``network`` / ``load`` accept
    either flat phase rows or a generator dict from the extended
    scenario language (lowered via :mod:`repro.search.compiler`).
    """
    _reject_unknown(data, KNOWN_KEYS, "scenario config")
    controllers = extended_controllers()
    name = data.get("controller", "FrameFeedback")
    if name not in controllers:
        raise ValueError(
            f"unknown controller {name!r}; available: {sorted(controllers)}"
        )

    dev = data.get("device", {})
    _reject_unknown(dev, DEVICE_KEYS, "device")
    profile = DEVICE_PROFILES[dev.get("profile", "pi4b_r1_2")]
    model = MODEL_ZOO[dev.get("model", "mobilenet_v3_small")]
    device = DeviceConfig(
        name=dev.get("name", "pi"),
        profile=profile,
        model=model,
        frame_spec=FrameSpec(
            resolution=int(dev.get("resolution", 224)),
            jpeg_quality=float(dev.get("jpeg_quality", 85.0)),
        ),
        frame_rate=float(dev.get("frame_rate", 30.0)),
        deadline=float(dev.get("deadline", 0.25)),
        measure_period=float(dev.get("measure_period", 1.0)),
        t_window_buckets=int(dev.get("t_window_buckets", 3)),
        total_frames=int(dev.get("total_frames", 4000)),
    )

    gpu_cfg = data.get("gpu", {})
    _reject_unknown(gpu_cfg, GPU_KEYS, "gpu")
    gpu = GpuBatchModel(
        base_latency=float(gpu_cfg.get("base_latency", GpuBatchModel.base_latency)),
        per_item=float(gpu_cfg.get("per_item", GpuBatchModel.per_item)),
        jitter_sigma=float(gpu_cfg.get("jitter_sigma", GpuBatchModel.jitter_sigma)),
    )

    network: Optional[NetworkSchedule] = None
    if data.get("network") is not None:
        network = NetworkSchedule.from_rows(_schedule_rows(data, "network"))
    load: Optional[LoadSchedule] = None
    if data.get("load") is not None:
        load = LoadSchedule.from_rows(_schedule_rows(data, "load"))

    topology: Optional[FleetTopology] = None
    if data.get("topology") is not None:
        topology = _topology_from_dict(data["topology"])

    return Scenario(
        controller_factory=controllers[name],
        device=device,
        network=network,
        load=load,
        duration=float(data["duration"]) if "duration" in data else None,
        seed=int(data.get("seed", 0)),
        gpu_model=gpu,
        batch_policy=BatchPolicy(data.get("batch_policy", "fifo")),
        uplink_queue_bytes=float(data.get("uplink_queue_bytes", 131_072.0)),
        topology=topology,
    )
