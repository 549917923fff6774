"""The scenario language: every run, chaos run and search finding as one
JSON artifact.

A spec describes the declarative scenario (device, GPU, schedules,
seed, fleet topology) and everything a chaos or supervision run adds:

* **schedule generators** — ``network``/``load`` may be flat phase
  rows, *or* a generator dict (``diurnal`` traffic cycles,
  ``flash_crowd`` spikes, ``mobility``-driven link traces) the compiler
  lowers to explicit phases;
* **fault timelines** — a ``faults`` list composing the
  :mod:`repro.faults` window/timeline algebra declaratively (kind +
  parameters + ``(start, duration)`` windows);
* **populations** — a ``population`` block describing a heterogeneous
  device fleet that expands to per-device configs;
* **stacks** — ``resilience`` / ``supervision`` switches for the
  defense layers.

:mod:`repro.search.compiler` lowers a spec to a runnable scenario.

Determinism contract: :meth:`ScenarioSpec.to_json` is canonical.  For
any spec, ``from_json(to_json(spec)).to_json()`` is **byte-identical**
to ``to_json(spec)`` — normalization (key order, float coercion,
window ordering) happens once, in :meth:`ScenarioSpec.from_dict`, and
is idempotent.  Golden scenario files and the adversarial search both
lean on this.

Unknown keys are *errors everywhere*: a typoed field must never be
silently dropped in favour of a default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.faults.windows import FaultTimeline

#: format version stamped into golden scenario files
SPEC_VERSION = 1

# ----------------------------------------------------------------------
# field schemas: name -> coercion type (None = validated elsewhere)
# ----------------------------------------------------------------------

#: fault kinds -> parameter schema (all optional; injector defaults apply)
FAULT_KINDS: Dict[str, Dict[str, type]] = {
    "bandwidth_collapse": {"factor": float},
    "burst_loss": {"loss": float, "burst": float},
    "latency_spike": {"extra_delay": float, "extra_jitter": float},
    "server_crash": {"server": str},
    "server_slowdown": {"factor": float, "server": str},
    "gpu_contention": {"mean_factor": float, "sigma": float, "server": str},
    "cpu_throttle": {"factor": float},
    "camera_stall": {},
    "controller_kill": {"restart": str},
    "server_kill": {"server": str},
    "device_reboot": {},
}

#: network generator kinds -> parameter schema
NETWORK_KINDS: Dict[str, Dict[str, type]] = {
    "phases": {"rows": None},
    "diurnal": {
        "period": float,
        "base_bandwidth": float,
        "dip": float,
        "loss_peak": float,
        "step": float,
        "duration": float,
    },
    "mobility": {
        "radius_near": float,
        "radius_far": float,
        "lap_seconds": float,
        "laps": int,
        "step": float,
    },
}

#: load generator kinds -> parameter schema
LOAD_KINDS: Dict[str, Dict[str, type]] = {
    "phases": {"rows": None},
    "diurnal": {
        "period": float,
        "base_rate": float,
        "peak_rate": float,
        "step": float,
        "duration": float,
    },
    "flash_crowd": {
        "base_rate": float,
        "peak_rate": float,
        "at": float,
        "ramp": float,
        "hold": float,
        "decay": float,
        "step": float,
    },
}

POPULATION_KEYS: Dict[str, type] = {
    "size": int,
    "profiles": None,
    "models": None,
    "name_prefix": str,
}

#: multi-server fleet topology block (mirrors
#: :class:`repro.fleet.config.FleetConfig`; ``servers`` is required)
TOPOLOGY_KEYS: Dict[str, Optional[type]] = {
    "servers": None,
    "policy": str,
    "failover": bool,
    "admission_rate": float,
    "admission_burst": float,
    "probe_period": float,
    "stale_grace_periods": float,
    "fail_threshold": int,
    "probation": float,
}

#: top-level keys of the scenario language
TOP_LEVEL_KEYS = (
    "controller",
    "seed",
    "duration",
    "device",
    "gpu",
    "network",
    "load",
    "faults",
    "population",
    "topology",
    "resilience",
    "supervision",
    "batch_policy",
    "uplink_queue_bytes",
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


class SpecError(ValueError):
    """A scenario spec failed validation (unknown key, bad value)."""


def _reject_unknown(data: Dict[str, Any], allowed, where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise SpecError(
            f"unknown {where} field(s) {unknown}; "
            f"valid fields: {sorted(allowed)}"
        )


def _coerce(value: Any, kind: Optional[type], where: str) -> Any:
    if kind is None:
        return value
    try:
        if kind is bool:
            if not isinstance(value, bool):
                raise TypeError
            return value
        return kind(value)
    except (TypeError, ValueError):
        raise SpecError(f"{where}: expected {kind.__name__}, got {value!r}")


def _norm_windows(rows: Any, where: str) -> List[List[float]]:
    if not isinstance(rows, (list, tuple)) or not rows:
        raise SpecError(f"{where}: 'windows' must be a non-empty list of "
                        f"[start, duration] pairs, got {rows!r}")
    out = []
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != 2:
            raise SpecError(f"{where}: bad window {row!r} (need [start, duration])")
        out.append([float(row[0]), float(row[1])])
    out.sort()
    # delegate overlap/positivity validation to the faults algebra
    FaultTimeline.from_rows([tuple(r) for r in out])
    return out


def _norm_fault(entry: Any, index: int) -> Dict[str, Any]:
    where = f"faults[{index}]"
    if not isinstance(entry, dict):
        raise SpecError(f"{where}: expected an object, got {entry!r}")
    kind = entry.get("kind")
    if kind not in FAULT_KINDS:
        raise SpecError(
            f"{where}: unknown fault kind {kind!r}; "
            f"valid kinds: {sorted(FAULT_KINDS)}"
        )
    schema = FAULT_KINDS[kind]
    _reject_unknown(entry, {"kind", "windows", *schema}, where)
    if "windows" not in entry:
        raise SpecError(f"{where}: fault needs 'windows'")
    out: Dict[str, Any] = {"kind": kind, "windows": _norm_windows(entry["windows"], where)}
    for key, typ in schema.items():
        if key in entry:
            out[key] = _coerce(entry[key], typ, f"{where}.{key}")
    return out


def _norm_schedule(value: Any, kinds: Dict[str, Dict[str, type]],
                   row_len: int, where: str) -> Any:
    """Normalize a schedule field: phase rows, or a generator dict."""
    if isinstance(value, dict):
        kind = value.get("kind")
        if kind not in kinds:
            raise SpecError(
                f"{where}: unknown generator kind {kind!r}; "
                f"valid kinds: {sorted(kinds)}"
            )
        schema = kinds[kind]
        _reject_unknown(value, {"kind", *schema}, where)
        out: Dict[str, Any] = {"kind": kind}
        for key, typ in schema.items():
            if key in value:
                if key == "rows":
                    out[key] = _norm_rows(value[key], row_len, f"{where}.rows")
                else:
                    out[key] = _coerce(value[key], typ, f"{where}.{key}")
        if kind == "phases" and "rows" not in out:
            raise SpecError(f"{where}: phases generator needs 'rows'")
        return out
    return _norm_rows(value, row_len, where)


def _norm_rows(rows: Any, row_len: int, where: str) -> List[List[float]]:
    if not isinstance(rows, (list, tuple)) or not rows:
        raise SpecError(f"{where}: expected a non-empty list of rows, got {rows!r}")
    out = []
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != row_len:
            raise SpecError(
                f"{where}: bad row {row!r} (need {row_len} numbers)"
            )
        out.append([float(x) for x in row])
    return out


@dataclass(frozen=True)
class ScenarioSpec:
    """One normalized scenario in the scenario language.

    Construct through :meth:`from_dict` / :meth:`from_json` (which
    validate and normalize) — the constructor trusts its input.
    ``data`` is the sparse normalized dict; only keys the author set
    are present, so specs stay small and mutations stay local.
    """

    data: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "ScenarioSpec":
        if not isinstance(raw, dict):
            raise SpecError(f"scenario spec must be an object, got {raw!r}")
        _reject_unknown(raw, TOP_LEVEL_KEYS, "scenario")
        out: Dict[str, Any] = {}
        if "controller" in raw:
            out["controller"] = _coerce(raw["controller"], str, "controller")
        if "seed" in raw:
            out["seed"] = _coerce(raw["seed"], int, "seed")
        if "duration" in raw:
            out["duration"] = _coerce(raw["duration"], float, "duration")
        if "batch_policy" in raw:
            out["batch_policy"] = _coerce(raw["batch_policy"], str, "batch_policy")
        if "uplink_queue_bytes" in raw:
            out["uplink_queue_bytes"] = _coerce(
                raw["uplink_queue_bytes"], float, "uplink_queue_bytes"
            )
        for flag in ("resilience", "supervision"):
            if flag in raw:
                out[flag] = _coerce(raw[flag], bool, flag)

        if "device" in raw:
            dev = raw["device"]
            if not isinstance(dev, dict):
                raise SpecError(f"device: expected an object, got {dev!r}")
            _reject_unknown(dev, DEVICE_KEYS, "device")
            norm_dev: Dict[str, Any] = {}
            for key in DEVICE_KEYS:
                if key not in dev:
                    continue
                if key in ("name", "profile", "model"):
                    norm_dev[key] = _coerce(dev[key], str, f"device.{key}")
                elif key in ("t_window_buckets", "total_frames", "resolution"):
                    norm_dev[key] = _coerce(dev[key], int, f"device.{key}")
                else:
                    norm_dev[key] = _coerce(dev[key], float, f"device.{key}")
            out["device"] = norm_dev

        if "gpu" in raw:
            gpu = raw["gpu"]
            if not isinstance(gpu, dict):
                raise SpecError(f"gpu: expected an object, got {gpu!r}")
            _reject_unknown(gpu, GPU_KEYS, "gpu")
            out["gpu"] = {
                k: _coerce(gpu[k], float, f"gpu.{k}") for k in GPU_KEYS if k in gpu
            }

        if "network" in raw and raw["network"] is not None:
            out["network"] = _norm_schedule(
                raw["network"], NETWORK_KINDS, 3, "network"
            )
        if "load" in raw and raw["load"] is not None:
            out["load"] = _norm_schedule(raw["load"], LOAD_KINDS, 2, "load")

        if "faults" in raw:
            faults = raw["faults"]
            if not isinstance(faults, (list, tuple)):
                raise SpecError(f"faults: expected a list, got {faults!r}")
            out["faults"] = [_norm_fault(f, i) for i, f in enumerate(faults)]

        if "topology" in raw:
            topo = raw["topology"]
            if not isinstance(topo, dict):
                raise SpecError(f"topology: expected an object, got {topo!r}")
            _reject_unknown(topo, TOPOLOGY_KEYS, "topology")
            if "servers" not in topo:
                raise SpecError("topology: needs 'servers'")
            servers = topo["servers"]
            if not isinstance(servers, (list, tuple)) or not servers:
                raise SpecError(
                    "topology.servers: expected a non-empty list of names, "
                    f"got {servers!r}"
                )
            names = [_coerce(n, str, "topology.servers[]") for n in servers]
            if len(set(names)) != len(names):
                raise SpecError(f"topology.servers: duplicate names in {names}")
            norm_topo: Dict[str, Any] = {"servers": names}
            for key, typ in TOPOLOGY_KEYS.items():
                if key == "servers" or key not in topo:
                    continue
                norm_topo[key] = _coerce(topo[key], typ, f"topology.{key}")
            out["topology"] = norm_topo

        if "population" in raw:
            pop = raw["population"]
            if not isinstance(pop, dict):
                raise SpecError(f"population: expected an object, got {pop!r}")
            _reject_unknown(pop, POPULATION_KEYS, "population")
            if "size" not in pop:
                raise SpecError("population: needs 'size'")
            norm_pop: Dict[str, Any] = {"size": _coerce(pop["size"], int, "population.size")}
            if norm_pop["size"] < 1:
                raise SpecError(f"population.size must be >= 1, got {norm_pop['size']}")
            for key in ("profiles", "models"):
                if key in pop:
                    names = pop[key]
                    if not isinstance(names, (list, tuple)) or not names:
                        raise SpecError(
                            f"population.{key}: expected a non-empty list of names"
                        )
                    norm_pop[key] = [
                        _coerce(n, str, f"population.{key}[]") for n in names
                    ]
            if "name_prefix" in pop:
                norm_pop["name_prefix"] = _coerce(
                    pop["name_prefix"], str, "population.name_prefix"
                )
            out["population"] = norm_pop

        spec = cls(out)
        spec.validate()
        return spec

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Cross-field checks that need the registries (cheap, import-lazy)."""
        from repro.experiments.standard import extended_controllers
        from repro.models.device_profiles import DEVICE_PROFILES
        from repro.models.zoo import MODEL_ZOO

        controller = self.data.get("controller", "FrameFeedback")
        if controller not in extended_controllers():
            raise SpecError(
                f"unknown controller {controller!r}; "
                f"available: {sorted(extended_controllers())}"
            )
        dev = self.data.get("device", {})
        profile = dev.get("profile")
        if profile is not None and profile not in DEVICE_PROFILES:
            raise SpecError(
                f"unknown device profile {profile!r}; "
                f"available: {sorted(DEVICE_PROFILES)}"
            )
        model = dev.get("model")
        if model is not None and model not in MODEL_ZOO:
            raise SpecError(
                f"unknown model {model!r}; available: {sorted(MODEL_ZOO)}"
            )
        policy = self.data.get("batch_policy")
        if policy is not None:
            from repro.server.batching import BatchPolicy

            # bounded_queue is the wall-clock gateway's, not a server's
            policies = sorted(
                p.value for p in BatchPolicy if p is not BatchPolicy.BOUNDED_QUEUE
            )
            if policy not in policies:
                raise SpecError(
                    f"batch_policy: unknown policy {policy!r}; "
                    f"valid policies: {policies}"
                )
        topo = self.data.get("topology")
        if topo is not None:
            from repro.fleet.config import ROUTER_POLICIES

            policy = topo.get("policy")
            if policy is not None and policy not in ROUTER_POLICIES:
                raise SpecError(
                    f"topology.policy: unknown policy {policy!r}; "
                    f"valid policies: {sorted(ROUTER_POLICIES)}"
                )
        # Fault timelines naming a server must target a declared member
        # — a typoed name silently hitting nothing is the exact failure
        # mode the unknown-key rule exists to kill.
        servers = set(topo["servers"]) if topo is not None else None
        for i, entry in enumerate(self.data.get("faults", [])):
            target = entry.get("server")
            if target is None:
                continue
            if servers is None:
                raise SpecError(
                    f"faults[{i}]: fault targets server {target!r} but the "
                    "spec has no 'topology' block"
                )
            if target not in servers:
                raise SpecError(
                    f"faults[{i}]: unknown server {target!r}; "
                    f"valid servers: {sorted(servers)}"
                )
        pop = self.data.get("population")
        if pop:
            for name in pop.get("profiles", ()):
                if name not in DEVICE_PROFILES:
                    raise SpecError(
                        f"population: unknown profile {name!r}; "
                        f"available: {sorted(DEVICE_PROFILES)}"
                    )
            for name in pop.get("models", ()):
                if name not in MODEL_ZOO:
                    raise SpecError(
                        f"population: unknown model {name!r}; "
                        f"available: {sorted(MODEL_ZOO)}"
                    )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def controller(self) -> str:
        return self.data.get("controller", "FrameFeedback")

    @property
    def seed(self) -> int:
        return self.data.get("seed", 0)

    @property
    def faults(self) -> List[Dict[str, Any]]:
        return self.data.get("faults", [])

    def replace(self, **updates: Any) -> "ScenarioSpec":
        """A new validated spec with top-level keys replaced.

        Pass ``key=None`` to delete a key.
        """
        merged = {**self.data}
        for key, value in updates.items():
            if value is None:
                merged.pop(key, None)
            else:
                merged[key] = value
        return ScenarioSpec.from_dict(merged)

    # ------------------------------------------------------------------
    # canonical serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The normalized sparse dict (deep copy; safe to mutate)."""
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """Canonical byte-stable serialization (newline-terminated)."""
        return json.dumps(self.data, indent=1, sort_keys=True) + "\n"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ScenarioSpec) and self.to_json() == other.to_json()

    def __hash__(self) -> int:
        return hash(self.to_json())


def read_spec_json(path: str) -> Any:
    """The JSON document in a spec file; malformed JSON is a SpecError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: not valid JSON ({exc})") from None


def load_spec(path: str) -> ScenarioSpec:
    """Read and validate a scenario spec file."""
    return ScenarioSpec.from_dict(read_spec_json(path))
