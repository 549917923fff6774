"""Analytic oracle feasibility: is a scenario *winnable* at all?

The adversarial search maximizes deadline violations — and the
degenerate optimum is a scenario nobody can win (kill the link for the
whole run).  Those are excluded by a feasibility constraint built on
the clairvoyant oracle's capacity model (:mod:`repro.control.oracle`):
walk the compiled scenario's piecewise-constant intervals (schedule
phases x fault windows), compute the sustainable service rate on each
— offload capacity under the *faulted* link/GPU plus the device's
local rate — and require that

* the time-weighted serviceable fraction of demand stays above
  ``feasible_frac``, and
* total-blackout time (service below a standing-probe trickle while
  frames keep arriving) stays below ``blackout_limit``.

The estimate is deliberately conservative (the oracle's own safety
margins, worst-case contention factors, process-kill faults declared
unanalyzable): when :func:`analyze_feasibility` says *feasible*, an
actual oracle-controller run of the same scenario must achieve low
violations — ``tests/test_search_feasibility.py`` pins exactly that
implication, and the search double-checks it operationally
(:mod:`repro.search.runner`) before calling any scenario a finding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict

from repro.control.oracle import (
    LINK_MARGIN,
    SERVER_MARGIN,
    expected_frame_wire_time,
    link_capacity_fps,
    mixed_server_capacity,
)
from repro.models.device_profiles import local_rate
from repro.models.latency import GpuBatchModel
from repro.netem.link import LinkConditions
from repro.search.compiler import _spec_duration, build_injectors, compile_scenario
from repro.search.language import ScenarioSpec

#: serviceable fraction of demand below which a spec is unwinnable
DEFAULT_FEASIBLE_FRAC = 0.55
#: max fraction of demanded time the service rate may sit below the probe level
DEFAULT_BLACKOUT_LIMIT = 0.40
#: "blackout" means service below this fraction of the frame rate
PROBE_FRAC = 0.15

#: fault kinds the analytic model refuses to certify (conservative)
UNANALYZED_KINDS = frozenset({"controller_kill", "server_kill", "device_reboot"})


@dataclass(frozen=True)
class FeasibilityReport:
    """Verdict plus the quantities it was computed from."""

    feasible: bool
    #: time-weighted serviceable fraction of demand, in [0, 1]
    serviceable_frac: float
    #: fraction of demanded time spent in blackout
    blackout_frac: float
    frame_rate: float
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "feasible": self.feasible,
            "serviceable_frac": round(self.serviceable_frac, 9),
            "blackout_frac": round(self.blackout_frac, 9),
            "frame_rate": self.frame_rate,
            "detail": self.detail,
        }


def _active(entry: Dict[str, Any], t: float) -> bool:
    return any(s <= t < s + d for s, d in entry["windows"])


def analyze_feasibility(
    spec: ScenarioSpec,
    feasible_frac: float = DEFAULT_FEASIBLE_FRAC,
    blackout_limit: float = DEFAULT_BLACKOUT_LIMIT,
) -> FeasibilityReport:
    """Conservative analytic winnability check for one spec."""
    scenario = compile_scenario(spec)
    device = scenario.device
    frame_rate = device.frame_rate
    deadline = device.deadline
    frame_bytes = device.frame_spec.bytes_on_wire
    model = device.model
    base_local = local_rate(device.profile, model)
    gpu = scenario.gpu_model
    network = scenario.network
    load = scenario.load

    unanalyzed = sorted(
        {f["kind"] for f in spec.faults if f["kind"] in UNANALYZED_KINDS}
    )
    if unanalyzed:
        return FeasibilityReport(
            feasible=False,
            serviceable_frac=0.0,
            blackout_frac=1.0,
            frame_rate=frame_rate,
            detail=f"process-kill faults not analyzed: {unanalyzed}",
        )

    # the generator horizon, not ``device.stream_duration``: that is
    # ``frames * (1 / rate)``, which can differ from it in the last bit
    duration = _spec_duration(spec)
    injectors = build_injectors(spec)  # reuse transform() for link faults
    by_kind = list(zip(spec.faults, injectors))

    edges = {0.0, duration}
    if network is not None:
        edges.update(t for t in network.change_times if t < duration)
    if load is not None:
        edges.update(t for t in load.change_times if t < duration)
    for entry in spec.faults:
        for start, dur in entry["windows"]:
            if start < duration:
                edges.add(start)
            if start + dur < duration:
                edges.add(start + dur)
    points = sorted(edges)

    served_time = 0.0
    demand_time = 0.0
    blackout_time = 0.0
    demanded_span = 0.0
    for a, b in zip(points, points[1:]):
        dt = b - a
        if dt <= 0:
            continue
        mid = (a + b) / 2.0

        # demand: the camera produces frames unless stalled
        stalled = any(
            e["kind"] == "camera_stall" and _active(e, mid) for e in spec.faults
        )
        demand = 0.0 if stalled else frame_rate
        if demand == 0.0:
            continue

        cond = network.at(mid) if network is not None else LinkConditions()
        gpu_factor = 1.0
        server_down = False
        local = base_local
        for entry, injector in by_kind:
            if not _active(entry, mid):
                continue
            kind = entry["kind"]
            if kind in ("bandwidth_collapse", "burst_loss", "latency_spike"):
                cond = injector.transform(cond)
            elif kind == "server_slowdown":
                gpu_factor *= entry.get("factor", 4.0)
            elif kind == "gpu_contention":
                # conservative: ~p98 of the lognormal contention draw
                mean = entry.get("mean_factor", 3.0)
                sigma = entry.get("sigma", 0.25)
                gpu_factor *= mean * math.exp(2.0 * sigma)
            elif kind == "server_crash":
                server_down = True
            elif kind == "cpu_throttle":
                local /= entry.get("factor", 2.0)

        offload = 0.0
        if not server_down:
            eff_gpu = GpuBatchModel(
                base_latency=gpu.base_latency * gpu_factor,
                per_item=gpu.per_item * gpu_factor,
                jitter_sigma=gpu.jitter_sigma,
            )
            bg_rate = load.rate_at(mid) if load is not None else 0.0
            wire = expected_frame_wire_time(cond, frame_bytes)
            min_server = eff_gpu.batch_latency(model, 1)
            transit = wire + cond.propagation_delay * 2 + min_server
            if transit <= deadline:
                link_cap = LINK_MARGIN * link_capacity_fps(cond, frame_bytes)
                server_cap = mixed_server_capacity(
                    eff_gpu, background_active=bg_rate > 0
                )
                headroom = SERVER_MARGIN * max(0.0, server_cap - bg_rate)
                offload = max(0.0, min(frame_rate, link_cap, headroom))

        serviceable = min(demand, offload + local)
        served_time += serviceable * dt
        demand_time += demand * dt
        demanded_span += dt
        if serviceable < PROBE_FRAC * frame_rate:
            blackout_time += dt

    if demand_time <= 0.0:
        return FeasibilityReport(
            feasible=False,
            serviceable_frac=0.0,
            blackout_frac=1.0,
            frame_rate=frame_rate,
            detail="camera stalled for the whole run",
        )

    serviceable_frac = served_time / demand_time
    blackout_frac = blackout_time / demanded_span
    feasible = serviceable_frac >= feasible_frac and blackout_frac <= blackout_limit
    detail = ""
    if not feasible:
        detail = (
            f"serviceable {serviceable_frac:.2f} < {feasible_frac}"
            if serviceable_frac < feasible_frac
            else f"blackout {blackout_frac:.2f} > {blackout_limit}"
        )
    return FeasibilityReport(
        feasible=feasible,
        serviceable_frac=serviceable_frac,
        blackout_frac=blackout_frac,
        frame_rate=frame_rate,
        detail=detail,
    )
