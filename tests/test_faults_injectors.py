"""Unit tests for the repro.faults injector catalog."""

import numpy as np
import pytest

from repro.control.framefeedback import FrameFeedbackController
from repro.device.config import DeviceConfig
from repro.experiments.scenario import Scenario, build_runtime
from repro.faults import (
    BandwidthCollapse,
    BurstLoss,
    CameraStall,
    CpuThrottle,
    FaultOverlapError,
    FaultTargets,
    FaultTimeline,
    FaultWindow,
    GpuContention,
    LatencySpike,
    OutageSchedule,
    ServerCrash,
    ServerSlowdown,
    validate_plan,
)
from repro.models.latency import GpuBatchModel
from repro.netem.link import ConditionBox, LinkConditions
from repro.netem.schedule import NetworkSchedule, SchedulePhase
from repro.server.requests import InferenceRequest
from repro.server.server import EdgeServer
from repro.sim import Environment
from repro.sim.rng import RngRegistry


def _runtime(total_frames=300, seed=0, network=None):
    return build_runtime(
        Scenario(
            controller_factory=lambda cfg: FrameFeedbackController(cfg.frame_rate),
            device=DeviceConfig(total_frames=total_frames),
            network=network,
            seed=seed,
        )
    )


# ----------------------------------------------------------------------
# window / timeline algebra
# ----------------------------------------------------------------------
def test_window_validation_and_queries():
    with pytest.raises(ValueError):
        FaultWindow(-1.0, 5.0)
    with pytest.raises(ValueError):
        FaultWindow(0.0, 0.0)
    w = FaultWindow(10.0, 5.0)
    assert w.end == 15.0
    assert w.contains(10.0) and w.contains(14.999) and not w.contains(15.0)
    assert w.overlaps(FaultWindow(14.0, 1.0))
    assert not w.overlaps(FaultWindow(15.0, 1.0))


def test_timeline_rejects_overlap_and_orders():
    with pytest.raises(FaultOverlapError):
        FaultTimeline.from_rows([(0, 10), (5, 10)])
    tl = FaultTimeline.from_rows([(30, 2), (10, 5)])
    assert [w.start for w in tl] == [10.0, 30.0]
    assert tl.active_at(10.0) and not tl.active_at(15.0)
    assert tl.total_active == 7.0
    assert tl.last_end == 32.0


def test_timeline_next_transition():
    tl = FaultTimeline.from_rows([(10, 5), (30, 2)])
    assert tl.next_transition(0.0) == 10.0
    assert tl.next_transition(10.0) == 15.0
    assert tl.next_transition(20.0) == 30.0
    assert tl.next_transition(40.0) == float("inf")


def test_timeline_union_coalesces():
    a = FaultTimeline.from_rows([(0, 10), (30, 5)])
    b = FaultTimeline.from_rows([(5, 10), (50, 1)])
    merged = a.union(b)
    assert [(w.start, w.end) for w in merged] == [(0, 15), (30, 35), (50, 51)]


def test_timeline_clipped_from():
    tl = FaultTimeline.from_rows([(0, 10), (20, 10)])
    clipped = tl.clipped_from(5.0)
    assert [(w.start, w.end) for w in clipped] == [(5.0, 10.0), (20.0, 30.0)]
    assert len(tl.clipped_from(50.0)) == 0


def test_validate_plan_resource_exclusivity():
    crash = ServerCrash(FaultTimeline.from_rows([(10, 10)]))
    slow = ServerSlowdown(FaultTimeline.from_rows([(15, 10)]), factor=2.0)
    throttle = CpuThrottle(FaultTimeline.from_rows([(12, 10)]), factor=2.0)
    # different resources may overlap in time
    validate_plan([crash, slow, throttle])
    # same resource (server.gpu) may not
    contention = GpuContention(FaultTimeline.from_rows([(20, 10)]))
    with pytest.raises(FaultOverlapError):
        validate_plan([slow, contention])
    # disjoint same-resource windows are fine
    validate_plan(
        [slow, GpuContention(FaultTimeline.from_rows([(40, 5)]))]
    )


# ----------------------------------------------------------------------
# link injectors: the override layer
# ----------------------------------------------------------------------
def test_bandwidth_collapse_applies_and_heals():
    rt = _runtime()
    fault = BandwidthCollapse(FaultTimeline.from_rows([(2.0, 3.0)]), factor=0.1)
    fault.install(rt.env, rt.fault_targets())
    rt.env.run(until=2.5)
    assert rt.box.conditions.bandwidth == pytest.approx(1.0)
    rt.env.run(until=6.0)
    assert rt.box.conditions.bandwidth == pytest.approx(10.0)


def test_link_fault_restacks_over_schedule_change():
    """A benign schedule change mid-fault stays degraded; healing
    restores the schedule's *current* phase, not a stale snapshot."""
    network = NetworkSchedule(
        [
            SchedulePhase(0.0, LinkConditions(bandwidth=10.0)),
            SchedulePhase(3.0, LinkConditions(bandwidth=4.0)),
        ]
    )
    rt = _runtime(network=network)
    fault = BandwidthCollapse(FaultTimeline.from_rows([(2.0, 4.0)]), factor=0.1)
    fault.install(rt.env, rt.fault_targets())
    rt.env.run(until=2.5)
    assert rt.box.conditions.bandwidth == pytest.approx(1.0)  # 10 * 0.1
    rt.env.run(until=3.5)
    assert rt.box.conditions.bandwidth == pytest.approx(0.4)  # 4 * 0.1
    rt.env.run(until=7.0)
    assert rt.box.conditions.bandwidth == pytest.approx(4.0)  # healed to phase 2


def test_latency_spike_and_burst_loss_transforms():
    cond = LinkConditions()
    spike = LatencySpike(FaultTimeline.from_rows([(0, 1)]), extra_delay=0.3)
    assert spike.total_failure  # beyond the 250 ms deadline
    out = spike.transform(cond)
    assert out.propagation_delay == pytest.approx(cond.propagation_delay + 0.3)

    burst = BurstLoss(FaultTimeline.from_rows([(0, 1)]), loss=0.3, burst=8.0)
    out = burst.transform(cond)
    assert out.loss == pytest.approx(0.3)
    assert out.loss_burst == pytest.approx(8.0)
    assert not burst.total_failure


def test_injector_parameter_validation():
    tl = FaultTimeline.from_rows([(0, 1)])
    with pytest.raises(ValueError):
        BandwidthCollapse(tl, factor=0.0)
    with pytest.raises(ValueError):
        BandwidthCollapse(tl, factor=1.0)
    with pytest.raises(ValueError):
        LatencySpike(tl, extra_delay=-0.1)
    with pytest.raises(ValueError):
        BurstLoss(tl, loss=0.0)
    with pytest.raises(ValueError):
        ServerSlowdown(tl, factor=1.0)
    with pytest.raises(ValueError):
        GpuContention(tl, mean_factor=0.5)
    with pytest.raises(ValueError):
        CpuThrottle(tl, factor=0.9)


# ----------------------------------------------------------------------
# server injectors
# ----------------------------------------------------------------------
def test_server_slowdown_stretches_batches():
    rt = _runtime()
    fault = ServerSlowdown(FaultTimeline.from_rows([(1.0, 2.0)]), factor=4.0)
    fault.install(rt.env, rt.fault_targets())
    rt.env.run(until=1.5)
    assert rt.server.gpu.slowdown == pytest.approx(4.0)
    rt.env.run(until=4.0)
    assert rt.server.gpu.slowdown == pytest.approx(1.0)


def test_gpu_contention_draws_seeded_factor():
    def factors(seed):
        rt = _runtime(seed=seed)
        fault = GpuContention(
            FaultTimeline.from_rows([(1.0, 1.0), (3.0, 1.0)]), mean_factor=3.0
        )
        fault.install(rt.env, rt.fault_targets())
        out = []
        for t in (1.5, 3.5):
            rt.env.run(until=t)
            out.append(rt.server.gpu.slowdown)
        return out

    a, b = factors(0), factors(0)
    assert a == b  # bit-reproducible under the seed
    assert all(f > 1.0 for f in a)
    assert a[0] != a[1]  # each window draws its own factor


def test_gpu_set_slowdown_validation():
    env = Environment()
    server = EdgeServer(env, np.random.default_rng(0))
    with pytest.raises(ValueError):
        server.gpu.set_slowdown(0.5)


def test_missing_target_raises():
    env = Environment()
    fault = ServerCrash(FaultTimeline.from_rows([(0.0, 1.0)]))
    with pytest.raises(ValueError):
        fault.install(env, FaultTargets())  # no server handle


# ----------------------------------------------------------------------
# device injectors
# ----------------------------------------------------------------------
def test_cpu_throttle_slows_local_pipeline():
    rt = _runtime()
    fault = CpuThrottle(FaultTimeline.from_rows([(1.0, 2.0)]), factor=3.0)
    fault.install(rt.env, rt.fault_targets())
    rt.env.run(until=1.5)
    assert rt.device.local.slowdown == pytest.approx(3.0)
    rt.env.run(until=4.0)
    assert rt.device.local.slowdown == pytest.approx(1.0)


def test_camera_stall_freezes_then_resumes():
    rt = _runtime(total_frames=300)
    fault = CameraStall(FaultTimeline.from_rows([(2.0, 3.0)]))
    fault.install(rt.env, rt.fault_targets())
    rt.env.run(until=2.1)
    emitted_at_stall = rt.device.source.frames_emitted
    assert rt.device.source.paused
    rt.env.run(until=4.9)
    assert rt.device.source.frames_emitted == emitted_at_stall  # frozen
    rt.env.run(until=8.0)
    assert not rt.device.source.paused
    assert rt.device.source.frames_emitted > emitted_at_stall  # resumed


# ----------------------------------------------------------------------
# OutageSchedule back-compat + the mid-sim installation fix
# ----------------------------------------------------------------------
def _pause_probe_server(env):
    """A server plus a response log to observe stall windows."""
    gpu = GpuBatchModel(base_latency=0.01, per_item=0.0, jitter_sigma=0.0)
    server = EdgeServer(env, np.random.default_rng(0), cost_model=gpu)
    responses = []

    def submit():
        server.submit(
            InferenceRequest(
                tenant="t",
                model_name="mobilenet_v3_small",
                sent_at=env.now,
                payload_bytes=10,
                respond=responses.append,
            )
        )

    return server, submit, responses


def test_outage_install_mid_sim_skips_past_windows():
    """A window fully in the past must not pause the server at all."""
    env = Environment()
    server, submit, responses = _pause_probe_server(env)
    env.run(until=30.0)
    OutageSchedule.from_rows([(5.0, 10.0)]).install(env, server)  # ended at 15
    submit()
    env.run(until=30.1)
    assert len(responses) == 1  # served immediately: no stale pause
    assert not server.paused


def test_outage_install_mid_sim_clips_straddling_window():
    """Installing at t=10 inside [5, 25) pauses only until 25, not 30."""
    env = Environment()
    server, submit, responses = _pause_probe_server(env)
    env.run(until=10.0)
    OutageSchedule.from_rows([(5.0, 20.0)]).install(env, server)
    submit()
    env.run(until=24.9)
    assert responses == []  # still inside the clipped window
    env.run(until=25.5)
    assert len(responses) == 1  # resumed at 25 (= 5 + 20), not 10 + 20


def test_outage_schedule_legacy_surface():
    sched = OutageSchedule.from_rows([(10, 5), (30, 2)])
    assert sched.is_down(12.0) and not sched.is_down(20.0)
    assert sched.total_downtime == 7.0
    assert len(sched.windows) == 2
    with pytest.raises(ValueError):
        OutageSchedule.from_rows([(0, 10), (5, 10)])

