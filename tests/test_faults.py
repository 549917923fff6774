"""Tests for server outage injection and the controllers' response."""

import numpy as np
import pytest

from repro.control.framefeedback import FrameFeedbackController
from repro.device.config import DeviceConfig
from repro.device.device import EdgeDevice
from repro.models.latency import GpuBatchModel
from repro.netem.link import ConditionBox, Link, LinkConditions
from repro.server.requests import InferenceRequest
from repro.server.server import EdgeServer
from repro.sim import Environment
from repro.sim.rng import RngRegistry
from repro.faults import OutageSchedule, OutageWindow
from tests.timers import every


# ----------------------------------------------------------------------
# schedule mechanics
# ----------------------------------------------------------------------
def test_window_validation():
    with pytest.raises(ValueError):
        OutageWindow(-1.0, 5.0)
    with pytest.raises(ValueError):
        OutageWindow(0.0, 0.0)
    with pytest.raises(ValueError):
        OutageSchedule([OutageWindow(0, 10), OutageWindow(5, 10)])


def test_is_down_and_total():
    sched = OutageSchedule.from_rows([(10, 5), (30, 2)])
    assert not sched.is_down(9.9)
    assert sched.is_down(10.0)
    assert sched.is_down(14.9)
    assert not sched.is_down(15.0)
    assert sched.total_downtime == 7.0


def test_negative_pause_rejected():
    env = Environment()
    server = EdgeServer(env, np.random.default_rng(0))
    with pytest.raises(ValueError):
        server.pause(-1.0)


# ----------------------------------------------------------------------
# server-level behaviour
# ----------------------------------------------------------------------
def test_paused_server_stalls_then_drains():
    env = Environment()
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

    server.pause(2.0)
    submit()
    env.run(until=1.9)
    assert responses == []  # stalled
    assert server.paused
    env.run(until=2.5)
    assert len(responses) == 1  # drained after resume
    assert not server.paused


def test_resume_rejects_accumulated_overflow():
    env = Environment()
    gpu = GpuBatchModel(base_latency=0.01, per_item=0.0, jitter_sigma=0.0)
    server = EdgeServer(env, np.random.default_rng(0), cost_model=gpu, batch_limit=5)
    outcomes = []

    def request(_i):
        server.submit(
            InferenceRequest(
                tenant="t",
                model_name="mobilenet_v3_small",
                sent_at=env.now,
                payload_bytes=10,
                respond=lambda r: outcomes.append(r.ok),
            )
        )

    server.pause(2.0)
    every(env, 0.05, request, count=20)  # all arrive during the stall
    env.run(until=4.0)
    assert outcomes.count(False) == 15  # one batch of 5 survives
    assert outcomes.count(True) == 5


# ----------------------------------------------------------------------
# closed-loop response
# ----------------------------------------------------------------------
def test_framefeedback_rides_through_outage():
    """During a server blackout the controller retreats toward the
    probe floor; after recovery it ramps back up."""
    env = Environment()
    rng = RngRegistry(0)
    server = EdgeServer(env, rng.stream("server"))
    OutageSchedule.from_rows([(20.0, 10.0)]).install(env, server)
    box = ConditionBox(LinkConditions())
    device = EdgeDevice(
        env,
        DeviceConfig(total_frames=1800),
        FrameFeedbackController(30.0),
        uplink=Link(env, rng.stream("up"), box),
        downlink=Link(env, rng.stream("down"), box),
        server=server,
        rng=rng.stream("dev"),
    )
    env.run(until=61.0)
    po = device.traces.offload_target
    before = po.mean_over(15.0, 20.0)
    during = po.mean_over(26.0, 31.0)
    after = po.mean_over(50.0, 61.0)
    assert before > 20.0
    assert during < 10.0  # backed off hard during the blackout
    assert after > 20.0  # and recovered
    # throughput never collapsed below the local floor for long
    assert device.traces.throughput.mean_over(25.0, 30.0) > 10.0
