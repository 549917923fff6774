"""Integration tests for the offload client's deadline bookkeeping."""

import numpy as np
import pytest

from repro.device.camera import Frame
from repro.device.offload import OffloadClient
from repro.models.latency import GpuBatchModel
from repro.netem.link import ConditionBox, Link, LinkConditions
from repro.server.server import EdgeServer
from repro.sim import Environment
from tests.timers import every


class Harness:
    """Device-side offload path with injectable link/server behaviour."""

    def __init__(self, conditions=None, gpu=None, deadline=0.25, seed=0):
        self.env = Environment()
        box = ConditionBox(conditions or LinkConditions(jitter_sigma=0.0))
        self.uplink = Link(self.env, np.random.default_rng(seed), box, "up")
        self.downlink = Link(self.env, np.random.default_rng(seed + 1), box, "down")
        self.server = EdgeServer(
            self.env,
            np.random.default_rng(seed + 2),
            cost_model=gpu or GpuBatchModel(jitter_sigma=0.0),
        )
        self.successes = []
        self.timeouts = []
        self.probes = []
        self.client = OffloadClient(
            self.env,
            uplink=self.uplink,
            downlink=self.downlink,
            server=self.server,
            tenant="pi",
            model_name="mobilenet_v3_small",
            deadline=deadline,
            response_bytes=160,
            on_success=lambda f, rtt: self.successes.append((f.frame_id, rtt)),
            on_timeout=lambda f, why: self.timeouts.append((f.frame_id, why)),
            on_probe_result=self.probes.append,
        )

    def send(self, frame_id=0, nbytes=11_700, is_probe=False):
        self.client.send(Frame(frame_id, self.env.now, nbytes), is_probe=is_probe)


def test_fast_path_counts_success_with_rtt():
    h = Harness()
    h.send(frame_id=7)
    h.env.run(until=1.0)
    assert len(h.successes) == 1
    fid, rtt = h.successes[0]
    assert fid == 7
    assert 0 < rtt < 0.25
    assert h.client.last_rtt == pytest.approx(rtt)
    assert h.timeouts == []


def test_dead_link_times_out_at_deadline():
    h = Harness(conditions=LinkConditions(bandwidth=1.0, jitter_sigma=0.0))
    h.send(frame_id=1)
    h.env.run(until=1.0)
    assert h.timeouts == [(1, "deadline")]
    assert h.successes == []


def test_timeout_fires_exactly_at_deadline():
    h = Harness(conditions=LinkConditions(bandwidth=1.0, jitter_sigma=0.0))
    h.send()
    # not yet timed out just before the deadline
    h.env.run(until=0.249)
    assert h.client.timeouts == 0
    h.env.run(until=0.251)
    assert h.client.timeouts == 1


def test_late_success_already_counted_as_timeout():
    """A response arriving after the deadline must not double-count."""
    slow_gpu = GpuBatchModel(base_latency=0.5, per_item=0.0, jitter_sigma=0.0)
    h = Harness(gpu=slow_gpu)
    h.send()
    h.env.run(until=2.0)
    assert len(h.timeouts) == 1
    assert h.successes == []
    assert h.client.outstanding_count == 0


def test_server_rejection_counts_as_timeout_immediately():
    gpu = GpuBatchModel(base_latency=0.08, per_item=0.0, jitter_sigma=0.0)
    h = Harness(gpu=gpu)
    # Server batch limit 1: second/third concurrent requests rejected.
    h.server.gpu.batch_limit = 1

    def later(_ev):
        h.send(frame_id=1)
        h.send(frame_id=2)

    h.send(frame_id=0)
    h.env.call_later(0.005, later)
    h.env.run(until=1.0)
    reasons = dict(h.timeouts)
    assert "rejected" in reasons.values()
    assert h.client.rejections >= 1
    # every frame settled exactly once
    assert len(h.successes) + len(h.timeouts) == 3


def test_pipelining_keeps_multiple_outstanding():
    h = Harness(gpu=GpuBatchModel(base_latency=0.1, per_item=0.0, jitter_sigma=0.0))

    every(h.env, 0.01, lambda i: h.send(frame_id=i), count=5)
    h.env.run(until=0.06)
    assert h.client.outstanding_count >= 3  # overlapped, not serialized
    h.env.run(until=2.0)
    # all settle; at least the first batch-worth make the deadline
    assert len(h.successes) + len(h.timeouts) == 5
    assert len(h.successes) >= 3


def test_probe_reports_result_not_success():
    h = Harness()
    h.send(frame_id=-1, is_probe=True)
    h.env.run(until=1.0)
    assert h.probes == [True]
    assert h.successes == []
    assert h.client.probes_sent == 1
    assert h.client.sent == 0


def test_probe_failure_reported_false():
    h = Harness(conditions=LinkConditions(bandwidth=1.0, jitter_sigma=0.0))
    h.send(frame_id=-1, is_probe=True)
    h.env.run(until=1.0)
    assert h.probes == [False]


def test_every_frame_settles_exactly_once_under_loss():
    h = Harness(conditions=LinkConditions(bandwidth=10.0, loss=0.3, jitter_sigma=0.0))

    every(h.env, 1 / 30, lambda i: h.send(frame_id=i), count=50)
    h.env.run(until=10.0)
    assert len(h.successes) + len(h.timeouts) == 50
    assert h.client.outstanding_count == 0
    settled_ids = [fid for fid, _ in h.successes] + [fid for fid, _ in h.timeouts]
    assert sorted(settled_ids) == list(range(50))
