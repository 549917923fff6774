"""A clairvoyant oracle controller (upper-bound reference).

The oracle reads the experiment's own schedules — the exact link
conditions and background load at every instant — and computes the
largest offloading rate the system can sustain within the deadline.
No real controller can do this (the whole point of FrameFeedback is
that these quantities are unobservable); the oracle exists to measure
*regret*: how much throughput feedback control leaves on the table
relative to perfect knowledge (the ``regret`` claim of
``framefeedback validate``).

The capacity model mirrors the substrate analytically:

* **link capacity** — per-frame wire time is the sum of per-packet
  serialization plus the expected ARQ stall overhead
  ``loss/(1-loss) * (RTO + packet_time)`` per packet;
* **deadline feasibility** — if a single frame's expected end-to-end
  time (uplink transit + minimum server latency + downlink) exceeds
  the deadline, no offloading rate works;
* **server headroom** — the GPU's mixed-workload saturation rate
  (per-model batches round-robin at the batch cap) minus the scheduled
  background rate;
* safety margins keep the operating point off the queueing cliff.
"""

from __future__ import annotations

from typing import Optional

from repro.control.base import Controller, Measurement
from repro.models.latency import GpuBatchModel
from repro.models.zoo import EFFICIENTNET_B0, MOBILENET_V3_SMALL, get_model
from repro.netem.link import Link, LinkConditions
from repro.netem.packet import PACKET_PAYLOAD_BYTES, packets_for
from repro.netem.schedule import NetworkSchedule
from repro.server.batching import DEFAULT_BATCH_LIMIT
from repro.workloads.loadgen import LoadSchedule

#: stay this far below computed link capacity (queueing safety)
LINK_MARGIN = 0.9
#: stay this far below computed server headroom
SERVER_MARGIN = 0.85


def expected_frame_wire_time(cond: LinkConditions, frame_bytes: int) -> float:
    """Expected serializer occupancy for one frame, ARQ stalls included."""
    n_packets = packets_for(frame_bytes)
    # all-but-last packets are full; the last is whatever remains
    total = 0.0
    remaining = frame_bytes
    for i in range(n_packets):
        payload = min(PACKET_PAYLOAD_BYTES, max(remaining, 1))
        remaining -= payload
        pkt_time = cond.packet_time(payload)
        stall = Link._rto(cond)
        retries = cond.loss / (1.0 - cond.loss) if cond.loss > 0 else 0.0
        total += pkt_time + retries * (stall + pkt_time)
    return total


def link_capacity_fps(cond: LinkConditions, frame_bytes: int) -> float:
    """Sustainable offload rate over the link (frames/s)."""
    return 1.0 / expected_frame_wire_time(cond, frame_bytes)


def mixed_server_capacity(
    gpu: GpuBatchModel, background_active: bool, batch_limit: int = DEFAULT_BATCH_LIMIT
) -> float:
    """Server saturation rate for the experiment's workload mix."""
    mobile = gpu.batch_latency(MOBILENET_V3_SMALL, batch_limit)
    if not background_active:
        return batch_limit / mobile
    effnet = gpu.batch_latency(EFFICIENTNET_B0, batch_limit)
    return 2 * batch_limit / (mobile + effnet)


class OracleController(Controller):
    """Schedule-reading clairvoyant controller."""

    name = "Oracle"

    def __init__(
        self,
        frame_rate: float,
        frame_bytes: int,
        deadline: float,
        network: Optional[NetworkSchedule] = None,
        load: Optional[LoadSchedule] = None,
        gpu_model: Optional[GpuBatchModel] = None,
        model_name: str = "mobilenet_v3_small",
    ) -> None:
        if frame_rate <= 0:
            raise ValueError(f"frame rate must be positive, got {frame_rate}")
        self.frame_rate = frame_rate
        self.frame_bytes = frame_bytes
        self.deadline = deadline
        self.network = network
        self.load = load
        self.gpu = gpu_model or GpuBatchModel()
        self.model = get_model(model_name)

    # ------------------------------------------------------------------
    def target_at(self, t: float) -> float:
        """The sustainable offload rate at time ``t``."""
        cond = self.network.at(t) if self.network is not None else LinkConditions()
        bg_rate = self.load.rate_at(t) if self.load is not None else 0.0

        # deadline feasibility of even a single pipelined frame
        wire = expected_frame_wire_time(cond, self.frame_bytes)
        min_server = self.gpu.batch_latency(self.model, 1)
        transit = wire + cond.propagation_delay * 2 + min_server
        if transit > self.deadline:
            return 0.0

        link_cap = LINK_MARGIN * link_capacity_fps(cond, self.frame_bytes)
        server_cap = mixed_server_capacity(self.gpu, background_active=bg_rate > 0)
        headroom = SERVER_MARGIN * max(0.0, server_cap - bg_rate)
        return max(0.0, min(self.frame_rate, link_cap, headroom))

    def initial_target(self, frame_rate: float) -> float:
        return self.target_at(0.0)

    def update(self, measurement: Measurement) -> float:
        # look one period ahead: the new target applies to the *next*
        # interval, and clairvoyance is the oracle's entire job
        return self.target_at(measurement.time)
