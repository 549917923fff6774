"""Wall-clock runtime: the controller outside the simulator.

The paper's system runs on real devices and sockets.  This package
drives the *same* :class:`~repro.control.base.Controller` objects as
the simulator, in wall-clock time on one asyncio event loop, which
shows that nothing in the control layer depends on virtual time:

* :mod:`~repro.realtime.aio` — the device loop (frame ticker, local
  pipeline, offload path, 1 Hz measurement step) and an in-process
  fake remote with injectable conditions;
* :mod:`~repro.realtime.gateway` — the inference gateway (wire
  protocol v2, per-tenant admission, deadline-aware shedding, chaos
  knobs) with its resilient client (:mod:`~repro.realtime.client`),
  async load generator (:mod:`~repro.realtime.loadgen`), wall-clock
  fault injection (:mod:`~repro.realtime.chaos`) and sim-twin
  validation (:mod:`~repro.realtime.twin`).  See ``docs/realtime.md``.
"""

from repro.realtime.aio import (
    AsyncFakeRemote,
    AsyncLoopResult,
    AsyncRealTimeLoop,
    RemoteConditions,
)
from repro.realtime.client import (
    AsyncSocketRemote,
    FrameOutcome,
    ResilientSocketRemote,
)
from repro.realtime.gateway import GatewayConfig, GatewayStats, InferenceGateway

__all__ = [
    "AsyncFakeRemote",
    "AsyncLoopResult",
    "AsyncRealTimeLoop",
    "AsyncSocketRemote",
    "FrameOutcome",
    "GatewayConfig",
    "GatewayStats",
    "InferenceGateway",
    "RemoteConditions",
    "ResilientSocketRemote",
]
