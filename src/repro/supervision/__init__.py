"""Supervision layer: crash/restart recovery for the control plane.

The paper's loop assumes it never dies.  This package drops that
assumption:

* :class:`~repro.supervision.heartbeat.Heartbeat` — per-component
  liveness bookkeeping;
* :class:`~repro.supervision.checkpoint.CheckpointStore` /
  :class:`~repro.supervision.checkpoint.ControllerCheckpoint` —
  per-tick controller state snapshots (``P_o``, PID history, breaker)
  so a restarted controller resumes *warm*;
* :class:`~repro.supervision.supervisor.Supervisor` — the watchdog
  that detects dead loops and stale telemetry, applies the
  hold-then-decay degraded-telemetry policy, performs warm/cold
  restarts, and exports MTTR / missed-window / restart counters.

Pair it with the process-kill injectors in :mod:`repro.faults.process`
and the ``repro chaos --supervision`` scenario.
"""

from repro.supervision.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointStore,
    ControllerCheckpoint,
)
from repro.supervision.heartbeat import Heartbeat
from repro.supervision.supervisor import (
    SupervisionConfig,
    SupervisionStats,
    Supervisor,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointStore",
    "ControllerCheckpoint",
    "Heartbeat",
    "SupervisionConfig",
    "SupervisionStats",
    "Supervisor",
]
