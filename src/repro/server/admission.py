"""Reservation broker: an ATOMS-flavoured admission baseline (§V-B).

ATOMS [23] coordinates multi-tenant offloading with reservations,
planning and clock sync; the paper argues that machinery is heavyweight
and blind to network variability.  To make that argument measurable,
this module implements the reservation *idea* at its most favourable:

* clients ask the broker for an offloading rate each period;
* the broker measures unreserved (background) demand at the server,
  computes remaining capacity against the GPU's mixed-workload
  saturation rate, and grants equal shares capped by each ask;
* grants are authoritative — a reserving client offloads exactly its
  grant and never probes.

The broker sees server load perfectly (better than real ATOMS, which
must predict it) but — like ATOMS — knows nothing about each client's
network path.  The ``reservation-blind-spot`` claim of
``framefeedback validate`` shows the
consequence: reservation matches FrameFeedback under pure server load
and falls apart under network degradation.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.models.latency import GpuBatchModel
from repro.server.server import EdgeServer
from repro.sim.core import Environment


class ReservationBroker:
    """Server-side rate-reservation service."""

    def __init__(
        self,
        env: Environment,
        server: EdgeServer,
        gpu_model: Optional[GpuBatchModel] = None,
        utilization_target: float = 0.85,
        measure_period: float = 1.0,
    ) -> None:
        if not 0.0 < utilization_target <= 1.0:
            raise ValueError(
                f"utilization target must be in (0, 1], got {utilization_target}"
            )
        if measure_period <= 0:
            raise ValueError("measure period must be positive")
        self.env = env
        self.server = server
        self.gpu = gpu_model or GpuBatchModel()
        self.utilization_target = utilization_target
        self.measure_period = measure_period
        self._asks: Dict[str, float] = {}
        self._background_rate = 0.0
        self._prev_counts: Dict[str, int] = {}
        env.process(self._measure_loop(), name="reservation-broker")

    # ------------------------------------------------------------------
    @property
    def background_rate(self) -> float:
        """Most recent unreserved request rate (req/s)."""
        return self._background_rate

    def capacity(self) -> float:
        """Usable server capacity for the current workload mix."""
        from repro.control.oracle import mixed_server_capacity

        return self.utilization_target * mixed_server_capacity(
            self.gpu, background_active=self._background_rate > 0
        )

    def request(self, tenant: str, rate: float) -> float:
        """Ask for ``rate``; returns the granted rate (frames/s).

        Grants are equal shares of the remaining capacity, capped by
        each tenant's ask (max-min fairness over one round).
        """
        if rate < 0:
            raise ValueError(f"negative ask {rate}")
        self._asks[tenant] = rate
        available = max(0.0, self.capacity() - self._background_rate)
        # max-min: everyone gets min(ask, fair share of what's left)
        remaining = available
        pending = dict(self._asks)
        grants: Dict[str, float] = {}
        while pending and remaining > 1e-9:
            share = remaining / len(pending)
            satisfied = {t: ask for t, ask in pending.items() if ask <= share}
            if not satisfied:
                for t in pending:
                    grants[t] = share
                remaining = 0.0
                break
            for t, ask in satisfied.items():
                grants[t] = ask
                remaining -= ask
                del pending[t]
        for t in pending:
            grants.setdefault(t, 0.0)
        return grants.get(tenant, 0.0)

    def release(self, tenant: str) -> None:
        """Drop a tenant's standing ask."""
        self._asks.pop(tenant, None)

    # ------------------------------------------------------------------
    def _measure_loop(self):
        env = self.env
        while True:
            yield env.sleep(self.measure_period)
            counts = dict(self.server.stats.per_tenant_received)
            delta = 0.0
            for tenant, total in counts.items():
                if tenant in self._asks:
                    continue  # reserved traffic is accounted separately
                delta += total - self._prev_counts.get(tenant, 0)
            self._prev_counts = counts
            self._background_rate = delta / self.measure_period
