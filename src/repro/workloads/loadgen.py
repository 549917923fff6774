"""Background tenant load: the §IV-C.2 server-load injector.

The paper injects multi-tenant load by having *other devices* send
request volume while the measured Pi runs.  Those devices have their
own (unshaped) network paths, so the injector submits requests to the
server directly with a small fixed network delay — the measured
device's shaped uplink is never shared with them, matching the paper's
topology where NetEm shapes only the Pi under test.

Arrivals are Poisson at the scheduled rate, alternating between the
two model families the paper notes it hits ("batch size limits are set
per model, so we hit both model types", §IV-C.2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, List, Sequence

import numpy as np

from repro.server.requests import InferenceRequest, Response
from repro.server.server import EdgeServer
from repro.sim.core import Environment


@dataclass(frozen=True)
class LoadPhase:
    """One row of Table VI: ``rate`` requests/s from ``start`` onward."""

    start: float
    rate: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"phase start must be >= 0, got {self.start}")
        if self.rate < 0:
            raise ValueError(f"rate must be >= 0, got {self.rate}")


class LoadSchedule:
    """Piecewise-constant background request rate."""

    def __init__(self, phases: Sequence[LoadPhase]) -> None:
        if not phases:
            raise ValueError("schedule needs at least one phase")
        ordered = sorted(phases, key=lambda p: p.start)
        if ordered[0].start != 0.0:
            raise ValueError("first phase must start at t=0")
        starts = [p.start for p in ordered]
        if len(set(starts)) != len(starts):
            raise ValueError("duplicate phase start times")
        self.phases: List[LoadPhase] = list(ordered)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "LoadSchedule":
        """Build from ``(start, rate)`` tuples."""
        return cls([LoadPhase(start=float(s), rate=float(r)) for s, r in rows])

    def rate_at(self, t: float) -> float:
        rate = self.phases[0].rate
        for phase in self.phases:
            if phase.start <= t:
                rate = phase.rate
            else:
                break
        return rate

    @property
    def change_times(self) -> List[float]:
        return [p.start for p in self.phases]

    @property
    def peak_rate(self) -> float:
        return max(p.rate for p in self.phases)


class BackgroundLoad:
    """Poisson background request stream driven by a :class:`LoadSchedule`.

    One process sleeps straight to each request's delivery at the
    server (arrival + :attr:`NETWORK_DELAY`), so a request costs one
    event.  Arrival times are drawn lazily from the load's own rng
    stream; since nothing else draws from it, drawing ahead (see
    :attr:`sent`) changes no outcome.
    """

    #: fixed one-way delay of the (unshaped) background tenants' network
    NETWORK_DELAY = 0.006

    def __init__(
        self,
        env: Environment,
        server: EdgeServer,
        schedule: LoadSchedule,
        rng: np.random.Generator,
        model_names: Sequence[str] = ("mobilenet_v3_small", "efficientnet_b0"),
        payload_bytes: int = 11_700,
        tenant_prefix: str = "bg",
        n_tenants: int = 8,
    ) -> None:
        if not model_names:
            raise ValueError("need at least one model")
        if n_tenants < 1:
            raise ValueError(f"need >= 1 tenant, got {n_tenants}")
        self.env = env
        self.server = server
        self.schedule = schedule
        self.rng = rng
        self.model_names = list(model_names)
        self.payload_bytes = payload_bytes
        self.tenants = [f"{tenant_prefix}{i}" for i in range(n_tenants)]
        self.completed = 0
        self.rejected = 0
        #: requests delivered to the server so far
        self._counter = 0
        #: arrival times drawn but not yet delivered, oldest first
        self._ahead: Deque[float] = deque()
        self._arrivals = self._arrival_times(env.now)
        env.process(self._run(), name="background-load")

    @property
    def sent(self) -> int:
        """Requests sent by now: every arrival at or before ``now``,
        including those still inside their network delay."""
        now = self.env.now
        ahead = self._ahead
        while not ahead or ahead[-1] <= now:
            arrival = next(self._arrivals, None)
            if arrival is None:
                break
            ahead.append(arrival)
        in_flight = 0
        for arrival in ahead:
            if arrival > now:
                break
            in_flight += 1
        return self._counter + in_flight

    # ------------------------------------------------------------------
    def _arrival_times(self, t: float) -> Iterator[float]:
        """Poisson arrival instants from ``t`` on; exact across rate changes.

        Because the exponential is memoryless, discarding an arrival
        that would land past the next schedule boundary and resampling
        at the boundary's new rate yields an exact piecewise-Poisson
        process.  ``t`` advances by the same float additions a process
        sleeping from arrival to arrival would make.
        """
        rng = self.rng
        while True:
            rate = self.schedule.rate_at(t)
            next_change = self._next_change_after(t)
            if rate <= 0:
                if next_change == float("inf"):
                    return  # schedule ended at rate 0: nothing left to do
                t = t + (next_change - t)
                continue
            gap = rng.exponential(1.0 / rate)
            if t + gap >= next_change:
                t = t + (next_change - t)
                continue
            t = t + gap
            yield t

    def _run(self):
        """Deliver each request at its arrival plus the network delay."""
        env = self.env
        ahead = self._ahead
        while True:
            if not ahead:
                arrival = next(self._arrivals, None)
                if arrival is None:
                    return
                ahead.append(arrival)
            yield env.sleep_until(ahead[0] + self.NETWORK_DELAY)
            self._submit_one(ahead.popleft())

    def _next_change_after(self, now: float) -> float:
        for t in self.schedule.change_times:
            if t > now + 1e-12:
                return t
        return float("inf")

    def _submit_one(self, sent_at: float) -> None:
        self._counter += 1
        model = self.model_names[self._counter % len(self.model_names)]
        tenant = self.tenants[self._counter % len(self.tenants)]
        self.server.submit(
            InferenceRequest(
                tenant=tenant,
                model_name=model,
                sent_at=sent_at,
                payload_bytes=self.payload_bytes,
                respond=self._on_response,
                frame_id=self._counter,
            )
        )

    def _on_response(self, response: Response) -> None:
        if response.ok:
            self.completed += 1
        else:
            self.rejected += 1
