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

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, List, Sequence

import numpy as np

from repro.server.requests import InferenceRequest, Response
from repro.server.server import EdgeServer
from repro.sim.core import Environment
from repro.sim.events import Event


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


#: standard exponentials drawn per ``standard_exponential`` call
DRAW_BLOCK = 128


class BackgroundLoad:
    """Poisson background request stream driven by a :class:`LoadSchedule`.

    Each request is one ``call_at`` timer at its delivery to the server
    (arrival + :attr:`NETWORK_DELAY`), armed when the previous one is
    delivered, so a request costs one event and the load nothing else.
    Arrival times are drawn lazily from the load's own rng stream,
    :data:`DRAW_BLOCK` gaps at a time; since nothing else draws from
    it, drawing ahead (the blocks, and :attr:`sent`) changes no
    outcome.
    """

    #: fixed one-way delay of the (unshaped) background tenants' network
    NETWORK_DELAY = 0.006
    #: EnvStats counts the delivery timers under this name
    event_owner = "background-load"

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
        # the schedule's phases, for bisection
        self._starts = [phase.start for phase in schedule.phases]
        self._rates = [phase.rate for phase in schedule.phases]
        self._arrivals = self._arrival_times(env.now)
        self._arm_next()

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
        process.  ``t`` advances by the same float additions a timer
        chain waiting from arrival to arrival would make.

        Each gap is ``(1 / rate) * e``, with ``e`` from a block of
        ``standard_exponential`` draws: ``exponential(1 / rate)`` makes
        that same product of the same draw, and nothing else reads this
        stream.  The phase and the next boundary are looked up again
        only once ``t`` reaches the end of the phase, or the boundary
        comes within the ``1e-12`` that makes it count as passed.
        """
        starts, rates = self._starts, self._rates
        last = len(starts) - 1
        inf = float("inf")
        draw_block = self.rng.standard_exponential
        draws: Iterator[float] = iter(())
        while True:
            k = bisect_right(starts, t, 1) - 1  # the phase of t (phase 0 before it)
            rate = rates[k]
            rate_end = starts[k + 1] if k < last else inf
            j = bisect_right(starts, t + 1e-12)
            next_change = starts[j] if j <= last else inf
            if rate <= 0:
                if next_change == inf:
                    return  # schedule ended at rate 0: nothing left to do
                t = t + (next_change - t)
                continue
            scale = 1.0 / rate
            while True:
                e = next(draws, None)
                if e is None:
                    draws = iter(draw_block(DRAW_BLOCK).tolist())
                    e = next(draws)
                gap = scale * e
                if t + gap >= next_change:
                    t = t + (next_change - t)
                    break
                t = t + gap
                yield t
                if t >= rate_end or t + 1e-12 >= next_change:
                    break

    def _arm_next(self) -> None:
        """Arm the timer at the oldest undelivered request's delivery."""
        ahead = self._ahead
        if not ahead:
            arrival = next(self._arrivals, None)
            if arrival is None:
                return  # the schedule ended at rate 0
            ahead.append(arrival)
        self.env.call_at(ahead[0] + self.NETWORK_DELAY, self._deliver)

    def _deliver(self, _event: Event) -> None:
        self._submit_one(self._ahead.popleft())
        self._arm_next()

    def _submit_one(self, sent_at: float) -> None:
        self._counter = counter = self._counter + 1
        # one per request, so positional (keywords cost more): tenant,
        # model_name, sent_at, payload_bytes, respond, frame_id
        self.server.submit(
            InferenceRequest(
                self.tenants[counter % len(self.tenants)],
                self.model_names[counter % len(self.model_names)],
                sent_at,
                self.payload_bytes,
                self._on_response,
                counter,
            )
        )

    def _on_response(self, response: Response) -> None:
        if response.ok:
            self.completed += 1
        else:
            self.rejected += 1
