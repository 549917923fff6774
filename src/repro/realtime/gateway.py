"""The asyncio inference gateway: the deployable wall-clock surface.

The edge server of the paper's topology as a real service under
load: an enforcement point with admission control, deadline awareness
and a shutdown story, following the deadline-constrained-offloading
shape of Sedlak et al. (arXiv:2510.01885) and the token-bucket
admission discipline of Chakrabarti et al. (arXiv:2010.13737):

* **asyncio-native** — one event loop, every connection a coroutine,
  thousands of concurrent clients without a thread per socket;
* **wire protocol v2** (:mod:`repro.realtime.protocol`) — tenant id +
  deadline budget in, status byte + retry-after hint out;
* **per-tenant token-bucket admission** — the same continuous-refill
  bucket the resilience layer meters retries with
  (:class:`~repro.resilience.budget.RetryBudget`), here metering each
  tenant's offered load; denials carry the bucket's own estimate of
  when the next token lands;
* **bounded queue with deadline-aware shedding** — when the accept
  queue is full the gateway drops the frame that is going to miss its
  deadline anyway (soonest ``deadline_at``), never blindly the newest;
* **timeouts everywhere** — reads, writes and the GPU loop are all
  bounded, so one wedged client can never wedge the gateway;
* **closed accounting** — every decoded request reaches exactly one
  terminal status, including through a graceful stop (drained as
  REJECTED) and an aborted one (connections reset, which the client
  classifies itself).

The "GPU" is a calibrated affine sleep (``base_latency + per_item *
batch_size``), so the simulator's server model and the gateway agree
by construction — that shared calibration is what makes the
sim-vs-wall-clock twin test (:mod:`repro.realtime.twin`) meaningful.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Set, Tuple

from repro.realtime import protocol
from repro.resilience.budget import RetryBudget


@dataclass(frozen=True)
class GatewayConfig:
    """Every gateway knob, validated once."""

    host: str = "127.0.0.1"
    port: int = 0
    #: adaptive-batching cap (mirrors the simulator's batch_limit)
    batch_limit: int = 15
    #: GPU latency model: ``base_latency + per_item * batch_size``
    base_latency: float = 0.022
    per_item: float = 0.0055
    #: accept-queue bound; beyond it the deadline-aware shed kicks in
    queue_limit: int = 64
    #: per-tenant admitted frame rate (frames/s; None disables admission)
    tenant_rate: Optional[float] = None
    #: per-tenant admission burst (tokens)
    tenant_burst: float = 8.0
    #: bound on reading one request frame (covers idle keep-alive waits
    #: and mid-frame stalls alike)
    read_timeout: float = 30.0
    #: bound on flushing one response frame
    write_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.batch_limit < 1:
            raise ValueError(f"batch_limit must be >= 1, got {self.batch_limit}")
        if self.base_latency < 0 or self.per_item < 0:
            raise ValueError("GPU latency terms must be >= 0")
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.tenant_rate is not None and self.tenant_rate <= 0:
            raise ValueError(f"tenant_rate must be positive, got {self.tenant_rate}")
        if self.tenant_burst <= 0:
            raise ValueError(f"tenant_burst must be positive, got {self.tenant_burst}")
        if self.read_timeout <= 0 or self.write_timeout <= 0:
            raise ValueError("read/write timeouts must be positive")

    @property
    def batch_seconds(self) -> float:
        """Wall-clock cost of one full batch (drain-rate estimate)."""
        return self.base_latency + self.per_item * self.batch_limit


@dataclass
class GatewayStats:
    """Single-threaded counters (the event loop is the lock)."""

    connections: int = 0
    resets: int = 0
    received: int = 0
    completed: int = 0
    rejected: int = 0
    overloaded: int = 0
    expired: int = 0
    #: overloaded split: admission denials vs queue-overflow sheds
    admission_denied: int = 0
    shed_overflow: int = 0
    protocol_errors: int = 0
    read_timeouts: int = 0
    batches: int = 0

    @property
    def settled(self) -> int:
        """Requests that reached a terminal status."""
        return self.completed + self.rejected + self.overloaded + self.expired

    @property
    def accounting_closed(self) -> bool:
        """Every decoded request got exactly one terminal status."""
        return self.received == self.settled

    def as_dict(self) -> Dict[str, int]:
        return {
            "connections": self.connections,
            "resets": self.resets,
            "received": self.received,
            "completed": self.completed,
            "rejected": self.rejected,
            "overloaded": self.overloaded,
            "expired": self.expired,
            "admission_denied": self.admission_denied,
            "shed_overflow": self.shed_overflow,
            "protocol_errors": self.protocol_errors,
            "read_timeouts": self.read_timeouts,
            "batches": self.batches,
        }


class _Pending:
    """One admitted frame waiting for the GPU."""

    __slots__ = ("future", "deadline_at", "enqueued_at", "tenant")

    def __init__(
        self,
        future: "asyncio.Future[Tuple[bytes, Optional[float]]]",
        deadline_at: Optional[float],
        enqueued_at: float,
        tenant: str,
    ) -> None:
        self.future = future
        self.deadline_at = deadline_at
        self.enqueued_at = enqueued_at
        self.tenant = tenant

    def shed_key(self) -> Tuple[int, float]:
        """Victim ordering: soonest real deadline first, then oldest.

        A frame with an explicit deadline that is about to lapse is the
        one that will miss it anyway; among hint-less frames the oldest
        has been waiting longest and is closest to uselessness.
        """
        if self.deadline_at is not None:
            return (0, self.deadline_at)
        return (1, self.enqueued_at)


class InferenceGateway:
    """Asyncio TCP gateway with admission, shedding and batching."""

    def __init__(self, config: Optional[GatewayConfig] = None) -> None:
        self.config = config or GatewayConfig()
        self.stats = GatewayStats()
        self._server: Optional[asyncio.base_events.Server] = None
        self._gpu_task: Optional[asyncio.Task] = None
        self._queue: Deque[_Pending] = deque()
        self._queue_event = asyncio.Event()
        self._handlers: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._admission: Dict[str, RetryBudget] = {}
        self._stopping = False
        # --- chaos knobs (driven by realtime.chaos.WallClockInjector) --
        #: multiplies the GPU latency model (server_slowdown/contention)
        self.slowdown_factor = 1.0
        #: added to every batch's execution time (latency_spike)
        self.extra_latency = 0.0
        #: sleep before reading each request frame (bandwidth collapse
        #: approximated as a byte-level read stall)
        self.read_stall = 0.0
        #: fraction of new connections reset on arrival (burst loss);
        #: deterministic credit accumulator, no RNG on the data path
        self.reset_fraction = 0.0
        self._reset_credit = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "InferenceGateway":
        if self._server is not None:
            raise RuntimeError("gateway already started")
        self._stopping = False
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self._gpu_task = asyncio.ensure_future(self._gpu_loop())
        return self

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("gateway not started")
        return self._server.sockets[0].getsockname()[:2]

    async def stop(self, abort: bool = False) -> None:
        """Stop serving; ``abort=True`` emulates a crash (kill -9).

        Graceful stop drains the queue with REJECTED so every admitted
        frame still gets a terminal reply; abort resets every open
        connection mid-flight — the client-visible shape of a process
        kill — and settles queued frames as REJECTED internally so the
        gateway's own accounting stays closed.
        """
        if self._server is None:
            return
        self._stopping = True
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        if self._gpu_task is not None:
            self._gpu_task.cancel()
            try:
                await self._gpu_task
            except asyncio.CancelledError:
                pass
            self._gpu_task = None
        while self._queue:
            self._settle(self._queue.popleft(), "rejected", protocol.STATUS_REJECTED)
        if abort:
            for writer in list(self._writers):
                transport = writer.transport
                if transport is not None:
                    transport.abort()
        for task in list(self._handlers):
            if abort:
                task.cancel()
        if self._handlers:
            await asyncio.wait(list(self._handlers), timeout=2.0)
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()
        self._handlers.clear()

    async def __aenter__(self) -> "InferenceGateway":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # per-connection handler
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        self.stats.connections += 1
        # burst-loss chaos: reset this connection before reading a byte
        self._reset_credit += self.reset_fraction
        if self._reset_credit >= 1.0:
            self._reset_credit -= 1.0
            self.stats.resets += 1
            if writer.transport is not None:
                writer.transport.abort()
            return
        self._writers.add(writer)
        try:
            while not self._stopping:
                if self.read_stall > 0.0:
                    await asyncio.sleep(self.read_stall)
                try:
                    request = await asyncio.wait_for(
                        protocol.read_request(reader), timeout=self.config.read_timeout
                    )
                except asyncio.TimeoutError:
                    self.stats.read_timeouts += 1
                    return
                except protocol.ProtocolError:
                    self.stats.protocol_errors += 1
                    return
                if request is None:
                    return  # clean EOF
                status, hint = await self._process(request)
                writer.write(protocol.encode_reply(status, hint))
                try:
                    await asyncio.wait_for(
                        writer.drain(), timeout=self.config.write_timeout
                    )
                except asyncio.TimeoutError:
                    return
        except (ConnectionError, asyncio.CancelledError, OSError):
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    async def _process(self, request: protocol.Request):
        """Admit, queue and await one frame's terminal status."""
        loop = asyncio.get_running_loop()
        now = loop.time()
        self.stats.received += 1
        # --- per-tenant token-bucket admission ------------------------
        if self.config.tenant_rate is not None:
            bucket = self._admission.get(request.tenant)
            if bucket is None:
                bucket = RetryBudget(
                    rate=self.config.tenant_rate, burst=self.config.tenant_burst
                )
                self._admission[request.tenant] = bucket
            if not bucket.try_acquire(now):
                self.stats.overloaded += 1
                self.stats.admission_denied += 1
                hint = (1.0 - bucket.tokens(now)) / self.config.tenant_rate
                return protocol.STATUS_OVERLOADED, max(hint, 0.0)
        # --- bounded queue with deadline-aware shedding ---------------
        deadline_at = now + request.deadline if request.deadline is not None else None
        pending = _Pending(loop.create_future(), deadline_at, now, request.tenant)
        self._queue.append(pending)
        if len(self._queue) > self.config.queue_limit:
            victim = min(self._queue, key=_Pending.shed_key)
            self._queue.remove(victim)
            self.stats.shed_overflow += 1
            drain = (
                len(self._queue) / self.config.batch_limit + 1.0
            ) * self.config.batch_seconds
            self._settle(victim, "overloaded", protocol.STATUS_OVERLOADED, drain)
        self._queue_event.set()
        status, hint = await pending.future
        return status, hint

    # ------------------------------------------------------------------
    # GPU loop
    # ------------------------------------------------------------------
    async def _gpu_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if not self._queue:
                self._queue_event.clear()
                await self._queue_event.wait()
            batch = []
            now = loop.time()
            while self._queue and len(batch) < self.config.batch_limit:
                pending = self._queue.popleft()
                if pending.future.done():
                    continue  # settled by a shed between waits
                if pending.deadline_at is not None and pending.deadline_at <= now:
                    # an answer nobody can use: shed, don't compute
                    self._settle(pending, "expired", protocol.STATUS_EXPIRED)
                    continue
                batch.append(pending)
            if not batch:
                continue
            gpu_seconds = (
                self.config.base_latency + self.config.per_item * len(batch)
            ) * self.slowdown_factor + self.extra_latency
            try:
                await asyncio.sleep(gpu_seconds)
            except asyncio.CancelledError:
                # stop() killed the GPU mid-batch: the popped frames are
                # no longer in the queue, so settle them here or they
                # would leak out of the accounting
                for pending in batch:
                    self._settle(pending, "rejected", protocol.STATUS_REJECTED)
                raise
            self.stats.batches += 1
            for pending in batch:
                self._settle(pending, "completed", protocol.STATUS_OK)

    # ------------------------------------------------------------------
    def _settle(
        self,
        pending: _Pending,
        counter: str,
        status: bytes,
        hint: Optional[float] = None,
    ) -> None:
        """Resolve one frame to its single terminal status."""
        if pending.future.done():  # pragma: no cover - defensive
            return
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        pending.future.set_result((status, hint))
