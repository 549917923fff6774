"""The asyncio inference gateway: the deployable wall-clock surface.

The edge server of the paper's topology as a real service under
load: an enforcement point with admission control, deadline awareness
and a shutdown story, following the deadline-constrained-offloading
shape of Sedlak et al. (arXiv:2510.01885) and the token-bucket
admission discipline of Chakrabarti et al. (arXiv:2010.13737):

* **asyncio-native** — one event loop, every connection an
  :class:`asyncio.Protocol` driven by callbacks (no Task per connection
  or per frame), thousands of concurrent clients without a thread per
  socket;
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
  this is the ``BOUNDED_QUEUE`` policy of the server core it shares
  with the simulator (:mod:`repro.server.core`);
* **timeouts everywhere** — reads and writes are bounded per
  connection and the GPU model is a fixed delay, so one wedged client
  can never wedge the gateway;
* **closed accounting** — every decoded request reaches exactly one
  terminal status, including through a graceful stop (drained as
  REJECTED) and an aborted one (connections reset, which the client
  classifies itself).

The "GPU" is a timer for the simulator's own batch cost model
(:class:`~repro.models.latency.GpuBatchModel`, ``base_latency + per_item
* batch_size`` without jitter), so the simulator's server and the
gateway agree by construction — that shared core is what makes the
sim-vs-wall-clock twin test (:mod:`repro.realtime.twin`) meaningful.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Set, Tuple

from repro.models.latency import GpuBatchModel
from repro.realtime import protocol
from repro.resilience.budget import RetryBudget
from repro.server.batching import DEFAULT_BATCH_LIMIT, DEFAULT_QUEUE_LIMIT, BatchPolicy
from repro.server.core import ServerCore
from repro.server.requests import InferenceRequest, RequestOutcome

#: the one model served: its GPU cost is the cost model's unit, so a
#: batch of ``n`` costs exactly ``base_latency + per_item * n``
_MODEL = "mobilenet_v3_small"
#: counter and wire status of each outcome the core sheds; under
#: ``BOUNDED_QUEUE`` it rejects only queue heads whose deadline passed
_SHED: Dict[RequestOutcome, Tuple[str, bytes]] = {
    RequestOutcome.OVERLOADED: ("overloaded", protocol.STATUS_OVERLOADED),
    RequestOutcome.REJECTED: ("expired", protocol.STATUS_EXPIRED),
}
_STATUS_OK = protocol.STATUS_OK
#: the reply every completed frame gets: its bytes never change
_OK_REPLY = protocol.encode_reply(_STATUS_OK)
#: bytes one read may take; a frame longer than this is decoded over
#: several reads
_READ_SIZE = 1 << 14


@dataclass(frozen=True)
class GatewayConfig:
    """Every gateway knob, validated once."""

    host: str = "127.0.0.1"
    port: int = 0
    #: adaptive-batching cap (the simulator's batch_limit)
    batch_limit: int = DEFAULT_BATCH_LIMIT
    #: GPU latency model: ``base_latency + per_item * batch_size``
    base_latency: float = GpuBatchModel.base_latency
    per_item: float = GpuBatchModel.per_item
    #: accept-queue bound; beyond it the deadline-aware shed kicks in
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    #: per-tenant admitted frame rate (frames/s; None disables admission)
    tenant_rate: Optional[float] = None
    #: per-tenant admission burst (tokens)
    tenant_burst: float = 8.0
    #: bound on reading one request frame (covers idle keep-alive waits
    #: and mid-frame stalls alike)
    read_timeout: float = 30.0
    #: bound on a paused write: how long the peer may leave a response
    #: unread with the send buffer above its high-water mark
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


class _Connection(asyncio.BufferedProtocol):
    """One client connection: decode, serve one request at a time, reply.

    Requests are decoded as bytes arrive but served strictly one after
    another: the next is taken only once the previous reply is written
    (and the transport is not paused), so replies leave in request
    order.  Reading is bounded by one lazily re-armed timer per
    connection; writing by a timer armed only while the transport is
    paused.  Bytes are read into the connection's own buffer, which the
    decoder keeps no reference into, so a read allocates nothing.
    """

    def __init__(self, gateway: "InferenceGateway") -> None:
        self.gateway = gateway
        self.loop = gateway._loop
        self.transport: Optional[asyncio.Transport] = None
        self.decoder = protocol.RequestDecoder()
        self.read_buffer = memoryview(bytearray(_READ_SIZE))
        #: decoded requests not yet served
        self.backlog: Deque[protocol.Request] = deque()
        #: a request is in the gateway's queue or GPU, reply owed
        self.inflight = False
        #: the transport's buffer is above its high-water mark
        self.paused = False
        #: the peer sent a malformed frame, or closed inside one
        self.broken = False
        self.eof = False
        #: loop time the connection started waiting for the next frame
        #: (None while it is not waiting)
        self.read_since: Optional[float] = None
        self.read_timer: Optional[asyncio.TimerHandle] = None
        self.write_timer: Optional[asyncio.TimerHandle] = None
        #: chaos read stall before the next request, and whether the
        #: stall for the next request has already been served
        self.stall: Optional[asyncio.TimerHandle] = None
        self.stalled = False
        #: advance() is running (a settle inside it must not re-enter)
        self.serving = False

    # --- transport callbacks -------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        gateway = self.gateway
        gateway.stats.connections += 1
        # burst-loss chaos: reset this connection before reading a byte
        gateway._reset_credit += gateway.reset_fraction
        if gateway._reset_credit >= 1.0:
            gateway._reset_credit -= 1.0
            gateway.stats.resets += 1
            transport.abort()
            return
        self.transport = transport
        gateway._connections.add(self)
        self.advance()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.read_buffer

    def buffer_updated(self, nbytes: int) -> None:
        if self.broken:
            return
        try:
            self.decoder.feed(self.read_buffer[:nbytes], self.backlog)
        except protocol.ProtocolError:
            # answer what came before the bad frame, then drop the line
            self.broken = True
            self.transport.pause_reading()
        self.advance()

    def eof_received(self) -> bool:
        self.eof = True
        if self.decoder.mid_frame:
            self.broken = True
        self.advance()
        return True  # keep the write side open for owed replies

    def pause_writing(self) -> None:
        self.paused = True
        self.write_timer = self.loop.call_later(
            self.gateway.config.write_timeout, self.abort
        )

    def resume_writing(self) -> None:
        self.paused = False
        if self.write_timer is not None:
            self.write_timer.cancel()
            self.write_timer = None
        self.advance()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.transport = None
        for handle in (self.read_timer, self.write_timer, self.stall):
            if handle is not None:
                handle.cancel()
        self.read_timer = self.write_timer = self.stall = None
        self.backlog.clear()
        self.gateway._connection_lost(self)

    # --- serving -------------------------------------------------------
    def advance(self) -> None:
        """Serve backlog requests until one has to wait for something."""
        if self.serving:
            return  # a reply settled mid-serve: the running loop goes on
        self.serving = True
        gateway = self.gateway
        try:
            while (
                self.transport is not None
                and not self.inflight
                and not self.paused
                and self.stall is None
            ):
                if gateway._stopping:
                    self.close()
                    return
                if gateway.read_stall > 0.0 and not self.stalled:
                    self.read_since = None
                    self.stall = self.loop.call_later(gateway.read_stall, self._stall_done)
                    return
                if not self.backlog:
                    if self.broken:
                        gateway.stats.protocol_errors += 1
                        self.close()
                    elif self.eof:
                        self.close()
                    elif self.read_since is None:
                        self.read_since = self.loop.time()
                        if self.read_timer is None:
                            self.read_timer = self.loop.call_at(
                                self.read_since + gateway.config.read_timeout,
                                self._read_timer_fired,
                            )
                    return
                self.stalled = False
                self.read_since = None
                # in flight before it is queued: a queue shed may settle
                # it (through reply) before _submit returns
                self.inflight = True
                answer = gateway._submit(self.backlog.popleft(), self)
                if answer is not None:
                    self.inflight = False
                    self.transport.write(protocol.encode_reply(*answer))
        finally:
            self.serving = False

    def reply(self, status: bytes, hint: Optional[float]) -> None:
        """Settle callback: write the owed reply, then serve on."""
        self.inflight = False
        if self.transport is not None:
            self.transport.write(
                _OK_REPLY if status is _STATUS_OK else protocol.encode_reply(status, hint)
            )
            self.advance()

    def close(self) -> None:
        """Flush what is written, then close; nothing more is served."""
        transport, self.transport = self.transport, None
        if transport is not None:
            transport.close()

    def abort(self) -> None:
        """Reset the connection; replies owed to it are dropped."""
        transport, self.transport = self.transport, None
        if transport is not None:
            transport.abort()

    def _stall_done(self) -> None:
        self.stall = None
        self.stalled = True
        self.advance()

    def _read_timer_fired(self) -> None:
        self.read_timer = None
        if self.read_since is None or self.transport is None:
            return  # not waiting; advance() re-arms when it waits again
        due = self.read_since + self.gateway.config.read_timeout
        if self.loop.time() < due:
            self.read_timer = self.loop.call_at(due, self._read_timer_fired)
            return
        self.gateway.stats.read_timeouts += 1
        self.close()


class InferenceGateway:
    """Asyncio TCP gateway with admission, shedding and batching."""

    def __init__(self, config: Optional[GatewayConfig] = None) -> None:
        self.config = config or GatewayConfig()
        self.stats = GatewayStats()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        config = self.config
        self._core = ServerCore(
            GpuBatchModel(config.base_latency, config.per_item, jitter_sigma=0.0),
            batch_limit=config.batch_limit,
            policy=BatchPolicy.BOUNDED_QUEUE,
            queue_limit=config.queue_limit,
        )
        #: the pending batch start, or the timer that finishes the batch
        self._gpu: Optional[asyncio.Handle] = None
        self._connections: Set[_Connection] = set()
        #: resolved when the last connection goes during stop()
        self._all_closed: Optional[asyncio.Future] = None
        self._admission: Dict[str, RetryBudget] = {}
        self._stopping = False
        # --- chaos knobs (driven by realtime.chaos.WallClockInjector) --
        #: multiplies the GPU latency model (server_slowdown/contention)
        self.slowdown_factor = 1.0
        #: added to every batch's execution time (latency_spike)
        self.extra_latency = 0.0
        #: delay before reading each request frame (bandwidth collapse
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
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self.config.host, self.config.port
        )
        return self

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("gateway not started")
        return self._server.sockets[0].getsockname()[:2]

    async def stop(self, abort: bool = False) -> None:
        """Stop serving; ``abort=True`` emulates a crash (kill -9).

        Graceful stop drains the queue with REJECTED so every admitted
        frame still gets a terminal reply, then closes each connection
        once its owed reply is written; abort resets every open
        connection first — the client-visible shape of a process kill —
        and settles the GPU's and the queue's frames as REJECTED
        internally so the gateway's own accounting stays closed.
        """
        if self._server is None:
            return
        server, self._server = self._server, None
        self._stopping = True
        server.close()
        if abort:
            for conn in list(self._connections):
                conn.abort()
        if self._gpu is not None:
            self._gpu.cancel()
            self._gpu = None
        for req in self._core.drain():
            self._settle(req, "rejected", protocol.STATUS_REJECTED)
        for conn in list(self._connections):
            conn.advance()  # idle connections close now
        if self._connections:
            self._all_closed = self._loop.create_future()
            await asyncio.wait([self._all_closed], timeout=2.0)
            self._all_closed = None
        for conn in list(self._connections):
            conn.abort()
        await server.wait_closed()

    async def __aenter__(self) -> "InferenceGateway":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    def _connection_lost(self, conn: _Connection) -> None:
        self._connections.discard(conn)
        if not self._connections and self._all_closed is not None:
            if not self._all_closed.done():
                self._all_closed.set_result(None)

    # ------------------------------------------------------------------
    # admission and queue
    # ------------------------------------------------------------------
    def _submit(
        self, request: protocol.Request, conn: _Connection
    ) -> Optional[Tuple[bytes, Optional[float]]]:
        """Admit and queue one frame.

        Returns its reply when admission denies it outright, or None
        when it was queued (``conn.reply`` is called once it settles).
        """
        now = self._loop.time()
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
        # --- the core's bounded queue, deadline-aware shedding --------
        deadline_at = now + request.deadline if request.deadline is not None else None
        # positional: the hot path; request_id is the gateway's own count
        frame = InferenceRequest(
            request.tenant, _MODEL, now, request.payload_bytes, conn.reply,
            -1, 0, self.stats.received, now, deadline_at,
        )
        for victim, outcome, hint in self._core.submit(frame, now):
            self.stats.shed_overflow += 1
            self._settle(victim, *_SHED[outcome], hint)
        if self._gpu is None and not self._core.busy:
            self._gpu = self._loop.call_soon(self._start_batch)
        return None

    # ------------------------------------------------------------------
    # GPU
    # ------------------------------------------------------------------
    def _start_batch(self) -> None:
        """Form the next batch and arm the timer that finishes it."""
        self._gpu = None
        started = self._core.start_batch(self._loop.time())
        if started is None:
            return
        batch, shed, seconds = started
        for req, outcome, hint in shed:
            self._settle(req, *_SHED[outcome], hint)
        if batch:
            self._gpu = self._loop.call_later(
                seconds * self.slowdown_factor + self.extra_latency, self._finish_batch
            )

    def _finish_batch(self) -> None:
        self._gpu = None
        batch = self._core.finish()
        stats = self.stats
        stats.batches += 1
        stats.completed += len(batch)
        for req in batch:
            req.respond(_STATUS_OK, None)
        if self._gpu is None and self._core.queue_depth(_MODEL):
            self._start_batch()

    # ------------------------------------------------------------------
    def _settle(
        self,
        req: InferenceRequest,
        counter: str,
        status: bytes,
        hint: Optional[float] = None,
    ) -> None:
        """Resolve one frame to its single terminal status."""
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        req.respond(status, hint)
