"""Resilient asyncio offload client for the inference gateway.

This is :mod:`repro.resilience` on real sockets: the client holds a
:class:`~repro.resilience.layer.ResilienceLayer` and takes the
simulator's retry gate, reply verdict and settle bookkeeping from it
unchanged, every ``now`` fed from ``loop.time()`` instead of simulated
time.

Two layers:

* :class:`AsyncSocketRemote` — a plain wire-protocol-v2 client with a
  small connection pool (persistent connections, one frame in flight
  per connection, stale pooled sockets discarded);
* :class:`ResilientSocketRemote` — the defended path: per-frame
  deadline budget, hedged retransmission gated by the retry budget,
  breaker-with-local-fallback, submit-driven half-open probes, and the
  shared :class:`~repro.metrics.taxonomy.FailureTaxonomy` so
  wall-clock runs emit the same failure counters the simulator does.

Every ``submit_frame`` call resolves to exactly one
:class:`FrameOutcome` — the closed-accounting contract the chaos
invariants (:mod:`repro.realtime.chaos`) assert.
"""

from __future__ import annotations

import asyncio
import enum
from typing import Dict, List, Optional, Tuple

from repro.metrics.taxonomy import FailureKind
from repro.realtime import protocol
from repro.resilience.config import ResilienceConfig
from repro.resilience.layer import LATE, RESEND, ResilienceLayer, verdict


class FrameOutcome(enum.Enum):
    """The single terminal state of one submitted frame."""

    COMPLETED = "completed"
    #: no useful reply within the deadline budget (network silence,
    #: connect failure, reset, or a reply that arrived too late)
    TIMEOUT = "timeout"
    #: explicit server rejection (batch overflow / drain)
    REJECTED = "rejected"
    #: explicit overload pushback (admission or queue shed)
    OVERLOADED = "overloaded"
    #: server shed the frame because its deadline had already lapsed
    EXPIRED = "expired"
    #: breaker open: frame diverted to the local pipeline unsent
    FALLBACK_LOCAL = "fallback_local"

    # Members are singletons, so identity is a sound hash, and a C-level
    # one: Enum's own hashes the member's name in Python, twice for each
    # settled frame (``counts[outcome] += 1``).
    __hash__ = object.__hash__


#: the outcome and failure kind each reply status settles a frame as
_SETTLES = {
    protocol.STATUS_OK: (FrameOutcome.COMPLETED, None),
    protocol.STATUS_REJECTED: (FrameOutcome.REJECTED, FailureKind.REJECTED),
    protocol.STATUS_OVERLOADED: (FrameOutcome.OVERLOADED, FailureKind.OVERLOADED),
    # a server-side deadline shed is an explicit rejection of a frame
    # that had already missed its budget
    protocol.STATUS_EXPIRED: (FrameOutcome.EXPIRED, FailureKind.REJECTED),
}

#: what a lost copy raises: no useful reply from it (anything else
#: propagates)
_TRANSPORT_ERRORS = (asyncio.TimeoutError, ConnectionError, OSError, protocol.ProtocolError)


class _Wake:
    """A waiting frame's wake-up: resolves the future its coroutine is
    parked on.  A reply, a reset and the client's timer all call it."""

    __slots__ = ("future",)

    def __init__(self, future: asyncio.Future) -> None:
        self.future = future

    def __call__(self, _reply: object = None) -> None:
        future = self.future
        if not future.done():
            future.set_result(None)


class _ClientConnection(asyncio.BufferedProtocol):
    """One pooled socket with at most one request in flight.

    :meth:`send` writes a request and returns the future its reply
    resolves; the connection goes back to its pool the moment the reply
    is read, and the waiting frame's wake-up is called right there, in
    the read callback.  Replies are read into the connection's own small
    buffer, so a read allocates nothing.
    """

    def __init__(self, owner: "AsyncSocketRemote") -> None:
        self.owner = owner
        self.transport: Optional[asyncio.Transport] = None
        self.waiter: Optional["asyncio.Future[protocol.Reply]"] = None
        #: called once :attr:`waiter` is resolved
        self.wake: Optional[_Wake] = None
        #: the start of a reply that arrived split
        self.buffer = b""
        #: room for a reply and then some: more bytes than a reply in
        #: one read show the stream is out of step
        self.read_buffer = memoryview(bytearray(8 * protocol.REPLY_SIZE))
        self.idle_since = 0.0
        #: why the connection went, for a send after it did
        self.lost: Optional[BaseException] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport

    def send(self, data: bytes,
             wake: Optional[_Wake] = None) -> "asyncio.Future[protocol.Reply]":
        self.waiter = waiter = self.owner._loop.create_future()
        if self.transport is None:
            waiter.set_exception(self.lost)
            if wake is not None:
                wake()
        else:
            self.wake = wake
            self.transport.write(data)
        return waiter

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.read_buffer

    def buffer_updated(self, nbytes: int) -> None:
        data = self.read_buffer[:nbytes]
        if self.buffer:
            data = self.buffer + data
        if len(data) < protocol.REPLY_SIZE:
            self.buffer = bytes(data)
            return
        self.buffer = b""
        waiter, self.waiter = self.waiter, None
        wake, self.wake = self.wake, None
        if waiter is None or waiter.done() or len(data) > protocol.REPLY_SIZE:
            # bytes nobody asked for: the stream is out of step
            self.close()
            if waiter is not None and not waiter.done():
                waiter.set_exception(protocol.ProtocolError("unsolicited reply bytes"))
        else:
            try:
                reply = protocol.decode_reply(data)
            except protocol.ProtocolError as exc:
                self.close()
                waiter.set_exception(exc)
            else:
                self.owner._release(self)
                waiter.set_result(reply)
        if wake is not None:
            wake()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.transport = None
        self.lost = exc or protocol.ProtocolError(
            f"connection closed mid-reply ({len(self.buffer)} bytes)"
        )
        waiter, self.waiter = self.waiter, None
        wake, self.wake = self.wake, None
        if waiter is not None and not waiter.done():
            waiter.set_exception(self.lost)
        if wake is not None:
            wake()

    def is_closing(self) -> bool:
        return self.transport is None or self.transport.is_closing()

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()


class AsyncSocketRemote:
    """Pooled wire-protocol-v2 client: one frame in flight per socket."""

    def __init__(
        self,
        address: Tuple[str, int],
        tenant: str = "device0",
        frame_bytes: int = 11_700,
        connect_timeout: float = 0.2,
        pool_idle: float = 3.0,
        pool_limit: int = 8,
    ) -> None:
        if frame_bytes <= 0:
            raise ValueError(f"frame bytes must be positive, got {frame_bytes}")
        if connect_timeout <= 0 or pool_idle <= 0:
            raise ValueError("connect_timeout and pool_idle must be positive")
        self.address = address
        self.tenant = tenant
        self.frame_bytes = frame_bytes
        self.connect_timeout = connect_timeout
        self.pool_idle = pool_idle
        self.pool_limit = pool_limit
        self._payload = b"\x00" * frame_bytes
        self._pool: List[_ClientConnection] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    async def exchange(self, deadline: Optional[float]) -> protocol.Reply:
        """One request/response round trip (raises on transport error).

        The caller bounds the whole call; the connect step carries its
        own smaller timeout so a dead address fails fast instead of
        eating the whole deadline budget.
        """
        loop = asyncio.get_running_loop()
        conn = self._acquire(loop, loop.time())
        if conn is None:
            _transport, conn = await asyncio.wait_for(
                loop.create_connection(lambda: _ClientConnection(self), *self.address),
                timeout=self.connect_timeout,
            )
        reply = conn.send(self.encode(deadline))
        try:
            return await reply
        except BaseException:
            if reply.cancelled():
                conn.close()  # its reply is still owed: never reuse it
            raise

    def encode(self, deadline: Optional[float]) -> bytes:
        """This client's request frame with ``deadline`` left."""
        return protocol.encode_request(self.tenant, self._payload, deadline)

    def launch(
        self, loop: asyncio.AbstractEventLoop, now: float,
        deadline: Optional[float], wake: _Wake, request: Optional[bytes] = None,
    ) -> "Tuple[asyncio.Future[protocol.Reply], Optional[_ClientConnection]]":
        """Start one round trip without waiting for it; ``wake`` is
        called once its reply future is resolved.

        On a pooled connection this is a plain write of ``request`` (the
        frame :meth:`encode` makes for ``deadline``, encoded here when
        not given) returning the reply future and the connection it is
        owed on; otherwise it is an :meth:`exchange` Task that connects
        first (connection None).  Abandon an unfinished one with
        :meth:`abandon`.
        """
        conn = self._acquire(loop, now)
        if conn is None:
            task = asyncio.ensure_future(self.exchange(deadline))
            task.add_done_callback(wake)
            return task, None
        return conn.send(request or self.encode(deadline), wake), conn

    @staticmethod
    def abandon(reply: "asyncio.Future[protocol.Reply]",
                conn: Optional[_ClientConnection]) -> None:
        """Give up on a launched round trip; its connection is closed."""
        if not reply.done():
            reply.cancel()
            if conn is not None:
                conn.wake = None
                conn.close()
        elif not reply.cancelled():
            reply.exception()  # a loser's error is not worth a log line

    def _acquire(self, loop: asyncio.AbstractEventLoop,
                 now: float) -> Optional[_ClientConnection]:
        self._loop = loop
        while self._pool:
            conn = self._pool.pop()
            if now - conn.idle_since > self.pool_idle or conn.is_closing():
                conn.close()
                continue
            return conn
        return None

    def _release(self, conn: _ClientConnection) -> None:
        if conn.is_closing() or len(self._pool) >= self.pool_limit:
            conn.close()
            return
        conn.idle_since = self._loop.time()
        self._pool.append(conn)

    async def close(self) -> None:
        while self._pool:
            self._pool.pop().close()


class ResilientSocketRemote:
    """Deadline-budgeted retries + circuit breaker over real sockets."""

    def __init__(
        self,
        address: Tuple[str, int],
        deadline: float = 0.25,
        config: Optional[ResilienceConfig] = None,
        tenant: str = "device0",
        frame_bytes: int = 11_700,
        connect_timeout: Optional[float] = None,
    ) -> None:
        if deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        self.deadline = deadline
        self.layer = layer = ResilienceLayer(config or ResilienceConfig.wallclock())
        self.config = layer.config
        self.breaker = layer.breaker
        self.retry_budget = layer.retry_budget
        self.taxonomy = layer.taxonomy
        self.breaker.on_open = self._arm_probe
        self.remote = AsyncSocketRemote(
            address,
            tenant=tenant,
            frame_bytes=frame_bytes,
            connect_timeout=connect_timeout or max(0.2 * deadline, 0.05),
        )
        #: every frame's first copy: tenant, payload and budget never change
        self._first_copy = self.remote.encode(deadline)
        self.submitted = 0
        self.counts: Dict[FrameOutcome, int] = {o: 0 for o in FrameOutcome}
        self._next_probe_at = 0.0
        #: each waiting frame's wake-up and the loop time it is next due
        #: (a pushback re-send, its hedge point or its deadline); the one
        #: timer is armed at or before the earliest of them
        self._due: Dict[_Wake, float] = {}
        self._timer: Optional[asyncio.TimerHandle] = None

    # ------------------------------------------------------------------
    @property
    def settled(self) -> int:
        return sum(self.counts.values())

    @property
    def accounting_closed(self) -> bool:
        """Every submitted frame reached exactly one terminal outcome."""
        return self.submitted == self.settled

    def _arm_probe(self) -> None:
        loop = asyncio.get_running_loop()
        self._next_probe_at = loop.time() + self.breaker.current_backoff

    # ------------------------------------------------------------------
    async def submit_frame(self) -> FrameOutcome:
        """Offload one frame; always returns exactly one outcome.

        While the breaker is not closed, the first frame after the probe
        backoff goes out as a half-open trial probe (no hedge, no
        re-send); the others fall back to the local pipeline unsent.
        Trials go out one at a time, each a backoff after the last one
        settled, until enough succeed to close the breaker.
        """
        loop = asyncio.get_running_loop()
        self.submitted += 1
        layer = self.layer
        try:
            now = loop.time()
            breaker = layer.breaker
            if breaker.is_closed:
                outcome, kind, hint, now = await self._attempt(loop, now)
                layer.settle(now, kind, retry_after=hint)
            elif now >= self._next_probe_at:
                breaker.on_probe_sent(now)
                self._next_probe_at = float("inf")  # one probe in flight at a time
                try:
                    outcome, kind, _hint, now = await self._attempt(loop, now, probe=True)
                    layer.settle(now, kind, trial=True)
                finally:
                    # a cancelled trial has no verdict, but the next is due
                    if not breaker.is_closed:
                        self._arm_probe()
            else:
                layer.record(FailureKind.BREAKER_FALLBACK)
                outcome = FrameOutcome.FALLBACK_LOCAL
        except asyncio.CancelledError:
            # a cancelled offload still settles (the loop was torn down
            # mid-flight); classify as timeout so accounting stays closed
            self.counts[FrameOutcome.TIMEOUT] += 1
            layer.record(FailureKind.SILENT_TIMEOUT)
            raise
        self.counts[outcome] += 1
        return outcome

    # ------------------------------------------------------------------
    async def _attempt(self, loop: asyncio.AbstractEventLoop, now: float,
                       probe: bool = False):
        """Send one frame's copies until a reply settles it or its
        deadline passes.

        The layer's retry gate grants the hedge at ``retry_after_frac``
        of the deadline (none for a probe) and a re-send after an
        overload hint; its :func:`~repro.resilience.layer.verdict`
        judges every reply.  The frame sleeps until a reply or a reset
        wakes it from the read callback, or the client's timer does at
        its next due time.  A copy lost to a reset is silence for that
        copy; with none left in flight and no re-send due, the frame
        times out at once.  No Task is made on a pooled connection.
        Returns the outcome, its failure kind (None when completed), its
        retry-after hint and the loop time it settled at.
        """
        layer = self.layer
        budget = self.deadline
        deadline_at = now + budget
        hedge_at = None if probe else now + layer.config.retry_after_frac * budget
        resend_at = None
        retries = 0
        wake = _Wake(loop.create_future())
        attempts = [self.remote.launch(loop, now, budget, wake, self._first_copy)]
        try:
            while True:
                when = deadline_at if hedge_at is None else hedge_at
                if resend_at is not None and resend_at < when:
                    when = resend_at
                if now < when:
                    self._sleep_until(loop, wake, when)
                    try:
                        await wake.future
                    finally:
                        self._due.pop(wake, None)
                    now = loop.time()
                live = []
                for attempt in attempts:
                    reply = attempt[0]
                    if not reply.done():
                        live.append(attempt)
                        continue
                    exc = reply.exception()
                    if exc is not None:
                        if isinstance(exc, _TRANSPORT_ERRORS):
                            continue  # no useful reply from this copy
                        raise exc
                    reply = reply.result()
                    v = verdict(layer, now, reply, now > deadline_at, retries,
                                deadline_at, budget, probe)
                    if v is RESEND:
                        retries += 1
                        resend_at = now + (reply.retry_after or 0.0)
                    elif v is not LATE:
                        if len(attempts) == 1:
                            attempts = []  # a lone copy, answered: none to abandon
                        outcome, kind = _SETTLES[reply.status]
                        return outcome, kind, reply.retry_after, now
                attempts = live
                if wake.future.done():
                    # every wake so far is seen above; the next sleep
                    # (and a copy failing at once) needs a fresh future
                    wake.future = loop.create_future()
                if resend_at is not None and now >= resend_at:
                    resend_at = None
                    # a re-send woken at its deadline is not sent: the
                    # deadline settles the frame
                    if now < deadline_at:
                        attempts.append(
                            self.remote.launch(loop, now, deadline_at - now, wake)
                        )
                if hedge_at is not None and now >= hedge_at:
                    hedge_at = None
                    if layer.retry(now, retries, deadline_at, budget):
                        retries += 1
                        attempts.append(
                            self.remote.launch(loop, now, deadline_at - now, wake)
                        )
                elif now >= deadline_at:
                    break
                if not attempts and resend_at is None:
                    break
        finally:
            for reply, conn in attempts:
                self.remote.abandon(reply, conn)
        return FrameOutcome.TIMEOUT, FailureKind.SILENT_TIMEOUT, None, now

    # ------------------------------------------------------------------
    def _sleep_until(self, loop: asyncio.AbstractEventLoop, wake: _Wake, when: float) -> None:
        """Have the client's timer wake ``wake`` at loop time ``when``.

        The timer is re-armed only when ``when`` is earlier than it is
        armed for: frames that settle before their due time leave it
        armed, and it re-arms itself when it fires.
        """
        self._due[wake] = when
        timer = self._timer
        if timer is None or when < timer.when():
            if timer is not None:
                timer.cancel()
            self._timer = loop.call_at(when, self._timer_fired, loop)

    def _timer_fired(self, loop: asyncio.AbstractEventLoop) -> None:
        """Wake every frame now due; re-arm for the earliest left."""
        now = loop.time()
        due = self._due
        earliest = None
        for wake, when in list(due.items()):
            if when <= now:
                del due[wake]
                wake()
            elif earliest is None or when < earliest:
                earliest = when
        self._timer = None if earliest is None else loop.call_at(
            earliest, self._timer_fired, loop
        )

    async def close(self) -> None:
        if self._timer is not None and not self._due:
            self._timer.cancel()
            self._timer = None
        await self.remote.close()
