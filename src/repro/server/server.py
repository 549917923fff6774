"""The multi-tenant edge server (§II-A, §IV-A) on the simulator's clock.

:class:`EdgeServer` drives a :class:`~repro.server.core.ServerCore` with
kernel timers.  Responses (completions *and* rejections) are delivered
through each request's ``respond`` callback at the instant the server
knows the outcome — rejections at batch formation, completions at
batch end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.models.latency import GpuBatchModel
from repro.server.batching import BatchPolicy, DEFAULT_BATCH_LIMIT
from repro.server.core import ServerCore
from repro.server.requests import InferenceRequest, RequestOutcome, Response
from repro.sim.core import Environment
from repro.sim.events import Event, EventPriority

# per-response Enum reads as module globals (see repro.server.requests)
_COMPLETED = RequestOutcome.COMPLETED
_OVERLOADED = RequestOutcome.OVERLOADED


@dataclass
class ServerStats:
    """Aggregate counters, also broken out per tenant."""

    received: int = 0
    completed: int = 0
    rejected: int = 0
    #: requests shed with explicit overload pushback (pushback servers
    #: only; plain rejections stay in ``rejected``)
    overloaded: int = 0
    #: queued/in-flight requests lost to a :meth:`EdgeServer.crash`
    #: (never answered — the devices' watchdogs observe silence)
    dropped_on_crash: int = 0
    per_tenant_received: Dict[str, int] = field(default_factory=dict)
    per_tenant_completed: Dict[str, int] = field(default_factory=dict)
    per_tenant_rejected: Dict[str, int] = field(default_factory=dict)
    per_tenant_overloaded: Dict[str, int] = field(default_factory=dict)


class EdgeServer:
    """GPU-equipped edge server shared by many devices.

    ``pushback`` and ``admission_limit`` are the core's (see
    :class:`~repro.server.core.ServerCore`); the paper's server sends
    bare rejections, so pushback is off by default.
    """

    def __init__(
        self,
        env: Environment,
        rng: np.random.Generator,
        cost_model: Optional[GpuBatchModel] = None,
        batch_limit: int = DEFAULT_BATCH_LIMIT,
        batch_policy: BatchPolicy = BatchPolicy.FIFO,
        name: str = "edge-server",
        pushback: bool = False,
        admission_limit: Optional[int] = None,
        trace_identity: bool = False,
    ) -> None:
        self.env = env
        self.name = name
        #: EnvStats counts the service timers under this name
        self.event_owner = f"{name}:service"
        #: stamp this server's name on trace spans (fleet runs, where
        #: "which host served this frame" matters; single-server runs
        #: leave it off so existing goldens stay byte-stable)
        self.trace_identity = trace_identity
        #: the server core: its queues, its batching and its GPU
        self.gpu = ServerCore(
            cost_model, rng, batch_limit, batch_policy, pushback, admission_limit
        )
        self.stats = ServerStats()
        self._alive = True
        #: the pending service, GPU or pause timer; None while idle (or
        #: crashed), when a submit or a pause arms the service timer
        self._timer: Optional[Event] = None
        # URGENT, like the start of a periodic loop: a server started in
        # some instant forms its first batch before that instant's
        # ordinary events
        self._wake(EventPriority.URGENT)

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------
    def submit(self, request: InferenceRequest) -> None:
        """Accept a request (called at its network-arrival instant)."""
        env = self.env
        tracer = env.tracer
        if not self._alive:
            # Crashed host: the packet lands on a dead box.  No answer
            # of any kind — the device's deadline watchdog observes the
            # same silence a real connection-refused-into-timeout does.
            self.stats.dropped_on_crash += 1
            if tracer is not None:
                tracer.server_dead(
                    request, env.now,
                    server=self.name if self.trace_identity else None,
                )
            return
        now = env.now
        request.arrived_at = now
        if tracer is not None:
            tracer.server_submit(
                request, now,
                server=self.name if self.trace_identity else None,
            )
        stats = self.stats
        stats.received += 1
        table = stats.per_tenant_received
        table[request.tenant] = table.get(request.tenant, 0) + 1
        for req, outcome, hint in self.gpu.submit(request, now):
            self._respond(req, outcome, batch_size=0, retry_after=hint)
        # an idle server has an empty queue, so this request is queued
        # (a shed needs a queue at the admission limit or a full one)
        if self._timer is None:
            self._wake()

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def pause(self, duration: float) -> None:
        """Stop starting batches for ``duration`` seconds.

        Models §II-A.3's "limited offloading availability" in its
        bluntest form: the GPU stops draining (driver hiccup, victim of
        a co-located job, restart).  Requests keep *arriving* and
        accumulate in the batchers; on resume, batch formation rejects
        the overflow — exactly the rejection burst a real stall causes.
        The round-robin sweep under way finishes first.
        """
        if duration < 0:
            raise ValueError(f"negative pause duration {duration}")
        core = self.gpu
        core.paused_until = max(core.paused_until, self.env.now + duration)
        if self._alive and self._timer is None:
            self._wake()  # notice the pause boundary precisely

    @property
    def paused(self) -> bool:
        return self.env.now < self.gpu.paused_until

    @property
    def service_alive(self) -> bool:
        """False from a :meth:`crash` until the :meth:`restart`."""
        return self._alive

    def crash(self) -> int:
        """Stop serving and lose every queued and running request.

        Harsher than :meth:`pause`: a paused server resumes with its
        queue intact (and rejects the overflow), a crashed one loses
        the queue and the batch on the GPU outright and answers
        *nothing* until :meth:`restart`.  Returns the number of
        requests dropped.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._alive = False
        dropped = len(self.gpu.drain())
        self.stats.dropped_on_crash += dropped
        return dropped

    def restart(self) -> None:
        """Serve again on an empty queue (cold cache)."""
        if self._alive:
            return
        self._alive = True
        self.gpu.paused_until = 0.0
        self._wake(EventPriority.URGENT)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def queue_depth(self, model_name: Optional[str] = None) -> int:
        return self.gpu.queue_depth(model_name)

    @property
    def accounting_closed(self) -> bool:
        """Every received request is answered, dropped, queued or on the GPU."""
        return self.gpu.accounting_closed

    # ------------------------------------------------------------------
    # service
    # ------------------------------------------------------------------
    def _wake(self, priority: int = EventPriority.NORMAL) -> None:
        self._timer = self.env.call_at(self.env.now, self._serve, priority=priority)

    def _serve(self, _event: Optional[Event] = None) -> None:
        """Start the next batch, or wait out the pause, or go idle."""
        env = self.env
        now = env.now
        core = self.gpu
        while True:
            started = core.start_batch(now)
            if started is None:
                break
            batch, shed, seconds = started
            for req, outcome, hint in shed:
                self._respond(req, outcome, batch_size=0, retry_after=hint)
            if batch:
                self._timer = env.call_later(seconds, self._finish)
                return
        if now < core.paused_until:
            self._timer = env.call_later(core.paused_until - now, self._serve)
        else:
            self._timer = None

    def _finish(self, _event: Event) -> None:
        batch = self.gpu.finish()
        size = len(batch)
        for req in batch:
            self._respond(req, _COMPLETED, size)
        # the sweep's next batch forms here, not on a fresh timer at
        # this instant, so the instant's later arrivals wait for it
        self._serve()

    def _respond(
        self,
        req: InferenceRequest,
        outcome: RequestOutcome,
        batch_size: int,
        retry_after: Optional[float] = None,
    ) -> None:
        now = self.env.now
        stats = self.stats
        if outcome is _COMPLETED:
            stats.completed += 1
            table = stats.per_tenant_completed
        elif outcome is _OVERLOADED:
            stats.overloaded += 1
            table = stats.per_tenant_overloaded
        else:
            stats.rejected += 1
            table = stats.per_tenant_rejected
        table[req.tenant] = table.get(req.tenant, 0) + 1
        arrived = req.arrived_at if req.arrived_at is not None else now
        wait = now - arrived
        request_id = req.request_id
        # one per request, so positional (keywords cost more): request_id,
        # frame_id, tenant, outcome, completed_at, batch_size, queue_wait
        # (max(0.0, wait) without the call), arrived_at, label, retry_after
        response = Response(
            request_id,
            req.frame_id,
            req.tenant,
            outcome,
            now,
            batch_size,
            wait if wait > 0.0 else 0.0,
            arrived,
            request_id % 1000,
            retry_after,
        )
        tracer = self.env.tracer
        if tracer is not None:
            tracer.server_respond(
                req, now, outcome.value, batch_size=batch_size
            )
        req.respond(response)
