"""The multi-tenant edge server (§II-A, §IV-A).

One service loop drains per-model :class:`AdaptiveBatcher` queues in
round-robin order and runs each batch on the single
:class:`GpuExecutor`.  Responses (completions *and* rejections) are
delivered through each request's ``respond`` callback at the instant
the server knows the outcome — rejections at batch formation,
completions at batch end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.models.latency import GpuBatchModel
from repro.models.zoo import ModelSpec, get_model
from repro.server.batching import AdaptiveBatcher, BatchPolicy, DEFAULT_BATCH_LIMIT
from repro.server.gpu import GpuExecutor
from repro.server.requests import InferenceRequest, RequestOutcome, Response
from repro.sim.core import Environment
from repro.sim.events import Event


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

    def _bump(self, table: Dict[str, int], tenant: str) -> None:
        table[tenant] = table.get(tenant, 0) + 1


class EdgeServer:
    """GPU-equipped edge server shared by many devices."""

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
        """``pushback`` turns on explicit overload signalling.

        With pushback enabled (the paper's server sends bare
        rejections, so the default is off):

        * batch-formation overflow is answered ``OVERLOADED`` with a
          retry-after hint (time until the batch about to run
          completes) instead of a bare ``REJECTED``;
        * the admission path sheds at *submit* once a model's queue
          holds ``admission_limit`` requests (default ``4 *
          batch_limit``) — a fast-fail that replaces up to 250 ms of
          silence per doomed frame with an immediate, classified
          answer whose hint accounts for any remaining pause.
        """
        if admission_limit is not None and admission_limit < 1:
            raise ValueError(f"admission limit must be >= 1, got {admission_limit}")
        self.env = env
        self.name = name
        #: stamp this server's name on trace spans (fleet runs, where
        #: "which host served this frame" matters; single-server runs
        #: leave it off so existing goldens stay byte-stable)
        self.trace_identity = trace_identity
        self.gpu = GpuExecutor(env, rng, cost_model)
        self.batch_limit = batch_limit
        self.batch_policy = batch_policy
        self.pushback = pushback
        self.admission_limit = (
            admission_limit
            if admission_limit is not None
            else (4 * batch_limit if pushback else None)
        )
        self.stats = ServerStats()
        self._batchers: Dict[str, AdaptiveBatcher] = {}
        self._models: Dict[str, ModelSpec] = {}
        self._wakeup: Optional[Event] = None
        self._paused_until = 0.0
        self._service_proc = env.process(self._service_loop(), name=f"{name}:service")

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------
    def submit(self, request: InferenceRequest) -> None:
        """Accept a request (called at its network-arrival instant)."""
        tracer = self.env.tracer
        if not self._service_proc.is_alive:
            # Crashed host: the packet lands on a dead box.  No answer
            # of any kind — the device's deadline watchdog observes the
            # same silence a real connection-refused-into-timeout does.
            self.stats.dropped_on_crash += 1
            if tracer is not None:
                tracer.server_dead(
                    request, self.env.now,
                    server=self.name if self.trace_identity else None,
                )
            return
        request.arrived_at = self.env.now
        if tracer is not None:
            tracer.server_submit(
                request, self.env.now,
                server=self.name if self.trace_identity else None,
            )
        self.stats.received += 1
        self.stats._bump(self.stats.per_tenant_received, request.tenant)
        batcher = self._batchers.get(request.model_name)
        if batcher is None:
            batcher = AdaptiveBatcher(self.batch_limit, self.batch_policy)
            self._batchers[request.model_name] = batcher
            self._models[request.model_name] = get_model(request.model_name)
        if (
            self.pushback
            and self.admission_limit is not None
            and batcher.pending >= self.admission_limit
        ):
            self._respond(
                request,
                RequestOutcome.OVERLOADED,
                batch_size=0,
                retry_after=self._retry_after_hint(request.model_name, batcher.pending),
            )
            return
        batcher.enqueue(request)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def pause(self, duration: float) -> None:
        """Stall the service loop for ``duration`` seconds.

        Models §II-A.3's "limited offloading availability" in its
        bluntest form: the GPU stops draining (driver hiccup, victim of
        a co-located job, restart).  Requests keep *arriving* and
        accumulate in the batchers; on resume, batch formation rejects
        the overflow — exactly the rejection burst a real stall causes.
        """
        if duration < 0:
            raise ValueError(f"negative pause duration {duration}")
        self._paused_until = max(self._paused_until, self.env.now + duration)
        # wake the loop so it notices the pause boundary precisely
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    @property
    def paused(self) -> bool:
        return self.env.now < self._paused_until

    @property
    def service_alive(self) -> bool:
        """True while the service loop process is running."""
        return self._service_proc.is_alive

    def crash(self) -> int:
        """Kill the service loop and lose every queued request.

        Harsher than :meth:`pause`: a paused server resumes with its
        queue intact (and rejects the overflow), a crashed one loses
        the queue outright and answers *nothing* until
        :meth:`restart` — including the batch that was on the GPU.
        Returns the number of requests dropped.
        """
        if self._service_proc.is_alive:
            self._service_proc.kill()
        self._wakeup = None
        dropped = sum(b.pending for b in self._batchers.values())
        self.stats.dropped_on_crash += dropped
        self._batchers = {}
        return dropped

    def restart(self) -> None:
        """Respawn the service loop on an empty queue (cold cache)."""
        if self._service_proc.is_alive:
            return
        self._paused_until = 0.0
        self._service_proc = self.env.process(
            self._service_loop(), name=f"{self.name}:service"
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def queue_depth(self, model_name: Optional[str] = None) -> int:
        if model_name is not None:
            batcher = self._batchers.get(model_name)
            return batcher.pending if batcher else 0
        return sum(b.pending for b in self._batchers.values())

    # ------------------------------------------------------------------
    # service loop
    # ------------------------------------------------------------------
    def _service_loop(self):
        env = self.env
        while True:
            if env.now < self._paused_until:
                yield env.sleep(self._paused_until - env.now)
                continue
            ran_any = False
            # Round-robin across models with pending work; each model
            # gets one batch per sweep so a heavy model cannot starve
            # a light one (§IV-C.2: "we hit both model types").
            for model_name in list(self._batchers):
                batcher = self._batchers[model_name]
                if not batcher.pending:
                    continue
                ran_any = True
                batch, rejected = batcher.form_batch(now=env.now)
                now = env.now
                spec = self._models[model_name]
                if self.pushback:
                    # The batch we are about to run bounds how long the
                    # shed requests would have waited for the next slot.
                    hint = (
                        self.gpu.cost_model.batch_latency(spec, len(batch))
                        * self.gpu.slowdown
                        if batch
                        else 0.0
                    )
                    for req in rejected:
                        if AdaptiveBatcher.expired(req, now):
                            self._respond(req, RequestOutcome.REJECTED, batch_size=0)
                        else:
                            self._respond(
                                req,
                                RequestOutcome.OVERLOADED,
                                batch_size=0,
                                retry_after=hint,
                            )
                else:
                    for req in rejected:
                        self._respond(req, RequestOutcome.REJECTED, batch_size=0)
                yield from self.gpu.execute(spec, len(batch))
                for req in batch:
                    self._respond(req, RequestOutcome.COMPLETED, batch_size=len(batch))
            if not ran_any:
                self._wakeup = env.event()
                yield self._wakeup
                self._wakeup = None

    def _retry_after_hint(self, model_name: str, pending: int) -> float:
        """Seconds until the server could plausibly serve one more request.

        Admission-shed hint: any remaining pause, plus the number of
        full batches ahead of the newcomer times the cost of one full
        batch at the current GPU speed.
        """
        spec = self._models[model_name]
        pause_left = max(0.0, self._paused_until - self.env.now)
        batches_ahead = -(-(pending + 1) // self.batch_limit)  # ceil div
        per_batch = (
            self.gpu.cost_model.batch_latency(spec, self.batch_limit)
            * self.gpu.slowdown
        )
        return pause_left + batches_ahead * per_batch

    def _respond(
        self,
        req: InferenceRequest,
        outcome: RequestOutcome,
        batch_size: int,
        retry_after: Optional[float] = None,
    ) -> None:
        now = self.env.now
        if outcome is RequestOutcome.COMPLETED:
            self.stats.completed += 1
            self.stats._bump(self.stats.per_tenant_completed, req.tenant)
        elif outcome is RequestOutcome.OVERLOADED:
            self.stats.overloaded += 1
            self.stats._bump(self.stats.per_tenant_overloaded, req.tenant)
        else:
            self.stats.rejected += 1
            self.stats._bump(self.stats.per_tenant_rejected, req.tenant)
        arrived = req.arrived_at if req.arrived_at is not None else now
        response = Response(
            request_id=req.request_id,
            frame_id=req.frame_id,
            tenant=req.tenant,
            outcome=outcome,
            completed_at=now,
            batch_size=batch_size,
            queue_wait=max(0.0, now - arrived),
            arrived_at=arrived,
            label=req.request_id % 1000,
            retry_after=retry_after,
        )
        tracer = self.env.tracer
        if tracer is not None:
            tracer.server_respond(
                req, now, outcome.value, batch_size=batch_size
            )
        req.respond(response)
