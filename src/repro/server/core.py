"""The server core: one batching discipline, no clock.

Queues, batch formation, pushback and the GPU of one server, for the
simulator's :class:`~repro.server.server.EdgeServer` and the wall-clock
:class:`~repro.realtime.gateway.InferenceGateway` alike.  Each call is
given ``now`` and returns what to answer; the caller owns the clock, the
timers and the delivery.  One batch is on the GPU at a time:
:meth:`ServerCore.start_batch` forms it, :meth:`ServerCore.finish`
settles it when its GPU seconds are up.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.models.latency import GpuBatchModel
from repro.models.zoo import ModelSpec, get_model
from repro.server.batching import (
    DEFAULT_BATCH_LIMIT,
    DEFAULT_QUEUE_LIMIT,
    AdaptiveBatcher,
    BatchPolicy,
)
from repro.server.requests import InferenceRequest, RequestOutcome

#: one answer: the request, its outcome and its retry-after hint
Reply = Tuple[InferenceRequest, RequestOutcome, Optional[float]]
#: a formed batch: its requests, the replies shed forming it, GPU seconds
Started = Tuple[List[InferenceRequest], List[Reply], float]
#: GPU jitter factors drawn per ``lognormal`` call
JITTER_BLOCK = 256


class ServerCore:
    """The clock-free server: per-model queues, one GPU.

    With ``pushback``, batch-formation overflow is answered
    ``OVERLOADED`` with a retry-after hint instead of ``REJECTED``, and
    :meth:`submit` sheds ``OVERLOADED`` once a model's queue holds
    ``admission_limit`` requests (default ``4 * batch_limit``).  ``rng``
    draws the GPU jitter, :data:`JITTER_BLOCK` factors at a time, so it
    must feed nothing else; without jitter it may be None.  The cost
    model is frozen and never replaced, so the factors drawn ahead keep
    its σ.
    """

    def __init__(
        self,
        cost_model: Optional[GpuBatchModel] = None,
        rng: Any = None,
        batch_limit: int = DEFAULT_BATCH_LIMIT,
        policy: BatchPolicy = BatchPolicy.FIFO,
        pushback: bool = False,
        admission_limit: Optional[int] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
    ) -> None:
        if admission_limit is not None and admission_limit < 1:
            raise ValueError(f"admission limit must be >= 1, got {admission_limit}")
        self.cost_model = cost_model or GpuBatchModel()
        self.rng = rng
        self.batch_limit = batch_limit
        self.policy = policy
        self.pushback = pushback
        if admission_limit is None and pushback:
            admission_limit = 4 * batch_limit
        self.admission_limit = admission_limit
        self.queue_limit = queue_limit
        #: no sweep starts before this time
        self.paused_until = 0.0
        #: latency multiplier driven by fault injection (1.0 = healthy)
        self.slowdown = 1.0
        self.busy_seconds = 0.0
        self.batches_run = 0
        self.frames_run = 0
        self._batchers: Dict[str, AdaptiveBatcher] = {}
        #: ``_batchers.items()`` as a list, the sweep order; replaced,
        #: never appended to, so a sweep under way keeps its own
        self._order: List[Tuple[str, AdaptiveBatcher]] = []
        self._models: Dict[str, ModelSpec] = {}
        #: GPU jitter factors drawn ahead (see :meth:`_form`)
        self._jitter: Iterator[float] = iter(())
        #: models the current sweep has still to visit (None: no sweep)
        self._sweep: Optional[Iterator[Tuple[str, AdaptiveBatcher]]] = None
        self._swept_any = False
        self._batch: List[InferenceRequest] = []
        self._batch_seconds = 0.0
        self._received = 0
        self._settled = 0

    def submit(self, request: InferenceRequest, now: float) -> Tuple[Reply, ...]:
        """Queue ``request`` (``arrived_at`` set); return the replies it causes.

        Usually none; pushback at the admission limit sheds the
        newcomer, a full ``BOUNDED_QUEUE`` its victim, both
        ``OVERLOADED``.
        """
        self._received += 1
        name = request.model_name
        batcher = self._batchers.get(name)
        if batcher is None:
            batcher = AdaptiveBatcher(self.batch_limit, self.policy, self.queue_limit)
            self._batchers[name] = batcher
            self._order = list(self._batchers.items())
            self._models[name] = get_model(name)
        if self.pushback and batcher.pending >= self.admission_limit:
            self._settled += 1
            # any pause left, then the full batches ahead of the newcomer
            batches_ahead = -(-(batcher.pending + 1) // self.batch_limit)
            hint = max(0.0, self.paused_until - now) + batches_ahead * (
                self._full_batch(name) * self.slowdown
            )
            return ((request, RequestOutcome.OVERLOADED, hint),)
        victim = batcher.enqueue(request)
        if victim is None:
            return ()
        self._settled += 1
        # the queue left, in full batches, behind the batch running
        drain = (batcher.pending / self.batch_limit + 1.0) * self._full_batch(name)
        return ((victim, RequestOutcome.OVERLOADED, drain),)

    def start_batch(self, now: float) -> Optional[Started]:
        """Form the next batch of the round-robin sweep across models.

        A sweep visits once each, in first-arrival order, the models
        known when it began, so a heavy model cannot starve a light one
        (§IV-C.2).  A sweep that formed a batch is followed at once by
        the next; a pause is honoured only where a sweep would begin.
        Returns ``(batch, shed, gpu_seconds)`` — the batch is empty when
        all of it was shed — or None when nothing is to run.
        """
        while True:
            if self._sweep is None:
                if now < self.paused_until:
                    return None
                self._sweep = iter(self._order)
                self._swept_any = False
            for name, batcher in self._sweep:
                if batcher._queue:
                    self._swept_any = True
                    return self._form(name, batcher, now)
            self._sweep = None
            if not self._swept_any:
                return None

    def finish(self) -> List[InferenceRequest]:
        """Settle the batch on the GPU; return its requests, all completed."""
        batch, self._batch = self._batch, []
        self.busy_seconds += self._batch_seconds
        self.batches_run += 1
        self.frames_run += len(batch)
        self._settled += len(batch)
        return batch

    def drain(self) -> List[InferenceRequest]:
        """Take back what is on the GPU or queued (a crash or a stop)."""
        drained, self._batch = self._batch, []
        for batcher in self._batchers.values():
            drained.extend(batcher.drain())
        self._batchers = {}
        self._order = []
        self._sweep = None
        self._settled += len(drained)
        return drained

    @property
    def busy(self) -> bool:
        """True while a batch is on the GPU."""
        return bool(self._batch)

    def queue_depth(self, model_name: Optional[str] = None) -> int:
        if model_name is not None:
            batcher = self._batchers.get(model_name)
            return batcher.pending if batcher is not None else 0
        return sum(b.pending for b in self._batchers.values())

    @property
    def accounting_closed(self) -> bool:
        """Every submitted request is answered, queued or on the GPU."""
        return self._received == self._settled + self.queue_depth() + len(self._batch)

    def set_slowdown(self, factor: float) -> None:
        """Stretch every batch by ``factor`` from the next one on."""
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {factor}")
        self.slowdown = float(factor)

    def utilization(self, elapsed: float) -> float:
        """GPU busy fraction over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / elapsed)

    def _full_batch(self, name: str) -> float:
        return self.cost_model.batch_latency(self._models[name], self.batch_limit)

    def _form(self, name: str, batcher: AdaptiveBatcher, now: float) -> Started:
        batch, shed = batcher.form_batch(now=now)
        spec = self._models[name]
        replies = self._shed_replies(shed, spec, len(batch), now) if shed else []
        self._settled += len(replies)
        seconds = 0.0
        if batch:
            # GpuBatchModel.sample, with its factor taken from a block:
            # the ``rng`` stream feeds the GPU jitter only, so drawing
            # ahead changes no value
            model = self.cost_model
            seconds = model.batch_latency(spec, len(batch))
            if model.jitter_sigma > 0:
                factor = next(self._jitter, None)
                if factor is None:
                    self._jitter = iter(model.jitter_factors(self.rng, JITTER_BLOCK))
                    factor = next(self._jitter)
                seconds = seconds * factor
            seconds = seconds * self.slowdown
        self._batch, self._batch_seconds = batch, seconds
        return batch, replies, seconds

    def _shed_replies(
        self, shed: List[InferenceRequest], spec: ModelSpec, batch_size: int, now: float
    ) -> List[Reply]:
        if not self.pushback:
            return [(req, RequestOutcome.REJECTED, None) for req in shed]
        # the batch about to run bounds the wait for the next slot; an
        # expired request is the client's loss, not saturation
        hint = (
            self.cost_model.batch_latency(spec, batch_size) * self.slowdown
            if batch_size
            else 0.0
        )
        return [
            (req, RequestOutcome.REJECTED, None)
            if AdaptiveBatcher.expired(req, now)
            else (req, RequestOutcome.OVERLOADED, hint)
            for req in shed
        ]
