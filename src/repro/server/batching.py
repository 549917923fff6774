"""Adaptive batching (§IV-A).

    "Our batching scheme can be simple: construct a batch using all
    frames (to a limit) that arrived while executing the previous
    batch.  We maintain a request queue that is filled during the
    execution of a batch, and we fill the next batch with the contents
    of this queue.  [...] we impose a limit of 15 frames for each
    batch, while rejecting the rest in the queue."

So batch formation is: drain the queue; keep up to ``batch_limit``;
*reject* the remainder immediately.  :class:`BatchPolicy` selects who
survives when the queue overflows:

* ``FIFO`` (the paper's scheme): oldest ``batch_limit`` requests win.
* ``FAIR``: round-robin across tenants, so one aggressive tenant
  cannot starve the rest — the behaviour §II-A.3 asks for ("the system
  should respond by ... distributing the available capacity fairly
  among clients").  Used by the fairness ablation bench.
"""

from __future__ import annotations

import enum
from collections import OrderedDict, deque
from typing import Deque, List, Optional, Tuple

from repro.server.requests import InferenceRequest

#: the paper's per-batch frame cap
DEFAULT_BATCH_LIMIT = 15
#: queue bound of the ``BOUNDED_QUEUE`` policy
DEFAULT_QUEUE_LIMIT = 64


class BatchPolicy(enum.Enum):
    FIFO = "fifo"
    FAIR = "fair"
    #: FIFO, but requests whose ``deadline_at`` has already passed are
    #: shed at batch formation — a doomed frame in the batch wastes GPU
    #: time and, worse, displaces a frame that could still make it
    DEADLINE_AWARE = "deadline_aware"
    #: the wall-clock gateway's, not the paper's (Sedlak et al.,
    #: arXiv:2510.01885): a queue over ``queue_limit`` sheds the soonest
    #: deadline; a batch takes up to the cap from the head, shedding
    #: lapsed heads, and leaves the rest queued
    BOUNDED_QUEUE = "bounded_queue"


# per-request policy checks read module globals, not Enum class
# attributes (``EnumType.__getattr__`` makes those ~150 ns each)
_FAIR = BatchPolicy.FAIR
_DEADLINE_AWARE = BatchPolicy.DEADLINE_AWARE
_BOUNDED_QUEUE = BatchPolicy.BOUNDED_QUEUE


class AdaptiveBatcher:
    """Per-model request queue with the paper's batch-formation rule."""

    def __init__(
        self,
        batch_limit: int = DEFAULT_BATCH_LIMIT,
        policy: BatchPolicy = BatchPolicy.FIFO,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
    ) -> None:
        if batch_limit < 1:
            raise ValueError(f"batch limit must be >= 1, got {batch_limit}")
        self.batch_limit = batch_limit
        self.policy = policy
        self.queue_limit = queue_limit
        self._queue: Deque[InferenceRequest] = deque()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queue)

    @property
    def pending(self) -> int:
        return len(self._queue)

    def enqueue(self, request: InferenceRequest) -> Optional[InferenceRequest]:
        """Add a request; return the one a full ``BOUNDED_QUEUE`` sheds.

        The victim is the soonest ``deadline_at`` (it will miss anyway),
        else the earliest arrival — possibly the newcomer itself.
        """
        queue = self._queue
        queue.append(request)
        if self.policy is not _BOUNDED_QUEUE or len(queue) <= self.queue_limit:
            return None
        victim = min(queue, key=_shed_key)
        queue.remove(victim)
        return victim

    def drain(self) -> List[InferenceRequest]:
        """Empty the queue and return what it held, oldest first."""
        drained = list(self._queue)
        self._queue.clear()
        return drained

    @staticmethod
    def expired(request: InferenceRequest, now: Optional[float]) -> bool:
        """True when the request's deadline hint has already passed.

        Shared by ``DEADLINE_AWARE`` batch formation and the server's
        overload-pushback classification (an expired request is the
        *client's* loss, not a server-saturation signal, so pushback
        must not label it ``OVERLOADED``).
        """
        return (
            now is not None
            and request.deadline_at is not None
            and request.deadline_at <= now
        )

    def form_batch(
        self, now: Optional[float] = None
    ) -> Tuple[List[InferenceRequest], List[InferenceRequest]]:
        """Drain the queue into ``(batch, rejected)``.

        The queue is emptied: everything not in the batch is rejected,
        exactly as §IV-A prescribes.  Under ``DEADLINE_AWARE`` (and
        given ``now``), requests whose ``deadline_at`` has already
        passed are shed into the rejected set before the cap applies.
        ``BOUNDED_QUEUE`` leaves what exceeds the cap queued.
        """
        if self.policy is _BOUNDED_QUEUE:
            queue, taken, lapsed = self._queue, [], []
            while queue and len(taken) < self.batch_limit:
                req = queue.popleft()
                (lapsed if self.expired(req, now) else taken).append(req)
            return taken, lapsed
        drained = self.drain()

        expired: List[InferenceRequest] = []
        if self.policy is _DEADLINE_AWARE and now is not None:
            alive = []
            for req in drained:
                if self.expired(req, now):
                    expired.append(req)
                else:
                    alive.append(req)
            drained = alive

        if len(drained) <= self.batch_limit:
            return drained, expired
        if self.policy is _FAIR:
            batch, rejected = self._fair_select(drained)
        else:
            batch, rejected = drained[: self.batch_limit], drained[self.batch_limit :]
        return batch, expired + rejected

    # ------------------------------------------------------------------
    def _fair_select(
        self, drained: List[InferenceRequest]
    ) -> Tuple[List[InferenceRequest], List[InferenceRequest]]:
        """Round-robin across tenants, FIFO within a tenant."""
        per_tenant: "OrderedDict[str, Deque[InferenceRequest]]" = OrderedDict()
        for req in drained:
            per_tenant.setdefault(req.tenant, deque()).append(req)
        batch: List[InferenceRequest] = []
        while len(batch) < self.batch_limit and per_tenant:
            for tenant in list(per_tenant):
                queue = per_tenant[tenant]
                batch.append(queue.popleft())
                if not queue:
                    del per_tenant[tenant]
                if len(batch) == self.batch_limit:
                    break
        rejected = [req for queue in per_tenant.values() for req in queue]
        # preserve arrival order among the rejected for deterministic stats
        rejected.sort(key=lambda r: r.request_id)
        return batch, rejected


def _shed_key(request: InferenceRequest) -> Tuple[int, float]:
    """``BOUNDED_QUEUE`` victim order: soonest deadline, then oldest."""
    if request.deadline_at is not None:
        return (0, request.deadline_at)
    return (1, request.arrived_at)
