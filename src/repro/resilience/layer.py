"""The per-frame attempt discipline both offload clients share.

One :class:`ResilienceLayer` holds the breaker, the retry budget and
the failure taxonomy of one offload client: the simulator's
:class:`~repro.device.offload.OffloadClient` shares its device's layer
(breaker-aware routing, the half-open probe loop, measurement
integration), and the wall-clock
:class:`~repro.realtime.client.ResilientSocketRemote` holds its own.
It owns no timers and no transport, and every decision takes ``now``,
so the DES and asyncio drive the same three decisions: the retry gate
(:meth:`ResilienceLayer.retry`), the verdict on a reply
(:func:`verdict`) and the settle bookkeeping
(:meth:`ResilienceLayer.settle`).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.metrics.taxonomy import FailureKind, FailureTaxonomy
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.budget import RetryBudget
from repro.resilience.config import ResilienceConfig


#: what one reply does to the frame still waiting on it (:func:`verdict`);
#: plain strings, not an Enum, because an Enum member's class-attribute
#: read costs several times a module global's on the per-reply path
COMPLETED = "completed"  # a success inside the deadline
FAILED = "failed"  # a definitive failure: the frame settles at once
RESEND = "resend"  # pushback with a granted retry: re-send after the hint
LATE = "late"  # a success past the deadline: the deadline settles the frame


class ResilienceLayer:
    """Breaker + retry budget + failure taxonomy for one offload client."""

    def __init__(self, config: ResilienceConfig) -> None:
        self.config = config
        self.breaker = CircuitBreaker(config)
        self.retry_budget = RetryBudget(
            rate=config.retry_budget_rate, burst=config.retry_budget_burst
        )
        self.taxonomy = FailureTaxonomy()

    # ------------------------------------------------------------------
    def record(self, kind: FailureKind, count: int = 1) -> None:
        self.taxonomy.record(kind, count)

    # ------------------------------------------------------------------
    def retry(self, now: float, retries: int, deadline_at: float, deadline: float,
              wait: float = 0.0) -> bool:
        """The retry gate: may a frame re-send at ``now + wait``?

        ``retries`` is what the frame already spent and ``deadline_at``
        its deadline, anchored at the original send (a retry gets no
        extension).  Refused without a record once ``max_retries`` are
        spent or while the breaker is not closed (it already declared
        the path dead; retries there are the amplification it exists to
        prevent); refused as ``RETRY_WINDOW_CLOSED`` when less than
        ``min_reply_frac`` of the deadline would remain at transmission,
        and as ``RETRY_DENIED`` when the token bucket is dry.  A grant
        is recorded as ``RETRY_SENT``.
        """
        config = self.config
        if retries >= config.max_retries or not self.breaker.is_closed:
            return False
        if deadline_at - (now + wait) < config.min_reply_frac * deadline:
            self.taxonomy.record(FailureKind.RETRY_WINDOW_CLOSED)
            return False
        if not self.retry_budget.try_acquire(now):
            self.taxonomy.record(FailureKind.RETRY_DENIED)
            return False
        self.taxonomy.record(FailureKind.RETRY_SENT)
        return True

    def settle(self, now: float, kind: Optional[FailureKind], trial: bool = False,
               retry_after: Optional[float] = None) -> None:
        """Book a frame's definitive outcome; ``kind`` None is a success.

        A half-open ``trial`` probe's outcome goes to
        :meth:`CircuitBreaker.record_probe` (a failed one also counts
        as ``PROBE_FAILED``), never to the data-path counters; any other
        frame's to ``record_success`` / ``record_failure``, where an
        overload hint (``retry_after``) may seed the first backoff.
        """
        breaker = self.breaker
        if kind is not None:
            self.taxonomy.record(kind)
        if trial:
            breaker.record_probe(kind is None, now)
            if kind is not None:
                self.taxonomy.record(FailureKind.PROBE_FAILED)
        elif kind is None:
            breaker.record_success(now)
        else:
            breaker.record_failure(now, retry_after)


def verdict(layer: Optional[ResilienceLayer], now: float, reply: Any, late: bool,
            retries: int, deadline_at: float, deadline: float,
            probe: bool = False) -> str:
    """What ``reply`` (either tier's: ``ok``, ``overloaded``,
    ``retry_after``) does to the frame waiting on it.

    ``late`` says it arrived past the frame's deadline.  An overload
    reply is re-sent after its hint when ``layer`` grants the retry
    (never for a ``probe``); the bare client (``layer`` None) never
    re-sends.  A granted re-send records ``OVERLOADED`` here, as the
    settle of a refused one does.
    """
    if reply.ok:
        return LATE if late else COMPLETED
    if layer is not None and reply.overloaded:
        hint = reply.retry_after
        if not probe and layer.retry(now, retries, deadline_at, deadline, hint or 0.0):
            layer.taxonomy.record(FailureKind.OVERLOADED)
            return RESEND
    return FAILED
