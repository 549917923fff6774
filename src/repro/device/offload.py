"""Pipelined offload client with deadline bookkeeping.

§II-B: "an offloaded inference task is successful if its result
returns before its deadline" and "we consider pipelined offloading to
overlap frame processing".  So the client

* ships frames over the uplink *without* waiting for responses;
* starts a watchdog per frame: if no successful response has arrived
  by ``deadline`` seconds after capture, the frame counts toward the
  timeout rate ``T`` at that instant (this covers network drops, slow
  responses, *and* responses that never come);
* counts server rejections toward ``T`` the moment the rejection
  response arrives (§II-A.3 folds rejections into ``T_l``).

A late success (response after the deadline) is discarded: the frame
already counted as a violation and real-time results have no value
past their deadline.

With a :class:`~repro.resilience.ResilienceLayer` attached the client
additionally

* hedges a retransmission once ``retry_after_frac`` of the deadline
  has passed with no reply (first response wins; the watchdog still
  anchors at the *original* send, so a retried frame gets no deadline
  extension);
* honours server overload pushback: an ``OVERLOADED`` response is
  retried after the server's ``retry_after`` hint when the remaining
  budget still admits a useful reply, and otherwise counts as a
  definitive failure immediately instead of burning the rest of the
  250 ms in silence;
* feeds every definitive outcome to the circuit breaker and the
  failure taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.device.camera import Frame
from repro.metrics.breakdown import BreakdownCollector
from repro.metrics.taxonomy import FailureKind
from repro.netem.link import Link
from repro.resilience.layer import ResilienceLayer
from repro.server.requests import InferenceRequest, Response
from repro.server.server import EdgeServer
from repro.sim.core import Environment
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fleet.router import Router

#: remaining-deadline fraction below which a failover re-send is
#: pointless; matches ``ResilienceConfig.min_reply_frac`` so the fleet
#: tier makes the same budget call without requiring a resilience layer
FAILOVER_MIN_REPLY_FRAC = 0.3


@dataclass
class _Outstanding:
    frame: Frame
    sent_at: float
    settled: bool = False
    is_probe: bool = False
    #: retransmissions already spent on this frame
    retries: int = 0
    #: fleet failovers already spent on this frame (at most one)
    failovers: int = 0
    #: server the most recent copy was routed to (fleet mode only)
    server_name: Optional[str] = None
    #: per-send result hook (half-open trial probes); when set, the
    #: outcome goes here instead of the shared ``on_probe_result`` so
    #: breaker trials never pollute the controller's heartbeat signal
    on_result: Optional[Callable[[bool], None]] = None
    #: cancellable deadline / hedge timers; retired in ``_settle`` the
    #: moment a definitive outcome lands
    watchdog: Optional[Event] = None
    hedge: Optional[Event] = None


class OffloadClient:
    """The device side of the offload path."""

    def __init__(
        self,
        env: Environment,
        uplink: Link,
        downlink: Link,
        server: EdgeServer,
        tenant: str,
        model_name: str,
        deadline: float,
        response_bytes: int,
        on_success: Callable[[Frame, float], None],
        on_timeout: Callable[[Frame, str], None],
        on_probe_result: Optional[Callable[[bool], None]] = None,
        breakdown: Optional[BreakdownCollector] = None,
        resilience: Optional[ResilienceLayer] = None,
        router: Optional["Router"] = None,
    ) -> None:
        self.env = env
        self.uplink = uplink
        self.downlink = downlink
        self.server = server
        self.tenant = tenant
        self.model_name = model_name
        self.deadline = deadline
        self.response_bytes = response_bytes
        self.on_success = on_success
        self.on_timeout = on_timeout
        self.on_probe_result = on_probe_result
        #: optional omniscient-analysis collector (T_n/T_l attribution);
        #: never consulted by any controller — that is the paper's point
        self.breakdown = breakdown
        #: optional resilient-path state (None = the paper's bare client)
        self.resilience = resilience
        #: optional fleet routing seam; when set, every attempt asks the
        #: router for a server and outcomes feed the pool's per-server
        #: health ledger instead of the device-wide breaker
        self.router = router
        self._outstanding: Dict[int, _Outstanding] = {}
        #: frames already counted as violations whose attribution waits
        #: for a (late) response: frame_id -> (record, violation time,
        #: grace timer)
        self._late_pending: Dict[int, tuple] = {}
        self.sent = 0
        self.probes_sent = 0
        self.successes = 0
        self.timeouts = 0
        self.rejections = 0
        #: server overload-pushback responses received
        self.overloads = 0
        #: retransmissions placed on the wire
        self.retries = 0
        #: in-flight captured frames (not probes) dropped on the floor by
        #: :meth:`abort_inflight`
        self.aborted = 0
        #: in-flight frames re-routed to a healthy server on ejection
        self.failovers = 0
        #: in-flight frames settled at ejection with no failover left
        self.crash_drops = 0
        #: attempts with no routable server (brownout/admission denial)
        self.no_routes = 0
        #: end-to-end latency of the last successful offload (probe incl.)
        self.last_rtt: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def outstanding_count(self) -> int:
        return len(self._outstanding)

    @property
    def frames_in_flight(self) -> int:
        """Outstanding captured frames (probes excluded)."""
        return sum(not r.is_probe for r in self._outstanding.values())

    def abort_inflight(self) -> int:
        """Forget every in-flight frame without counting an outcome.

        Device-reboot semantics: the process that was waiting on these
        responses no longer exists, so the frames count as neither
        success nor timeout.  Each record's deadline watchdog and hedge
        timer are ``cancel()``-ed (keeping EnvStats cancel counts
        accurate).  Responses that arrive later hit the usual
        already-settled path and are discarded.  Returns the number of
        frames dropped.
        """
        dropped = 0
        tracer = self.env.tracer
        for frame_id in list(self._outstanding):
            record = self._outstanding.pop(frame_id)
            record.settled = True
            if record.watchdog is not None:
                record.watchdog.cancel()
                record.watchdog = None
            if record.hedge is not None:
                record.hedge.cancel()
                record.hedge = None
            if record.is_probe:
                continue
            self.aborted += 1
            dropped += 1
            if tracer is not None:
                now = self.env.now
                tracer.end_offload(self.tenant, frame_id, now, "aborted")
                tracer.finish_frame(self.tenant, frame_id, now, "aborted")
        return dropped

    def send(
        self,
        frame: Frame,
        is_probe: bool = False,
        on_result: Optional[Callable[[bool], None]] = None,
    ) -> None:
        """Ship one frame; non-blocking (pipelined)."""
        record = _Outstanding(
            frame=frame,
            sent_at=self.env.now,
            is_probe=is_probe,
            on_result=on_result,
        )
        self._outstanding[frame.frame_id] = record
        if is_probe:
            self.probes_sent += 1
        else:
            self.sent += 1
        tracer = self.env.tracer
        if tracer is not None:
            # Probe frames were never registered at capture, so every
            # tracer hook key-misses into a no-op for them.
            tracer.begin_offload(self.tenant, frame.frame_id, self.env.now)
        self._transmit(record, initial=True)
        env = self.env
        r = self.resilience
        hedged = r is not None and not is_probe and r.config.max_retries > 0
        # Both timers are retired for O(1) in _settle when the
        # response wins.
        record.watchdog = env.call_later(
            self.deadline, self._watchdog_fire, value=frame.frame_id
        )
        if hedged:
            record.hedge = env.call_later(
                r.config.retry_after_frac * self.deadline,
                self._hedge_fire,
                value=frame.frame_id,
            )

    def _transmit(
        self,
        record: _Outstanding,
        server: Optional[EdgeServer] = None,
        initial: bool = False,
    ) -> None:
        """Put one copy of the frame on the uplink (send or re-send).

        ``server`` pins the target (failover path); otherwise the
        router picks one, or the fixed single server is used.  When the
        router has nothing routable, the *initial* send settles as a
        no-route failure immediately; a blocked re-send just stays
        outstanding — an earlier copy may still answer, and the
        watchdog guards the deadline either way.
        """
        target = server
        if target is None:
            if self.router is not None:
                target = self.router.route(self.model_name)
                if target is None:
                    self._no_route(record, settle=initial)
                    return
            else:
                target = self.server
        if self.router is not None:
            record.server_name = target.name
        frame = record.frame
        request = InferenceRequest(
            tenant=self.tenant,
            model_name=self.model_name,
            sent_at=self.env.now,
            payload_bytes=frame.nbytes,
            respond=self._on_server_response,
            frame_id=frame.frame_id,
            attempt=record.retries + record.failovers,
            # deadline hint for DEADLINE_AWARE servers, anchored at the
            # *original* send; note this presumes synchronized clocks
            # (the very machinery ATOMS needs and the paper's design
            # avoids) — the default FIFO policy never reads it
            deadline_at=record.sent_at + self.deadline,
        )
        # A dropped uplink send needs no special handling: the watchdog
        # will fire at the deadline, which is exactly what the real
        # system observes (silence).
        self.uplink.send(frame.nbytes, request, target.submit)

    # ------------------------------------------------------------------
    # fleet failover
    # ------------------------------------------------------------------
    def failover_from(self, dead: str) -> int:
        """Sweep in-flight frames off an ejected server.

        Called by the device when the pool ejects ``dead``.  Every
        outstanding record whose latest copy targeted that server
        either fails over *exactly once* to a healthy server — only
        when the remaining deadline budget still admits a useful reply
        (the watchdog stays anchored at the original send: no deadline
        extension) — or settles as crash-dropped right now instead of
        burning the rest of its deadline in silence.  Returns the
        number of frames re-routed.
        """
        router = self.router
        if router is None:
            return 0
        min_frac = (
            self.resilience.config.min_reply_frac
            if self.resilience is not None
            else FAILOVER_MIN_REPLY_FRAC
        )
        now = self.env.now
        moved = 0
        for frame_id in list(self._outstanding):
            record = self._outstanding.get(frame_id)
            if record is None or record.settled or record.server_name != dead:
                continue
            remaining = record.sent_at + self.deadline - now
            target = None
            if (
                router.failover_enabled
                and record.failovers == 0
                and remaining >= min_frac * self.deadline
            ):
                target = router.route(self.model_name, exclude=dead)
            if target is None:
                self._crash_drop(record)
                continue
            record.failovers += 1
            self.failovers += 1
            moved += 1
            if self.resilience is not None:
                self.resilience.record(FailureKind.FAILED_OVER)
            router.record_failover(dead, target.name)
            tracer = self.env.tracer
            if tracer is not None and not record.is_probe:
                tracer.event(
                    now, "fleet.failover",
                    frame=frame_id, src=dead, dst=target.name,
                )
            self._transmit(record, server=target)
        return moved

    def _crash_drop(self, record: _Outstanding) -> None:
        """Settle an in-flight frame lost to its server's crash."""
        frame_id = record.frame.frame_id
        self._settle(record, frame_id)
        self.crash_drops += 1
        if self.resilience is not None:
            self.resilience.record(FailureKind.CRASH_DROPPED)
        if record.is_probe:
            self._probe_done(record, False)
            return
        self.timeouts += 1
        tracer = self.env.tracer
        if tracer is not None:
            now = self.env.now
            tracer.end_offload(self.tenant, frame_id, now, "crash")
            tracer.finish_frame(self.tenant, frame_id, now, "crash-dropped")
        self.on_timeout(record.frame, "crash")

    def _no_route(self, record: _Outstanding, settle: bool) -> None:
        """No healthy server admitted the attempt."""
        self.no_routes += 1
        if self.resilience is not None:
            self.resilience.record(FailureKind.NO_ROUTE)
        if not settle or record.settled:
            return
        frame_id = record.frame.frame_id
        self._settle(record, frame_id)
        if record.is_probe:
            self._probe_done(record, False)
            return
        self.timeouts += 1
        tracer = self.env.tracer
        if tracer is not None:
            now = self.env.now
            tracer.end_offload(self.tenant, frame_id, now, "no-route")
            tracer.finish_frame(
                self.tenant, frame_id, now, "timeout", cause="no-route"
            )
        self.on_timeout(record.frame, "no-route")

    # ------------------------------------------------------------------
    # deadline-budgeted retransmission
    # ------------------------------------------------------------------
    def _hedge_fire(self, event: Event) -> None:
        """Hedge: re-send once ``retry_after_frac`` of the budget is gone."""
        record = self._outstanding.get(event.value)
        if record is None or record.settled:
            return
        self._maybe_retry(record)

    def _maybe_retry(self, record: _Outstanding, wait: float = 0.0) -> bool:
        """Try to spend a retransmission on ``record``.

        ``wait`` defers the re-send (server retry-after hint).  Returns
        True when a retry was committed — the caller must then leave
        the record outstanding for the watchdog to guard.
        """
        r = self.resilience
        if r is None or record.retries >= r.config.max_retries:
            return False
        if not r.breaker.is_closed:
            # the breaker already declared the path dead; retries there
            # are exactly the amplification it exists to prevent
            return False
        now = self.env.now
        remaining = record.sent_at + self.deadline - (now + wait)
        if remaining < r.config.min_reply_frac * self.deadline:
            r.record(FailureKind.RETRY_WINDOW_CLOSED)
            return False
        if not r.retry_budget.try_acquire(now):
            r.record(FailureKind.RETRY_DENIED)
            return False
        record.retries += 1
        self.retries += 1
        r.record(FailureKind.RETRY_SENT)
        if wait > 0:
            self.env.process(
                self._deferred_resend(record.frame.frame_id, wait),
                name="offload-retry",
            )
        else:
            self._transmit(record)
        return True

    def _deferred_resend(self, frame_id: int, wait: float):
        yield self.env.timeout(wait)
        record = self._outstanding.get(frame_id)
        if record is None or record.settled:
            return  # a response (or the watchdog) beat the hint
        self._transmit(record)

    # ------------------------------------------------------------------
    def _on_server_response(self, response: Response) -> None:
        """Server-side completion: route the response down the link."""
        self.downlink.send(self.response_bytes, response, self._on_response_arrival)

    def _on_response_arrival(self, response: Response) -> None:
        record = self._outstanding.get(response.frame_id)
        if record is None or record.settled:
            self._attribute_late(response)
            return  # already counted as a timeout (late response)
        rtt = self.env.now - record.sent_at
        if self.breakdown is not None and not record.is_probe and response.ok:
            self._record_breakdown(
                record, response, ok=rtt <= self.deadline, at=self.env.now
            )
        tracer = self.env.tracer
        if response.ok and rtt <= self.deadline:
            self._settle(record, response.frame_id)
            self.last_rtt = rtt
            self._record_path_outcome(record, ok=True)
            if record.is_probe:
                self._probe_done(record, True)
            else:
                self.successes += 1
                if tracer is not None:
                    now = self.env.now
                    tracer.end_offload(
                        self.tenant, response.frame_id, now, "ok", rtt=rtt
                    )
                    tracer.finish_frame(
                        self.tenant, response.frame_id, now, "completed-offload"
                    )
                self.on_success(record.frame, rtt)
        elif response.overloaded:
            # Explicit pushback: the server is saturated but alive.
            self.overloads += 1
            r = self.resilience
            if r is not None:
                r.note_overload(response.retry_after)
                r.record(FailureKind.OVERLOADED)
                if not record.is_probe and self._maybe_retry(
                    record, wait=response.retry_after or 0.0
                ):
                    return  # still outstanding; the watchdog guards it
            # No retry possible: a definitive failure *now* — don't
            # burn the rest of the deadline waiting for nothing.
            self._settle(record, response.frame_id)
            self._record_path_outcome(
                record, ok=False, retry_after=response.retry_after
            )
            if record.is_probe:
                self._probe_done(record, False)
            else:
                if self.breakdown is not None:
                    self.breakdown.record_rejection(self.env.now)
                self.timeouts += 1
                if tracer is not None:
                    now = self.env.now
                    tracer.end_offload(
                        self.tenant, response.frame_id, now, "overloaded"
                    )
                    tracer.finish_frame(
                        self.tenant, response.frame_id, now, "timeout",
                        cause="overloaded",
                    )
                self.on_timeout(record.frame, "overloaded")
        elif not response.ok:
            # Rejection: a definitive failure, counted immediately.
            self._settle(record, response.frame_id)
            if self.resilience is not None:
                self.resilience.record(FailureKind.REJECTED)
            self.rejections += 1
            self._record_path_outcome(record, ok=False)
            if record.is_probe:
                self._probe_done(record, False)
            else:
                if self.breakdown is not None:
                    self.breakdown.record_rejection(self.env.now)
                self.timeouts += 1
                if tracer is not None:
                    now = self.env.now
                    tracer.end_offload(
                        self.tenant, response.frame_id, now, "rejected"
                    )
                    tracer.finish_frame(
                        self.tenant, response.frame_id, now, "rejected"
                    )
                self.on_timeout(record.frame, "rejected")
        # else: a successful response past the deadline — leave the
        # record for the watchdog (or it already fired).

    def _watchdog_fire(self, event: Event) -> None:
        """The deadline passed with no definitive outcome."""
        frame_id = event.value
        record = self._outstanding.get(frame_id)
        if record is None or record.settled:
            return
        self._settle(record, frame_id)
        if self.resilience is not None:
            self.resilience.record(FailureKind.SILENT_TIMEOUT)
        self._record_path_outcome(record, ok=False)
        if record.is_probe:
            self._probe_done(record, False)
            return
        self.timeouts += 1
        tracer = self.env.tracer
        if tracer is not None:
            now = self.env.now
            tracer.end_offload(self.tenant, frame_id, now, "timeout")
            tracer.finish_frame(
                self.tenant, frame_id, now, "timeout", cause="deadline"
            )
        self.on_timeout(record.frame, "deadline")
        if self.breakdown is not None:
            # Attribution is deferred: a late response (if one ever
            # comes) tells us whether network or server ate the budget;
            # true silence is a network loss.  A late response cancels
            # the grace timer, so it never lingers in the heap.
            grace = self.env.call_later(
                max(4.0 * self.deadline, 1.0), self._grace_expired, value=frame_id
            )
            self._late_pending[frame_id] = (record, self.env.now, grace)

    def _grace_expired(self, event: Event) -> None:
        """No response within the grace period: a network loss."""
        pending = self._late_pending.pop(event.value, None)
        if pending is not None:
            _record, violated_at, _grace = pending
            self.breakdown.record_silent_timeout(violated_at)

    def _attribute_late(self, response: Response) -> None:
        """A response for a frame already counted as violated."""
        pending = self._late_pending.pop(response.frame_id, None)
        if pending is None or self.breakdown is None:
            return
        record, violated_at, grace = pending
        grace.cancel()
        if response.ok:
            self._record_breakdown(record, response, ok=False, at=violated_at)
        else:
            self.breakdown.record_rejection(violated_at)

    def _record_breakdown(
        self, record: _Outstanding, response: Response, ok: bool, at: float
    ) -> None:
        """Log a returned frame's component times for attribution."""
        self.breakdown.record(
            record.sent_at,
            max(0.0, response.arrived_at - record.sent_at),
            max(0.0, response.completed_at - response.arrived_at),
            max(0.0, self.env.now - response.completed_at),
            ok,
            at,
        )

    def _settle(self, record: _Outstanding, frame_id: int) -> None:
        record.settled = True
        self._outstanding.pop(frame_id, None)
        # Retire the frame's timers; cancel() is a no-op (False) for the
        # timer whose own firing brought us here.
        if record.watchdog is not None:
            record.watchdog.cancel()
            record.watchdog = None
        if record.hedge is not None:
            record.hedge.cancel()
            record.hedge = None

    def _record_path_outcome(
        self,
        record: _Outstanding,
        ok: bool,
        retry_after: Optional[float] = None,
    ) -> None:
        """Feed a definitive outcome to the circuit breaker.

        Half-open trial probes (``on_result`` set) are excluded: their
        verdicts flow through :meth:`CircuitBreaker.record_probe` via
        the device's probe loop, not the data-path counters.

        In fleet mode the per-server health ledger replaces the
        device-wide breaker: outcomes feed the pool (which ejects a
        server after ``fail_threshold`` consecutive failures — its own
        breaker, with probation as the half-open state) and the breaker
        never engages.
        """
        if self.router is not None:
            if record.server_name is not None:
                self.router.record_result(
                    record.server_name, ok,
                    rtt=self.last_rtt if ok else None,
                )
            return
        r = self.resilience
        if r is None or record.on_result is not None:
            return
        if ok:
            r.breaker.record_success(self.env.now)
        else:
            r.breaker.record_failure(self.env.now, retry_after=retry_after)

    def _probe_done(self, record: _Outstanding, ok: bool) -> None:
        if record.on_result is not None:
            record.on_result(ok)
        elif self.on_probe_result is not None:
            self.on_probe_result(ok)
