"""Pipelined offload client with deadline bookkeeping.

§II-B: "an offloaded inference task is successful if its result
returns before its deadline" and "we consider pipelined offloading to
overlap frame processing".  So the client

* ships frames over the uplink *without* waiting for responses;
* watches each frame's deadline: if no successful response has arrived
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

The retry gate, the reply verdict and the settle bookkeeping are the
layer's (:mod:`repro.resilience.layer`), shared with the wall-clock
client; this class adds the kernel timers, the links, fleet failover,
the latency breakdown and tracing.

Timers are per queue, not per frame.  The deadline, the hedge point and
the attribution grace each fall a constant offset after an instant that
never decreases (the send, or the deadline failure), so each is a FIFO
of ``(due, entry)`` in due order with one kernel timer at its earliest
live entry.  The timer settles every entry that is due, skips the ones
a response already settled, and re-arms; a response cancels nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Tuple, TYPE_CHECKING

from repro.device.camera import Frame
from repro.metrics.breakdown import BreakdownCollector
from repro.metrics.taxonomy import FailureKind
from repro.netem.link import Link
from repro.resilience.config import ResilienceConfig
from repro.resilience.layer import COMPLETED, LATE, RESEND, ResilienceLayer, verdict
from repro.server.requests import InferenceRequest, Response
from repro.server.server import EdgeServer
from repro.sim.core import Environment
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fleet.router import Router

#: each cause a frame can fail by: its taxonomy kind, its offload
#: span's status, and its frame span's status and attributes
_FAILURES = {
    "deadline": (FailureKind.SILENT_TIMEOUT, "timeout", "timeout", {"cause": "deadline"}),
    "overloaded": (FailureKind.OVERLOADED, "overloaded", "timeout", {"cause": "overloaded"}),
    "rejected": (FailureKind.REJECTED, "rejected", "rejected", {}),
    "crash": (FailureKind.CRASH_DROPPED, "crash", "crash-dropped", {}),
    "no-route": (FailureKind.NO_ROUTE, "no-route", "timeout", {"cause": "no-route"}),
}


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
        #: EnvStats counts the deadline, hedge, grace and resend timers
        #: under this name
        self.event_owner = f"{tenant}:offload"
        self.model_name = model_name
        #: never reassigned: the deadline and hedge FIFOs stay in due
        #: order only while every entry adds the same offset to a send
        #: time that never decreases
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
        #: for a (late) response: frame_id -> (record, violation time)
        self._late_pending: Dict[int, tuple] = {}
        #: (due, record) of every send's deadline, and of every hedged
        #: send's hedge point; (due, frame_id) of every attribution grace
        self._deadlines: Deque[Tuple[float, _Outstanding]] = deque()
        self._hedges: Deque[Tuple[float, _Outstanding]] = deque()
        self._graces: Deque[Tuple[float, int]] = deque()
        #: the one pending timer of each FIFO (None while it is empty)
        self._deadline_timer: Optional[Event] = None
        self._hedge_timer: Optional[Event] = None
        self._grace_timer: Optional[Event] = None
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
        success nor timeout.  Every deadline and hedge entry belongs to
        one of these frames, so both FIFOs are cleared and their timers
        ``cancel()``-ed: a frame sent afterwards arms a fresh timer at
        its own deadline.  Responses that arrive later hit the usual
        already-settled path and are discarded.  Returns the number of
        frames dropped.
        """
        dropped = 0
        tracer = self.env.tracer
        for frame_id in list(self._outstanding):
            record = self._outstanding[frame_id]
            self._settle(record, frame_id)
            if record.is_probe:
                continue
            self.aborted += 1
            dropped += 1
            if tracer is not None:
                now = self.env.now
                tracer.end_offload(self.tenant, frame_id, now, "aborted")
                tracer.finish_frame(self.tenant, frame_id, now, "aborted")
        self._deadlines.clear()
        self._hedges.clear()
        for timer in (self._deadline_timer, self._hedge_timer):
            if timer is not None:
                timer.cancel()
        self._deadline_timer = self._hedge_timer = None
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
        now = env.now
        due = now + self.deadline
        self._deadlines.append((due, record))
        if self._deadline_timer is None:
            self._deadline_timer = env.call_at(due, self._deadline_fire)
        r = self.resilience
        if r is not None and not is_probe and r.config.max_retries > 0:
            due = now + r.config.retry_after_frac * self.deadline
            self._hedges.append((due, record))
            if self._hedge_timer is None:
                self._hedge_timer = env.call_at(due, self._hedge_fire)

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
        # the retry gate's reply window, also without a resilience layer
        min_frac = (
            ResilienceConfig if self.resilience is None else self.resilience.config
        ).min_reply_frac
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
                self.crash_drops += 1
                self._fail(record, "crash")
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

    def _no_route(self, record: _Outstanding, settle: bool) -> None:
        """No healthy server admitted the attempt."""
        self.no_routes += 1
        if settle and not record.settled:
            self._fail(record, "no-route")
        elif self.resilience is not None:
            self.resilience.record(FailureKind.NO_ROUTE)

    # ------------------------------------------------------------------
    # deadline-budgeted retransmission
    # ------------------------------------------------------------------
    def _hedge_fire(self, event: Event) -> None:
        """Hedge: re-send each frame once ``retry_after_frac`` of its
        budget is gone."""
        hedges = self._hedges
        now = self.env.now
        while hedges and hedges[0][0] <= now:
            record = hedges.popleft()[1]
            if not record.settled and self.resilience.retry(
                now, record.retries, record.sent_at + self.deadline, self.deadline
            ):
                self._spend_retry(record)
                self._transmit(record)
        while hedges and hedges[0][1].settled:
            hedges.popleft()
        self._hedge_timer = (
            self.env.call_at(hedges[0][0], self._hedge_fire) if hedges else None
        )

    def _spend_retry(self, record: _Outstanding) -> None:
        record.retries += 1
        self.retries += 1

    def _resend_fire(self, event: Event) -> None:
        """A pushback re-send's hint ran out."""
        record = self._outstanding.get(event.value)
        if record is None or record.settled:
            return  # a response (or the watchdog) beat the hint
        self._transmit(record)

    # ------------------------------------------------------------------
    def _on_server_response(self, response: Response) -> None:
        """Server-side completion: route the response down the link."""
        self.downlink.send(self.response_bytes, response, self._on_response_arrival)

    def _on_response_arrival(self, response: Response) -> None:
        frame_id = response.frame_id
        record = self._outstanding.get(frame_id)
        if record is None or record.settled:
            self._attribute_late(response)
            return  # already counted as a timeout (late response)
        now = self.env.now
        rtt = now - record.sent_at
        v = verdict(
            self.resilience, now, response, rtt > self.deadline, record.retries,
            record.sent_at + self.deadline, self.deadline, record.is_probe,
        )
        if v is COMPLETED or v is LATE:
            if self.breakdown is not None and not record.is_probe:
                self._record_breakdown(record, response, ok=v is COMPLETED, at=now)
            if v is LATE:
                return  # the watchdog settles it
            self._settle(record, frame_id)
            self.last_rtt = rtt
            self._book(record, None)
            if record.is_probe:
                self._probe_done(record, True)
                return
            self.successes += 1
            tracer = self.env.tracer
            if tracer is not None:
                tracer.end_offload(self.tenant, frame_id, now, "ok", rtt=rtt)
                tracer.finish_frame(self.tenant, frame_id, now, "completed-offload")
            self.on_success(record.frame, rtt)
        elif v is RESEND:
            # Explicit pushback: the server is saturated but alive, and
            # the hint still leaves room for a useful reply.
            self.overloads += 1
            self._spend_retry(record)
            wait = response.retry_after or 0.0
            if wait > 0:
                self.env.call_later(wait, self._resend_fire, value=frame_id)
            else:
                self._transmit(record)
        elif response.overloaded:
            # No retry possible: a definitive failure *now* — don't
            # burn the rest of the deadline waiting for nothing.
            self.overloads += 1
            self._fail(record, "overloaded", retry_after=response.retry_after)
        else:
            self.rejections += 1
            self._fail(record, "rejected")

    def _deadline_fire(self, event: Event) -> None:
        """Deadlines passed with no definitive outcome: fail those frames."""
        deadlines = self._deadlines
        now = self.env.now
        while deadlines and deadlines[0][0] <= now:
            record = deadlines.popleft()[1]
            if not record.settled:
                self._fail(record, "deadline")
        while deadlines and deadlines[0][1].settled:
            deadlines.popleft()
        self._deadline_timer = (
            self.env.call_at(deadlines[0][0], self._deadline_fire) if deadlines else None
        )

    def _fail(self, record: _Outstanding, cause: str, retry_after: Optional[float] = None) -> None:
        """Settle ``record`` as failed by ``cause`` (a ``_FAILURES`` key).

        The frame counts toward ``T`` now and leaves the path's health
        ledger a failure; a probe only reports the failure to its owner.
        """
        kind, offload_status, frame_status, attrs = _FAILURES[cause]
        frame = record.frame
        frame_id = frame.frame_id
        self._settle(record, frame_id)
        self._book(record, kind, retry_after)
        if record.is_probe:
            self._probe_done(record, False)
            return
        now = self.env.now
        self.timeouts += 1
        breakdown = self.breakdown
        if breakdown is not None and (cause == "overloaded" or cause == "rejected"):
            breakdown.record_rejection(now)
        tracer = self.env.tracer
        if tracer is not None:
            tracer.end_offload(self.tenant, frame_id, now, offload_status)
            tracer.finish_frame(self.tenant, frame_id, now, frame_status, **attrs)
        self.on_timeout(frame, cause)
        if breakdown is not None and cause == "deadline":
            # Attribution is deferred: a late response (if one ever
            # comes) tells us whether network or server ate the budget;
            # true silence is a network loss.  A late response only
            # forgets the pending entry; the grace FIFO skips it.
            self._late_pending[frame_id] = (record, now)
            due = now + max(4.0 * self.deadline, 1.0)
            self._graces.append((due, frame_id))
            if self._grace_timer is None:
                self._grace_timer = self.env.call_at(due, self._grace_expired)

    def _grace_expired(self, event: Event) -> None:
        """No response within the grace period: a network loss."""
        graces = self._graces
        late = self._late_pending
        now = self.env.now
        while graces and graces[0][0] <= now:
            pending = late.pop(graces.popleft()[1], None)
            if pending is not None:
                self.breakdown.record_silent_timeout(pending[1])
        while graces and graces[0][1] not in late:
            graces.popleft()
        self._grace_timer = (
            self.env.call_at(graces[0][0], self._grace_expired) if graces else None
        )

    def _attribute_late(self, response: Response) -> None:
        """A response for a frame already counted as violated."""
        pending = self._late_pending.pop(response.frame_id, None)
        if pending is None or self.breakdown is None:
            return
        record, violated_at = pending
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
        # the deadline and hedge FIFOs skip the record from now on
        record.settled = True
        self._outstanding.pop(frame_id, None)

    def _book(self, record: _Outstanding, kind: Optional[FailureKind],
              retry_after: Optional[float] = None) -> None:
        """Feed a definitive outcome (``kind`` None: success) to the
        resilience layer's taxonomy and breaker.

        In fleet mode the per-server health ledger replaces the
        device-wide breaker: outcomes feed the pool (which ejects a
        server after ``fail_threshold`` consecutive failures — its own
        breaker, with probation as the half-open state), the breaker
        never engages, and a crash-drop feeds nothing (the pool ejected
        that server already).
        """
        r = self.resilience
        router = self.router
        if r is not None:
            trial = record.on_result is not None
            if router is None or trial:
                r.settle(self.env.now, kind, trial, retry_after)
            elif kind is not None:
                r.record(kind)
        if router is not None and record.server_name is not None and (
            kind is not FailureKind.CRASH_DROPPED
        ):
            ok = kind is None
            router.record_result(record.server_name, ok, rtt=self.last_rtt if ok else None)

    def _probe_done(self, record: _Outstanding, ok: bool) -> None:
        if record.on_result is not None:
            record.on_result(ok)
        elif self.on_probe_result is not None:
            self.on_probe_result(ok)
