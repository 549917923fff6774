"""The simulation environment: clock, event heap, run loop.

Hot-path notes (see ``docs/performance.md`` for the full cost model):

* :meth:`Environment.run` pops and dispatches events itself, one loop
  iteration per event rather than one :meth:`Environment.step` call;
* cancelled events are *lazily deleted* — they stay in the heap as dead
  entries that the run loop skips, and the heap is compacted in place
  once dead entries dominate;
* :meth:`Environment.call_later` / :meth:`Environment.call_at` build
  their timer event field by field and push it themselves: one Python
  frame per timer.  Every activity in the testbed, per-frame or
  periodic, is a chain of these timers;
* the opt-in :class:`EnvStats` block counts scheduling activity without
  adding more than a ``None``-check to the uninstrumented hot path
  (timers take the slow, accounted path, :meth:`Environment._arm`,
  while it is on).
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.events import Event, EventPriority, PENDING


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` early."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


@dataclass
class EnvStats:
    """Opt-in kernel counters (``Environment(stats=True)``).

    Every field is maintained by the kernel itself, so cancellation and
    lazy-deletion bookkeeping (``events_cancelled``/``events_skipped``/
    ``heap_compactions``) are exact.  ``events_by_process`` counts
    scheduled events by owner, which is the first thing to read when
    one component floods the heap: a timer whose callback is a bound
    method of an object with an ``event_owner`` name (``link:uplink``,
    ``<server>:service``, ``<device>:camera``, ``<device>:control``,
    ``background-load``, ``fault:<injector>``, ...) is counted under
    that name; other events are counted in the totals only.  (The field
    keeps the name it had when owners were processes.)  ``str()`` is the
    one-line :meth:`summary`; :meth:`as_dict` is the JSON form that
    ``repro --json profile`` emits.
    """

    events_scheduled: int = 0
    events_processed: int = 0
    events_cancelled: int = 0
    #: dead (cancelled) entries dropped when they reached the heap top
    events_skipped: int = 0
    heap_compactions: int = 0
    peak_heap_size: int = 0
    #: owner name -> timers it scheduled (a timer's ``event_owner``)
    events_by_process: Counter = field(default_factory=Counter)

    def summary(self) -> str:
        top = ", ".join(
            f"{name}:{n}" for name, n in self.events_by_process.most_common(5)
        )
        return (
            f"{self.events_processed} processed / {self.events_scheduled} "
            f"scheduled, {self.events_cancelled} cancelled "
            f"({self.events_skipped} lazily skipped, "
            f"{self.heap_compactions} compactions), "
            f"peak heap {self.peak_heap_size}, "
            f"top schedulers: {top or '-'}"
        )

    __str__ = summary

    def as_dict(self) -> dict:
        return {
            "events_scheduled": self.events_scheduled,
            "events_processed": self.events_processed,
            "events_cancelled": self.events_cancelled,
            "events_skipped": self.events_skipped,
            "heap_compactions": self.heap_compactions,
            "peak_heap_size": self.peak_heap_size,
            "events_by_process": dict(self.events_by_process),
        }


#: dead entries tolerated before a cancel may trigger compaction
_COMPACT_DEAD_MIN = 512

#: timer priority default, a plain int like the ones schedule() pushes
_NORMAL = int(EventPriority.NORMAL)
_new_event = Event.__new__
_heappush = heapq.heappush

#: when not None, every new Environment gets an EnvStats block that is
#: also appended here — how ``repro profile`` reaches the environments
#: constructed deep inside experiment runners
_stats_sink: Optional[List["EnvStats"]] = None


def capture_env_stats(sink: Optional[List["EnvStats"]]) -> None:
    """Install (or clear, with None) the global EnvStats capture sink."""
    global _stats_sink
    _stats_sink = sink


class Environment:
    """Execution environment for a deterministic event-driven simulation.

    Time is a ``float`` in *seconds* (the natural unit for this paper:
    frame periods, deadlines and controller steps are all expressed in
    seconds).  Events at equal timestamps are ordered by
    ``(priority, insertion sequence)`` so runs are fully deterministic.
    """

    def __init__(self, initial_time: float = 0.0, stats: bool = False) -> None:
        #: current simulation time (seconds).  A plain attribute, not a
        #: property: every handler reads it, and only :meth:`run` and
        #: :meth:`step` write it.
        self.now = float(initial_time)
        # heap entries: (time, priority, seq, event)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        #: cancelled entries still sitting in the heap (lazy deletion)
        self._dead = 0
        sink = _stats_sink
        if stats or sink is not None:
            self._stats: Optional[EnvStats] = EnvStats()
            if sink is not None:
                sink.append(self._stats)
        else:
            self._stats = None
        #: opt-in per-frame span tracer (:class:`repro.trace.Tracer`).
        #: None by default; every instrumentation point in the testbed
        #: guards on it, so the untraced hot path pays one attribute
        #: load and a None-check per hooked operation.
        self.tracer: Optional[Any] = None

    # ------------------------------------------------------------------
    @property
    def stats(self) -> Optional[EnvStats]:
        """The kernel counter block, or None when not enabled."""
        return self._stats

    def enable_stats(self) -> EnvStats:
        """Attach (or return the existing) :class:`EnvStats` block."""
        if self._stats is None:
            self._stats = EnvStats()
        return self._stats

    def queue_size(self) -> int:
        """Number of *live* scheduled-but-unprocessed events.

        Cancelled entries awaiting lazy deletion are excluded, so
        fault-invariant checks and debug dumps keep seeing the schedule
        the simulation will actually execute.
        """
        return len(self._queue) - self._dead

    # ------------------------------------------------------------------
    # event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def call_later(
        self,
        delay: float,
        fn: Callable[[Event], None],
        value: Any = None,
        priority: int = _NORMAL,
    ) -> Event:
        """Run ``fn(event)`` after ``delay`` seconds; cancellable.

        The one-shot timer primitive behind every activity in the
        testbed (camera, link, server, offload watchdogs, local
        inference, the 1 Hz measure loop, fault windows): one heap
        entry, and :meth:`Event.cancel` retires it for
        O(1) when the guarded outcome settles first.  ``value`` rides on
        the event (``event.value`` inside the callback) so callers need
        no closure per timer.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        if self._stats is not None:
            return self._arm(self.now + delay, fn, value, priority)
        # Built field by field (no __init__ call) and pushed here: one
        # Python frame per timer.
        ev = _new_event(Event)
        ev.env = self
        ev.callbacks = [fn]
        ev.value = value
        ev._scheduled = True
        ev._cancelled = False
        _heappush(self._queue, (self.now + delay, priority, self._seq, ev))
        self._seq += 1
        return ev

    def call_at(
        self,
        when: float,
        fn: Callable[[Event], None],
        value: Any = None,
        priority: int = _NORMAL,
    ) -> Event:
        """Run ``fn(event)`` at exactly the absolute time ``when``.

        The absolute twin of :meth:`call_later`: a caller that adds up
        its own firing time (the link sums a frame's packet and stall
        times, the background load its arrival plus the network delay)
        would see ``now + (when - now)`` re-rounded one ulp off
        ``when``.  A ``when`` in the past raises ``ValueError``.
        """
        if when < self.now:
            raise ValueError(f"timer time {when!r} is in the past (now={self.now!r})")
        if self._stats is not None:
            return self._arm(when, fn, value, priority)
        # call_later's body, repeated rather than shared: a shared helper
        # would be a second Python frame per timer
        ev = _new_event(Event)
        ev.env = self
        ev.callbacks = [fn]
        ev.value = value
        ev._scheduled = True
        ev._cancelled = False
        _heappush(self._queue, (when, priority, self._seq, ev))
        self._seq += 1
        return ev

    def _arm(
        self, when: float, fn: Callable[[Event], None], value: Any, priority: int
    ) -> Event:
        """The slow, accounted timer path (stats on).

        The timer is counted under its owner: the ``event_owner`` name
        of the object whose bound method ``fn`` is, if any.
        """
        ev = Event(self)
        ev.value = value
        ev.callbacks.append(fn)
        ev._scheduled = True
        heapq.heappush(self._queue, (when, int(priority), self._seq, ev))
        self._seq += 1
        self._account(getattr(getattr(fn, "__self__", None), "event_owner", None))
        return ev

    # ------------------------------------------------------------------
    # scheduling / run loop
    # ------------------------------------------------------------------
    def schedule(
        self,
        event: Event,
        priority: int = EventPriority.NORMAL,
        delay: float = 0.0,
    ) -> None:
        """Put a triggered event on the heap, ``delay`` seconds ahead."""
        if event._scheduled:
            raise RuntimeError(f"{event!r} scheduled twice")
        event._scheduled = True
        heapq.heappush(self._queue, (self.now + delay, int(priority), self._seq, event))
        self._seq += 1
        if self._stats is not None:
            self._account(None)

    def _account(self, owner: Optional[str]) -> None:
        """Count one scheduled event (stats on), under ``owner`` if any."""
        stats = self._stats
        stats.events_scheduled += 1
        depth = len(self._queue) - self._dead
        if depth > stats.peak_heap_size:
            stats.peak_heap_size = depth
        if owner is not None:
            stats.events_by_process[owner] += 1

    def _note_cancel(self) -> None:
        """Account one lazy deletion; compact when dead entries dominate."""
        self._dead += 1
        if self._stats is not None:
            self._stats.events_cancelled += 1
        if self._dead > _COMPACT_DEAD_MIN and self._dead * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop dead entries and re-heapify (O(live) amortized).

        In place: the run loop holds the queue list across dispatches.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[3]._cancelled]
        heapq.heapify(queue)
        self._dead = 0
        if self._stats is not None:
            self._stats.heap_compactions += 1

    def peek(self) -> float:
        """Timestamp of the next *live* event, or ``inf`` if none.

        Dead (cancelled) entries at the heap top are pruned as a side
        effect, so the returned time is one ``step`` would advance to.
        """
        queue = self._queue
        while queue and queue[0][3]._cancelled:
            heapq.heappop(queue)
            self._dead -= 1
            if self._stats is not None:
                self._stats.events_skipped += 1
        return queue[0][0] if queue else float("inf")

    def step(self) -> None:
        """Process exactly one live event (skipping cancelled entries)."""
        queue = self._queue
        while True:
            try:
                when, _prio, _seq, event = heapq.heappop(queue)
            except IndexError:
                raise EmptySchedule() from None
            if not event._cancelled:
                break
            # dead entry: drop it without touching the clock
            self._dead -= 1
            if self._stats is not None:
                self._stats.events_skipped += 1
        if when < self.now:  # pragma: no cover - heap guarantees monotonicity
            raise RuntimeError("time went backwards")
        self.now = when

        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)

        if self._stats is not None:
            self._stats.events_processed += 1

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (a time, an event, or exhaustion).

        * ``until=None``: run until no events remain.
        * ``until=<number>``: run until simulation time reaches it (the
          clock is advanced to exactly that time on return).
        * ``until=<Event>``: run until the event fires; returns its
          value.  An already-processed event returns it immediately.
        """
        stop: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
                if stop.callbacks is None:
                    # Already processed: the wait is over before it
                    # starts — never attach the stop callback (it would
                    # fire inline and leak StopSimulation to the caller).
                    return stop.value
            else:
                horizon = float(until)
                if horizon < self.now:
                    raise ValueError(
                        f"until={horizon:g} is in the past (now={self.now:g})"
                    )
                stop = Event(self)
                # LOW priority: events *at* the horizon still fire first.
                stop.value = None
                self.schedule(stop, priority=EventPriority.LOW, delay=horizon - self.now)
            stop.add_callback(self._stop_callback)

        # The dispatch loop of step(), inlined: one iteration per event
        # instead of one method call.  The stop callback ends it by
        # raising StopSimulation; _compact() works in place, so the
        # local queue stays the live heap.
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue:
                when, _prio, _seq, event = heappop(queue)
                if event._cancelled:
                    # dead entry: drop it without touching the clock
                    self._dead -= 1
                    if self._stats is not None:
                        self._stats.events_skipped += 1
                    continue
                if when < self.now:  # pragma: no cover - heap guarantees monotonicity
                    raise RuntimeError("time went backwards")
                self.now = when
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if self._stats is not None:
                    self._stats.events_processed += 1
        except StopSimulation as exc:
            # the stop event ended the loop from inside its callback,
            # before the loop could count it or run the callbacks after
            # the stop callback (waiters added once the run began): run
            # them now, as step() would have
            if self._stats is not None:
                self._stats.events_processed += 1
            for callback in callbacks[callbacks.index(self._stop_callback) + 1:]:
                callback(event)
            return exc.value
        finally:
            # Teardown: detach the stop callback only when the stop
            # event is still pending (a processed stop already consumed
            # it, and a triggered one is about to) — the O(n) scan of a
            # popular event's callback list is paid only on the paths
            # that actually abandoned the wait.
            if stop is not None and stop.value is PENDING:
                stop.remove_callback(self._stop_callback)

        if stop is not None and not stop.triggered:
            raise RuntimeError(
                "run() finished with no events left, but the 'until' event "
                f"{stop!r} never fired"
            )
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation(event.value)
