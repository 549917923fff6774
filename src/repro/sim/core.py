"""The simulation environment: clock, event heap, run loop.

Hot-path notes (see ``docs/performance.md`` for the full cost model):

* cancelled events are *lazily deleted* — they stay in the heap as dead
  entries that :meth:`Environment.step` skips, and the heap is compacted
  once dead entries dominate;
* :meth:`Environment.sleep` resumes the active process through a
  reusable pre-wired event instead of a fresh ``Timeout`` + callback
  registration per tick;
* the opt-in :class:`EnvStats` block counts scheduling activity without
  adding more than a ``None``-check to the uninstrumented hot path.

Setting ``REPRO_SIM_SLOWPATH=1`` in the environment disables the sleep
fast path and makes every :meth:`Environment.call_later` /
:meth:`Environment.call_at` timer one process plus its timer event,
which is the escape hatch the determinism tests diff against.  The
fork lives here alone: components never ask which path they run on.
"""

from __future__ import annotations

import heapq
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    EventPriority,
    PENDING,
    Timeout,
)
from repro.sim.process import Process


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
    ``heap_compactions``) are exact.  ``events_by_process`` attributes each scheduled event to the
    process that was active when it was scheduled, which is the first
    thing to read when one component floods the heap.  ``str()`` is the
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
    #: scheduling process name -> events scheduled while it was active
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
        self._now = float(initial_time)
        # heap entries: (time, priority, seq, event)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: cancelled entries still sitting in the heap (lazy deletion)
        self._dead = 0
        sink = _stats_sink
        if stats or sink is not None:
            self._stats: Optional[EnvStats] = EnvStats()
            if sink is not None:
                sink.append(self._stats)
        else:
            self._stats = None
        #: escape hatch: force the pre-optimization code paths
        self._slowpath = bool(os.environ.get("REPRO_SIM_SLOWPATH"))
        #: opt-in per-frame span tracer (:class:`repro.trace.Tracer`).
        #: None by default; every instrumentation point in the testbed
        #: guards on it, so the untraced hot path pays one attribute
        #: load and a None-check per hooked operation.
        self.tracer: Optional[Any] = None

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def slowpath(self) -> bool:
        """True when ``REPRO_SIM_SLOWPATH=1`` disabled the fast paths."""
        return self._slowpath

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

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float) -> Event:
        """Resume the active process ``delay`` seconds from now.

        The allocation-free fast path for periodic loops (camera frame
        clock, controller period, GPU batch former): the process's
        pre-wired resume event is rescheduled instead of building a
        ``Timeout`` + callback list + registration per tick.  Outside a
        process (or under ``REPRO_SIM_SLOWPATH=1``) this degrades to a
        plain :class:`Timeout`.

        The returned event is single-waiter and must be yielded
        immediately by the calling process — it cannot be composed with
        ``|``/``&`` or shared; use :meth:`timeout` for that.
        """
        proc = self._active_process
        if proc is None:
            return Timeout(self, delay)
        return proc.sleep(delay)

    def sleep_until(self, when: float) -> Event:
        """Resume the active process at exactly the absolute time ``when``.

        The absolute twin of :meth:`sleep` for a process that adds up its
        own wakeup time (the link serializer sums a whole frame's packet
        and stall times): sleeping ``when - now`` would be re-rounded
        through ``now + (when - now)`` and can land one ulp off ``when``.
        Same fast path, slow path and single-waiter rules as
        :meth:`sleep`; a ``when`` in the past raises ``ValueError``.
        """
        proc = self._active_process
        if proc is None:
            return Timeout(self, when - self._now, at=when)
        return proc.sleep_until(when)

    def call_later(
        self,
        delay: float,
        fn: Callable[[Event], None],
        value: Any = None,
        priority: int = EventPriority.NORMAL,
    ) -> Event:
        """Run ``fn(event)`` after ``delay`` seconds; cancellable.

        The one-shot timer primitive behind the offload deadline
        watchdog and hedge timers: one heap entry, no process, and
        :meth:`Event.cancel` retires it for O(1) when the guarded
        outcome settles first.  ``value`` rides on the event
        (``event.value`` inside the callback) so callers need no
        closure per timer.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        return self._arm(self._now + delay, fn, value, priority)

    def call_at(
        self,
        when: float,
        fn: Callable[[Event], None],
        value: Any = None,
        priority: int = EventPriority.NORMAL,
    ) -> Event:
        """Run ``fn(event)`` at exactly the absolute time ``when``.

        The absolute twin of :meth:`call_later`, as :meth:`sleep_until`
        is to :meth:`sleep`: a caller that adds up its own firing time
        (the link sums a frame's packet and stall times) would see
        ``now + (when - now)`` re-rounded one ulp off ``when``.  A
        ``when`` in the past raises ``ValueError``.
        """
        if when < self._now:
            raise ValueError(f"timer time {when!r} is in the past (now={self._now!r})")
        return self._arm(when, fn, value, priority)

    def _arm(
        self, when: float, fn: Callable[[Event], None], value: Any, priority: int
    ) -> Event:
        """Schedule a one-shot timer event at ``when``.

        Under ``REPRO_SIM_SLOWPATH=1`` the timer is a process waiting on
        the event instead of a bare callback; the event is scheduled
        right after the process's kick-start, so it keeps its place
        among same-instant events, and cancelling it leaves the process
        waiting forever — a cancelled timer fires nothing on either path.
        """
        ev = Event(self)
        ev._ok = True
        ev._value = value
        if self._slowpath:
            self.process(_timer(ev, fn), name="timer")
        else:
            ev.callbacks.append(fn)
        self.schedule(ev, priority=priority, at=when)
        return ev

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process executing ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # scheduling / run loop
    # ------------------------------------------------------------------
    def schedule(
        self,
        event: Event,
        priority: int = EventPriority.NORMAL,
        delay: float = 0.0,
        at: Optional[float] = None,
    ) -> None:
        """Put a triggered event on the heap, ``delay`` seconds ahead.

        ``at`` pins the absolute time instead (the caller checks that it
        is not in the past); see :meth:`sleep_until`.
        """
        if event._scheduled:
            raise RuntimeError(f"{event!r} scheduled twice")
        event._scheduled = True
        when = self._now + delay if at is None else at
        heapq.heappush(self._queue, (when, int(priority), self._seq, event))
        self._seq += 1
        stats = self._stats
        if stats is not None:
            stats.events_scheduled += 1
            depth = len(self._queue) - self._dead
            if depth > stats.peak_heap_size:
                stats.peak_heap_size = depth
            active = self._active_process
            if active is not None:
                stats.events_by_process[active.name] += 1

    def _note_cancel(self) -> None:
        """Account one lazy deletion; compact when dead entries dominate."""
        self._dead += 1
        if self._stats is not None:
            self._stats.events_cancelled += 1
        if self._dead > _COMPACT_DEAD_MIN and self._dead * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop dead entries and re-heapify (O(live) amortized)."""
        self._queue = [entry for entry in self._queue if not entry[3]._cancelled]
        heapq.heapify(self._queue)
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
        if when < self._now:  # pragma: no cover - heap guarantees monotonicity
            raise RuntimeError("time went backwards")
        self._now = when

        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)

        if self._stats is not None:
            self._stats.events_processed += 1

        if not event._ok and not event._defused:
            # An error nobody waited on: surface it rather than lose it.
            exc = event.value
            raise exc

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (a time, an event, or exhaustion).

        * ``until=None``: run until no events remain.
        * ``until=<number>``: run until simulation time reaches it (the
          clock is advanced to exactly that time on return).
        * ``until=<Event>``: run until the event fires; returns its
          value (raising if it failed).  An already-processed event
          returns (or raises) immediately.
        """
        stop: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
                if stop.callbacks is None:
                    # Already processed: the wait is over before it
                    # starts — never attach the stop callback (it would
                    # fire inline and leak StopSimulation to the caller).
                    if stop._ok:
                        return stop._value
                    stop._defused = True
                    raise stop._value
            else:
                horizon = float(until)
                if horizon < self._now:
                    raise ValueError(
                        f"until={horizon:g} is in the past (now={self._now:g})"
                    )
                stop = Event(self)
                # LOW priority: events *at* the horizon still fire first.
                stop._ok = True
                stop._value = None
                self.schedule(stop, priority=EventPriority.LOW, delay=horizon - self._now)
            stop.add_callback(self._stop_callback)

        try:
            while True:
                try:
                    self.step()
                except EmptySchedule:
                    break
        except StopSimulation as exc:
            return exc.value
        finally:
            # Teardown: detach the stop callback only when the stop
            # event is still pending (a processed stop already consumed
            # it, and a triggered one is about to) — the O(n) scan of a
            # popular event's callback list is paid only on the paths
            # that actually abandoned the wait.
            if stop is not None and stop._value is PENDING:
                stop.remove_callback(self._stop_callback)

        if stop is not None and not stop.triggered:
            raise RuntimeError(
                "run() finished with no events left, but the 'until' event "
                f"{stop!r} never fired"
            )
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event.ok:
            raise StopSimulation(event.value)
        event.defuse()
        raise event.value


def _timer(event: Event, fn: Callable[[Event], None]) -> Generator:
    """Slow-path body of a :meth:`Environment.call_later` timer."""
    yield event
    fn(event)
