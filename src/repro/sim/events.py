"""Event primitives for the DES kernel.

An :class:`Event` is a one-shot occurrence in virtual time.  Processes
(generators) yield events to suspend until the event fires; arbitrary
callbacks may also be attached.  Events carry a *value* (on success) or
an *exception* (on failure), mirroring the future/promise pattern.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.core import Environment


class EventPriority(enum.IntEnum):
    """Tie-break ordering for events scheduled at the same timestamp.

    Lower values fire first.  ``URGENT`` is reserved for kernel
    bookkeeping (e.g. process resumption after an interrupt), ``HIGH``
    for resource handoffs, ``NORMAL`` for everything else.
    """

    URGENT = 0
    HIGH = 1
    NORMAL = 2
    LOW = 3


class Interrupt(Exception):
    """Thrown *into* a process when another process interrupts it.

    The interrupting party supplies ``cause``, available via
    :attr:`cause` inside the interrupted process's ``except`` block.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Interrupt(cause={self.cause!r})"


class _Pending:
    """Sentinel for "event has no value yet"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<pending>"


PENDING = _Pending()


class Event:
    """A one-shot occurrence that processes can wait on.

    Lifecycle: *pending* → ``succeed(value)`` or ``fail(exc)`` →
    *triggered* (scheduled on the event heap) → *processed* (callbacks
    ran).  Events may only be triggered once; re-triggering raises
    ``RuntimeError``.

    A *scheduled* event may be :meth:`cancel`\\ led instead: it stays in
    the heap as a dead entry that the kernel skips (and eventually
    compacts away) without running callbacks — the cheap way to retire
    the deadline watchdogs and hedge timers that usually never fire.
    """

    __slots__ = (
        "env",
        "callbacks",
        "_value",
        "_ok",
        "_scheduled",
        "_defused",
        "_cancelled",
    )

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: callables invoked with this event when it is processed
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._cancelled = False
        # A failed event whose exception was delivered to at least one
        # waiter is "defused"; undefused failures crash the run so
        # errors are never silently dropped.
        self._defused = False

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the heap."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception if it failed)."""
        if self._value is PENDING:
            raise RuntimeError("event not yet triggered")
        return self._value

    @property
    def defused(self) -> bool:
        return self._defused

    def defuse(self) -> None:
        """Mark a failed event as handled so it won't crash the run."""
        self._defused = True

    @property
    def cancelled(self) -> bool:
        """True once the event has been withdrawn from the schedule."""
        return self._cancelled

    def cancel(self) -> bool:
        """Withdraw a scheduled-but-unprocessed event from the schedule.

        The heap entry is *not* searched for (that would be O(n)); the
        event is marked dead and the kernel skips it when it pops —
        lazy deletion, with periodic compaction when dead entries pile
        up.  Callbacks never run for a cancelled event.

        Returns True when the event was cancelled by this call; False
        when it had already been processed (the race a deadline
        watchdog loses) or already cancelled.  Cancelling an event that
        was never scheduled is an error: there is nothing to withdraw.
        """
        if self.callbacks is None or self._cancelled:
            return False
        if not self._scheduled:
            raise RuntimeError(f"{self!r} is not scheduled; nothing to cancel")
        self._cancelled = True
        self.env._note_cancel()
        return True

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = EventPriority.NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = EventPriority.NORMAL) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of ``event`` onto this event (callback form)."""
        if event.ok:
            self.succeed(event.value)
        else:
            event.defuse()
            self.fail(event.value)

    # ------------------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback``; runs immediately if already processed."""
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        """Detach ``callback`` (matched by identity) if still attached.

        Identity matching is deliberate: equality on bound methods
        compares ``__self__``/``__func__`` pair-wise, which made the old
        ``in``-then-``remove`` implementation two O(n) equality scans.
        Callers that detach (the run-loop teardown, process re-targeting
        on interrupt) all hold the exact callable they attached.
        """
        callbacks = self.callbacks
        if callbacks is None:
            return
        for i, cb in enumerate(callbacks):
            if cb is callback:
                del callbacks[i]
                return

    # ------------------------------------------------------------------
    # composition sugar: (a & b) waits for both, (a | b) for either
    # ------------------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        if not isinstance(other, Event):
            return NotImplemented
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        if not isinstance(other, Event):
            return NotImplemented
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "pending"
            if self._value is PENDING
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at t={self.env.now:g}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    ``at`` (with ``delay == at - now``) schedules at exactly the absolute
    time ``at`` instead of at the re-rounded ``now + delay``.
    """

    __slots__ = ("delay",)

    def __init__(
        self,
        env: "Environment",
        delay: float,
        value: Any = None,
        at: Optional[float] = None,
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(env)
        self.delay = float(delay)
        self._ok = True
        self._value = value
        env.schedule(self, priority=EventPriority.NORMAL, delay=self.delay, at=at)


class Condition(Event):
    """Composite event over several sub-events.

    Fires when ``evaluate(events, n_done)`` returns True.  The value is
    an ordered dict-like mapping of the *processed* sub-events to their
    values (insertion order = construction order).

    Fired sub-events are collected incrementally in :meth:`_check`, so
    triggering an ``AnyOf`` over a large event set is O(1) per firing
    instead of a full rescan of every sub-event; the construction-order
    contract of the value dict is restored once, at collect time.
    """

    __slots__ = ("_events", "_count", "_fired")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        #: ok sub-events seen by :meth:`_check`, in processing order
        self._fired: List[Event] = []
        for ev in self._events:
            if ev.env is not env:
                raise ValueError("events belong to different environments")
        if not self._events:
            self.succeed({})
            return
        # Sub-events already processed at construction are pre-collected
        # in construction order: the condition may trigger on the first
        # of them, and its value must still include every one (matching
        # the old collect-time rescan semantics).
        for ev in self._events:
            if ev.callbacks is None and ev._ok:
                self._fired.append(ev)
        for ev in self._events:
            if ev.callbacks is None:
                self._check(ev, _record=False)
            else:
                ev.add_callback(self._check)

    def _evaluate(self, count: int, total: int) -> bool:
        raise NotImplementedError

    def _collect(self) -> dict:
        fired = self._fired
        if len(fired) > 1:
            # restore construction order (fired holds processing order)
            fired_set = set(fired)
            return {ev: ev._value for ev in self._events if ev in fired_set}
        return {ev: ev._value for ev in fired}

    def _check(self, event: Event, _record: bool = True) -> None:
        if self.triggered:
            if not event.ok:
                event.defuse()
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        if _record:
            self._fired.append(event)
        self._count += 1
        if self._evaluate(self._count, len(self._events)):
            self.succeed(self._collect())


class AllOf(Condition):
    """Fires when every sub-event has fired."""

    __slots__ = ()

    def _evaluate(self, count: int, total: int) -> bool:
        return count == total


class AnyOf(Condition):
    """Fires when at least one sub-event has fired."""

    __slots__ = ()

    def _evaluate(self, count: int, total: int) -> bool:
        return count >= 1
