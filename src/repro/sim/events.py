"""Event primitives for the DES kernel.

An :class:`Event` is a one-shot occurrence in virtual time: it carries
a *value* once triggered, and callbacks attached to it run when the
kernel processes it.  :meth:`~repro.sim.core.Environment.call_later`
and :meth:`~repro.sim.core.Environment.call_at` timers are events born
triggered, with their one callback in place.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.core import Environment


class EventPriority(enum.IntEnum):
    """Tie-break ordering for events scheduled at the same timestamp.

    Lower values fire first.  ``URGENT`` is the start slot of a periodic
    loop (the timer that arms its first tick), ``NORMAL`` is for
    everything else, and ``LOW`` is the ``run(until=<time>)`` stop, so
    events *at* the horizon still fire.
    """

    URGENT = 0
    NORMAL = 2
    LOW = 3


class _Pending:
    """Sentinel for "event has no value yet"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<pending>"


PENDING = _Pending()


class Event:
    """A one-shot occurrence that callbacks can wait on.

    Lifecycle: *pending* → ``succeed(value)`` → *triggered* (scheduled
    on the event heap) → *processed* (callbacks ran).  Events may only
    be triggered once; re-triggering raises ``RuntimeError``.

    A *scheduled* event may be :meth:`cancel`\\ led instead: it stays in
    the heap as a dead entry that the kernel skips (and eventually
    compacts away) without running callbacks — the cheap way to retire
    a timer whose guarded outcome settled first.
    """

    __slots__ = ("env", "callbacks", "value", "_scheduled", "_cancelled")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: callables invoked with this event when it is processed
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        #: the event's value; :data:`PENDING` until it is triggered.  A
        #: plain slot, not a property: every timer callback reads it.
        self.value: Any = PENDING
        self._scheduled = False
        self._cancelled = False

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the heap."""
        return self.value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

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
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with ``value``."""
        if self.value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self.value = value
        self.env.schedule(self)
        return self

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
        The run-loop teardown, the one caller, holds the exact callable
        it attached.
        """
        callbacks = self.callbacks
        if callbacks is None:
            return
        for i, cb in enumerate(callbacks):
            if cb is callback:
                del callbacks[i]
                return

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending" if self.value is PENDING else "triggered"
        return f"<{type(self).__name__} {state} at t={self.env.now:g}>"
