"""Generator-coroutine processes for the DES kernel."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import Event, EventPriority, Interrupt, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class _SleepEvent(Event):
    """A process's reusable resume timer (see :meth:`Process.sleep`).

    Single-waiter by construction: its callback list is the owning
    process's pre-wired ``[resume]`` list, shared across every reuse, so
    nothing else may register on it.
    """

    __slots__ = ()

    def add_callback(self, callback) -> None:
        raise RuntimeError(
            "sleep events are single-waiter: yield them immediately from "
            "the sleeping process; use env.timeout() for timers that are "
            "shared or composed with | / &"
        )


class Process(Event):
    """A running activity, driven by a Python generator.

    The generator yields :class:`Event` objects; the process suspends
    until each yielded event fires, then resumes with the event's value
    (or has the event's exception thrown into it on failure).  A
    process is itself an event: it fires with the generator's return
    value when the generator finishes, so processes can wait on each
    other (fork/join).
    """

    __slots__ = ("_generator", "_target", "name", "_resume_cb", "_sleep_ev", "_sleep_cbs")

    def __init__(
        self,
        env: "Environment",
        generator: Generator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: the event this process is currently waiting on (None if ready)
        self._target: Optional[Event] = None
        # Bound-method access allocates a fresh object each time (so two
        # reads of self._resume are never `is`-identical); cache one
        # canonical callback for registration *and* identity removal.
        self._resume_cb = self._resume
        #: reusable sleep timer + its pre-wired callback list, created
        #: lazily on the first sleep() so short-lived processes that
        #: never sleep pay nothing for them
        self._sleep_ev: Optional[_SleepEvent] = None
        self._sleep_cbs: Optional[list] = None
        # Kick-start: resume at the current time, before normal events
        # at this instant settle, so a freshly spawned process can react
        # to the same-instant world state.  Built field-by-field (not
        # via Event.__init__) so spawning stays one allocation + one
        # heappush: the event is born already-succeeded with its one
        # callback in place.
        init = Event.__new__(Event)
        init.env = env
        init.callbacks = [self._resume_cb]
        init._value = None
        init._ok = True
        init._scheduled = False
        init._defused = False
        init._cancelled = False
        env.schedule(init, priority=EventPriority.URGENT)

    # ------------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        The process is resumed immediately (URGENT priority) at the
        current simulation time.  Interrupting a finished process is an
        error; interrupting a process twice before it handles the first
        interrupt queues both.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self.env.active_process is self:
            raise RuntimeError("a process cannot interrupt itself")
        interrupt_ev = Event(self.env)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev._defused = True
        interrupt_ev.callbacks.append(self._resume_cb)
        self.env.schedule(interrupt_ev, priority=EventPriority.URGENT)

    def kill(self) -> None:
        """Terminate the process *without* throwing into the generator.

        Crash semantics for fault injection: the process simply stops
        existing, as if its host died.  Unlike :meth:`interrupt`, the
        generator gets no chance to run cleanup or handlers — it is
        closed where it stands.  The event the process was waiting on
        is detached first: a pending fast-path sleep timer is
        ``cancel()``-ed (so :class:`~repro.sim.core.EnvStats` cancel
        counts stay accurate and the tombstone can never resume a dead
        process), any other target merely loses this process's resume
        callback (it may be shared with other waiters).

        The process event itself fires with value ``None`` so joiners
        observe the death.  Killing a finished process or yourself is
        an error, matching :meth:`interrupt`.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has terminated and cannot be killed")
        if self.env.active_process is self:
            raise RuntimeError("a process cannot kill itself")
        target = self._target
        if target is not None:
            if type(target) is _SleepEvent:
                # Shared pre-wired callback list — never mutate it; the
                # whole timer dies (lazy heap deletion, counted).
                target.cancel()
            else:
                target.remove_callback(self._resume_cb)
            self._target = None
        self._generator.close()
        self._release()
        self.succeed(None, priority=EventPriority.NORMAL)

    def sleep(self, delay: float) -> Event:
        """Suspend this process for ``delay`` seconds, allocation-free.

        Reuses one pre-wired :class:`_SleepEvent` whose callback list is
        permanently ``[self._resume]``: each tick of a periodic loop is
        a single ``heappush``, with no Event construction, no callback
        list, and no ``add_callback``.  A fresh timer is allocated only
        when the previous one was cancelled mid-flight (its tombstone
        must stay dead in the heap) — in steady state that never
        happens.  Must be yielded immediately by this process.
        """
        env = self.env
        if env._slowpath:
            return Timeout(env, delay)
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        ev = self._rearm_sleep()
        env.schedule(ev, priority=EventPriority.NORMAL, delay=delay)
        return ev

    def _rearm_sleep(self) -> _SleepEvent:
        """The reusable sleep timer, rewired for one more wait."""
        if self._sleep_cbs is None:
            self._sleep_cbs = [self._resume_cb]
        ev = self._sleep_ev
        if ev is not None and ev.callbacks is None and not ev._cancelled:
            # Previous sleep completed normally: rewire and rearm.
            ev.callbacks = self._sleep_cbs
            ev._scheduled = False
        else:
            # First sleep, or the old timer is a cancelled tombstone
            # still sitting in the heap — it must keep its dead state,
            # so it is abandoned and a fresh timer takes its place.
            ev = _SleepEvent.__new__(_SleepEvent)
            Event.__init__(ev, self.env)
            ev._ok = True
            ev._value = None
            ev.callbacks = self._sleep_cbs
            self._sleep_ev = ev
        return ev

    def _release(self) -> None:
        """Drop the self-references of a process that has finished.

        The cached ``_resume`` callback and the pre-wired sleep timer
        each point back at the process; cleared, a finished process is
        freed by reference counting instead of waiting for a cyclic
        garbage collection.  Stray events still holding the old bound
        callback reach :meth:`_resume`, which ignores a dead process.
        """
        self._resume_cb = None
        self._sleep_cbs = None
        self._sleep_ev = None

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        if self.triggered:
            # The process died (kill()) between this event's scheduling
            # and its firing — e.g. the URGENT kick-start of a process
            # killed in its spawn instant.  Swallow the resume; a failed
            # event is defused so the stray outcome cannot crash the run.
            if not event._ok:
                event._defused = True
            return
        env = self.env
        env._active_process = self

        # Detach from the event we were waiting on (it may differ from
        # `event` if this resumption is an interrupt).
        target = self._target
        if target is not None and target is not event:
            if type(target) is _SleepEvent:
                # The sleep timer's callback list is the shared pre-wired
                # one — never mutate it; kill the whole timer instead.
                target.cancel()
            else:
                target.remove_callback(self._resume_cb)
        self._target = None

        try:
            if event._ok:
                result = self._generator.send(event._value)
            else:
                # Mark delivered so the kernel doesn't treat the failure
                # as unhandled; the generator may still re-raise.
                event._defused = True
                result = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            self._release()
            self.succeed(stop.value, priority=EventPriority.NORMAL)
            return
        except BaseException as exc:
            # Includes an Interrupt the process let escape: a failure.
            env._active_process = None
            self._release()
            self.fail(exc)
            return

        env._active_process = None

        if type(result) is _SleepEvent:
            # Fast path: the callback is pre-wired, no add_callback.
            if result is not self._sleep_ev or result.callbacks is not self._sleep_cbs:
                raise RuntimeError(
                    f"process {self.name!r} yielded a sleep event it does "
                    "not own (or yielded it late)"
                )
            self._target = result
            return
        if not isinstance(result, Event):
            raise RuntimeError(
                f"process {self.name!r} yielded a non-event: {result!r}"
            )
        if result.callbacks is None:
            # Already processed: resume immediately at this instant.
            ev = Event(env)
            if result._ok:
                ev._ok, ev._value = True, result._value
            else:
                result._defused = True
                ev._ok, ev._value = False, result._value
                ev._defused = True
            ev.callbacks.append(self._resume_cb)
            env.schedule(ev, priority=EventPriority.URGENT)
        else:
            result.add_callback(self._resume_cb)
            self._target = result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if not self.triggered else "done"
        return f"<Process {self.name!r} {state}>"
