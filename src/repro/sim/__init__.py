"""Deterministic discrete-event simulation (DES) kernel.

This package is the concurrency substrate for the FrameFeedback
reproduction.  The paper's system is a real-time distributed system
(threads, sockets, GPUs); here every concurrent activity is a chain of
cancellable one-shot timers — :meth:`~repro.sim.core.Environment.call_later`
/ :meth:`~repro.sim.core.Environment.call_at` callbacks, each an
:class:`~repro.sim.events.Event` — executed in virtual time by an
:class:`~repro.sim.core.Environment`.  A periodic loop is a callback that
re-arms its own timer.

Written from scratch so the repository is self-contained.  Determinism
guarantees:

* events scheduled for the same timestamp fire in (priority, FIFO)
  order, so a run is a pure function of its seed;
* all randomness flows through :class:`~repro.sim.rng.RngRegistry`,
  which derives one independent ``numpy`` generator per named
  component from a single root seed.

Typical usage::

    from repro.sim import Environment

    def tick(event):
        print("tick at", env.now)
        env.call_later(1.0, tick)

    env = Environment()
    env.call_later(1.0, tick)
    env.run(until=10.0)
"""

from repro.sim.core import Environment, EnvStats, StopSimulation
from repro.sim.events import Event, EventPriority
from repro.sim.rng import RngRegistry

__all__ = [
    "EnvStats",
    "Environment",
    "Event",
    "EventPriority",
    "RngRegistry",
    "StopSimulation",
]
