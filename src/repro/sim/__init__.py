"""Deterministic discrete-event simulation (DES) kernel.

This package is the concurrency substrate for the FrameFeedback
reproduction.  The paper's system is a real-time distributed system
(threads, sockets, GPUs); here every concurrent activity is a
:class:`~repro.sim.process.Process` — a Python generator that yields
:class:`~repro.sim.events.Event` objects — executed in virtual time by
an :class:`~repro.sim.core.Environment`.

The kernel is intentionally SimPy-shaped (environments, processes,
timeouts, conditions) but written from scratch so the
repository is self-contained.  Determinism guarantees:

* events scheduled for the same timestamp fire in (priority, FIFO)
  order, so a run is a pure function of its seed;
* all randomness flows through :class:`~repro.sim.rng.RngRegistry`,
  which derives one independent ``numpy`` generator per named
  component from a single root seed.

Typical usage::

    from repro.sim import Environment

    def ticker(env, period):
        while True:
            yield env.timeout(period)
            print("tick at", env.now)

    env = Environment()
    env.process(ticker(env, 1.0))
    env.run(until=10.0)
"""

from repro.sim.core import Environment, EnvStats, StopSimulation
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    EventPriority,
    Interrupt,
    Timeout,
)
from repro.sim.process import Process
from repro.sim.rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "EnvStats",
    "Environment",
    "Event",
    "EventPriority",
    "Interrupt",
    "Process",
    "RngRegistry",
    "StopSimulation",
    "Timeout",
]
