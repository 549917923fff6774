"""Host speed, measured with fixed reference work beside the timed work.

The reference machine shares its host with other tenants, and its speed
drifts by 30-65% over minutes.  No statistic taken over one workload's
own timings can remove such a drift.  So a run times reference work of
the same kind right before each piece it times, and scales its timings
to one nominal host speed:

* throughput: a small, fixed discrete-event simulation (``HostSpeed``)
  in the run's own process.  It does the kind of work the program does
  (a heap of event objects, callbacks, seeded random draws, counter
  updates) over a working set of the program's size: every event
  updates a random one of ``TABLE_SIZE`` small objects and looks up a
  random key in a large dict.  A rate measured while it ran at ``rate``
  events/s is reported as if it ran at ``REFERENCE_RATE``;
* set-up: the start of a bare interpreter (``interpreter_start``),
  which pays the same process start and module loading as a set-up
  probe.  A probe is reported in units of ``REFERENCE_START_S``.

The references are benchmark code and must never change: they are the
ruler.  They share no code with the program, so a change to the program
cannot move them.
"""

from __future__ import annotations

import gc
import heapq
import os
import random
import subprocess
import sys
from time import perf_counter
from typing import List

#: the nominal host speed, in reference events/s, every timing is scaled
#: to.  It sets only the scale of the reported figures; changing it would
#: make them incomparable with every earlier run, so never change it.
REFERENCE_RATE = 250_000.0
#: the nominal start time of a bare interpreter that set-up times are
#: scaled to; as with ``REFERENCE_RATE``, never change it
REFERENCE_START_S = 0.05
#: frames one sample simulates (12,002 events, ~50 ms on the reference)
FRAMES = 6000
#: objects in the working set the events update
TABLE_SIZE = 400_000
KEY_SPACE = 1_000_003


class _Record:
    __slots__ = ("count", "total", "spare")

    def __init__(self, i: int) -> None:
        self.count, self.total, self.spare = i, float(i), None


_table: List[_Record] = []
_keys: dict = {}
_table_bytes = 0


def prepare() -> int:
    """Build the working set once, before the program is imported.

    Returns the resident bytes it added, which the run leaves out of its
    peak memory.  ``gc.freeze`` then moves the table, with whatever the
    interpreter holds at this point, out of every later collection, so
    the program's collections do not walk it.
    """
    global _table_bytes
    if not _table:
        before = _resident_bytes()
        _table.extend(_Record(i) for i in range(TABLE_SIZE))
        _keys.update((i * 7919 % KEY_SPACE, i) for i in range(TABLE_SIZE // 2))
        gc.freeze()
        _table_bytes = _resident_bytes() - before
    return _table_bytes


def _resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class _Event:
    __slots__ = ("time", "seq", "callback", "arg")

    def __init__(self, time: float, seq: int, callback, arg: int) -> None:
        self.time, self.seq, self.callback, self.arg = time, seq, callback, arg

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class _Sim:
    """A camera at 30 fps whose frames each finish after a random delay."""

    def __init__(self) -> None:
        self.rng = random.Random(1)
        self.heap: list = []
        self.seq = 0
        self.now = 0.0
        self.found = 0

    def schedule(self, delay: float, callback, arg: int) -> None:
        self.seq += 1
        heapq.heappush(self.heap, _Event(self.now + delay, self.seq, callback, arg))

    def frame(self, k: int) -> None:
        _table[self.rng.randrange(TABLE_SIZE)].total += 1.0
        self.found += _keys.get(self.rng.randrange(KEY_SPACE), 0)
        self.schedule(self.rng.expovariate(40.0), self.done, k)
        if k < FRAMES:
            self.schedule(1 / 30, self.frame, k + 1)

    def done(self, k: int) -> None:
        _table[self.rng.randrange(TABLE_SIZE)].count += 1

    def run(self) -> int:
        self.schedule(0.0, self.frame, 0)
        events = 0
        while self.heap:
            event = heapq.heappop(self.heap)
            self.now = event.time
            event.callback(event.arg)
            events += 1
        return events


class HostSpeed:
    """Reference events and seconds, summed over the samples of one phase."""

    def __init__(self) -> None:
        if not _table:
            raise RuntimeError("reference.prepare() must run before the first sample")
        self.events = 0
        self.seconds = 0.0

    def sample(self) -> None:
        # with the collector off, the sample's speed does not depend on
        # how many objects the program keeps alive; the reference makes
        # no reference cycles, so nothing it allocates waits for it
        gc.disable()
        try:
            t0 = perf_counter()
            events = _Sim().run()
            self.seconds += perf_counter() - t0
        finally:
            gc.enable()
        self.events += events

    @property
    def rate(self) -> float:
        """Reference events per second over every sample so far."""
        return self.events / self.seconds

    @property
    def slowdown(self) -> float:
        """Host seconds per reference second: > 1 on a slower host."""
        return REFERENCE_RATE / self.rate


def interpreter_start() -> float:
    """Seconds to start and stop a bare interpreter (``python3 -c pass``)."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - t0
