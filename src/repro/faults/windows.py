"""Fault-window algebra shared by every injector.

A fault is *when* something is wrong (:class:`FaultWindow`) plus *what*
is wrong (the injector subclasses).  This module owns the "when":
validated half-open windows ``[start, start + duration)``, ordered
non-overlapping timelines, point queries, and the clipping rule that
makes installing a timeline mid-simulation well defined (windows whose
end is already in the past are skipped; a window straddling ``now`` is
clipped to its remaining duration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


class FaultOverlapError(ValueError):
    """Two windows (or injectors sharing a resource) overlap in time."""


@dataclass(frozen=True)
class FaultWindow:
    """One fault interval: ``[start, start + duration)``."""

    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"fault start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ValueError(f"fault duration must be positive, got {self.duration}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end

    def overlaps(self, other: "FaultWindow") -> bool:
        return self.start < other.end and other.start < self.end


class FaultTimeline:
    """An ordered set of non-overlapping :class:`FaultWindow` intervals."""

    def __init__(self, windows: Sequence[FaultWindow] = ()) -> None:
        ordered = sorted(windows, key=lambda w: w.start)
        for a, b in zip(ordered, ordered[1:]):
            if b.start < a.end:
                raise FaultOverlapError(f"overlapping fault windows: {a} and {b}")
        self.windows: List[FaultWindow] = list(ordered)

    @classmethod
    def from_rows(cls, rows: Iterable[Tuple[float, float]]) -> "FaultTimeline":
        """Build from ``(start, duration)`` pairs."""
        return cls([FaultWindow(float(s), float(d)) for s, d in rows])

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def active_at(self, t: float) -> bool:
        return any(w.contains(t) for w in self.windows)

    def window_at(self, t: float) -> "FaultWindow | None":
        for w in self.windows:
            if w.contains(t):
                return w
        return None

    def next_transition(self, t: float) -> float:
        """First window start/end strictly after ``t`` (inf if none)."""
        for w in self.windows:
            if w.start > t:
                return w.start
            if w.end > t:
                return w.end
        return float("inf")

    @property
    def total_active(self) -> float:
        return sum(w.duration for w in self.windows)

    @property
    def last_end(self) -> float:
        """End of the final window (0.0 for an empty timeline)."""
        return self.windows[-1].end if self.windows else 0.0

    def __len__(self) -> int:
        return len(self.windows)

    def __iter__(self):
        return iter(self.windows)

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def overlaps_timeline(self, other: "FaultTimeline") -> bool:
        """True when any window here intersects any window of ``other``."""
        return any(a.overlaps(b) for a in self.windows for b in other.windows)

    def union(self, other: "FaultTimeline") -> "FaultTimeline":
        """Merged timeline; touching/overlapping windows are coalesced."""
        merged: List[FaultWindow] = []
        for w in sorted(
            [*self.windows, *other.windows], key=lambda w: (w.start, w.end)
        ):
            if merged and w.start <= merged[-1].end:
                last = merged.pop()
                merged.append(
                    FaultWindow(last.start, max(last.end, w.end) - last.start)
                )
            else:
                merged.append(w)
        return FaultTimeline(merged)

    def edges(self) -> List[Tuple[float, bool]]:
        """Every transition as ``(time, active)``, in time order.

        Each window contributes ``(start, True)`` and ``(end, False)``;
        windows are already validated non-overlapping, so the flat list
        is the exact on/off schedule a wall-clock injector replays
        (:mod:`repro.realtime.chaos`) and a timeline-driven process can
        sleep against.
        """
        out: List[Tuple[float, bool]] = []
        for w in self.windows:
            out.append((w.start, True))
            out.append((w.end, False))
        return out

    def clipped_from(self, now: float) -> "FaultTimeline":
        """The timeline as seen from ``now``: past windows dropped,
        a straddling window clipped to its remaining duration."""
        remaining: List[FaultWindow] = []
        for w in self.windows:
            if w.end <= now:
                continue  # entirely in the past
            if w.start < now:
                # ``now + (end - now)`` can round one ulp past ``end`` and
                # overlap a window that starts exactly there
                duration = w.end - now
                while now + duration > w.end:
                    duration = math.nextafter(duration, 0.0)
                remaining.append(FaultWindow(now, duration))
            else:
                remaining.append(w)
        return FaultTimeline(remaining)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        spans = ", ".join(f"[{w.start:g},{w.end:g})" for w in self.windows)
        return f"FaultTimeline({spans})"
