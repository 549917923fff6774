"""Piecewise-constant network condition schedules (paper Table V)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.netem.link import ConditionBox, LinkConditions
from repro.sim.core import Environment
from repro.sim.events import Event, EventPriority


@dataclass(frozen=True)
class SchedulePhase:
    """One row of a schedule: conditions from ``start`` onward."""

    start: float
    conditions: LinkConditions

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"phase start must be >= 0, got {self.start}")


class NetworkSchedule:
    """An ordered timeline of link conditions.

    Construct from ``(start_time, conditions)`` pairs; apply to a
    :class:`ConditionBox` inside a simulation with :meth:`install`,
    or query statically with :meth:`at`.
    """

    def __init__(self, phases: Sequence[SchedulePhase]) -> None:
        if not phases:
            raise ValueError("schedule needs at least one phase")
        ordered = sorted(phases, key=lambda p: p.start)
        if ordered[0].start != 0.0:
            raise ValueError("first phase must start at t=0")
        starts = [p.start for p in ordered]
        if len(set(starts)) != len(starts):
            raise ValueError("duplicate phase start times")
        self.phases: List[SchedulePhase] = list(ordered)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "NetworkSchedule":
        """Build from ``(start, bandwidth, loss_percent)`` tuples."""
        return cls(
            [
                SchedulePhase(
                    start=float(start),
                    conditions=LinkConditions(bandwidth=bw, loss=loss_pct / 100.0),
                )
                for start, bw, loss_pct in rows
            ]
        )

    def at(self, t: float) -> LinkConditions:
        """Conditions in effect at time ``t``."""
        current = self.phases[0].conditions
        for phase in self.phases:
            if phase.start <= t:
                current = phase.conditions
            else:
                break
        return current

    @property
    def change_times(self) -> List[float]:
        return [p.start for p in self.phases]

    def install(
        self,
        env: Environment,
        box: ConditionBox,
        on_change: Optional[Callable[[float, LinkConditions], None]] = None,
    ) -> None:
        """Drive ``box`` through the schedule inside ``env``."""
        _PhaseDriver(env, self.phases, box, on_change)


class _PhaseDriver:
    """Applies a schedule's phases to one box on kernel timers."""

    #: kernel-stats owner of the phase timers
    event_owner = "netem-schedule"

    def __init__(
        self,
        env: Environment,
        phases: Sequence[SchedulePhase],
        box: ConditionBox,
        on_change: Optional[Callable[[float, LinkConditions], None]],
    ) -> None:
        self.env = env
        self.phases = iter(phases)
        self.phase: Optional[SchedulePhase] = None
        self.box = box
        self.on_change = on_change
        env.call_at(env.now, self._next, priority=EventPriority.URGENT)

    def _next(self, _event: Optional[Event] = None) -> None:
        """Apply every phase already due, then wait for the next one."""
        env = self.env
        for phase in self.phases:
            if phase.start > env.now:
                self.phase = phase
                env.call_later(phase.start - env.now, self._due)
                return
            self._apply(phase)

    def _due(self, _event: Event) -> None:
        self._apply(self.phase)
        self._next()

    def _apply(self, phase: SchedulePhase) -> None:
        self.box.set(phase.conditions)
        if self.on_change is not None:
            self.on_change(self.env.now, phase.conditions)
