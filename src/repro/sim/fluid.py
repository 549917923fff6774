"""The hybrid-kernel regime manager: steady windows vs exact DES.

The exact kernel simulates every frame as a handful of heap events
(camera tick, link serialization, delivery, server batch,
response, watchdog).  At 30 fps that cost is the wall the PR-3 fast
path cannot move.  The fluid regime removes it for the *boring* parts
of a run: when arrival and service rates are stable and nothing is
scheduled to change, per-frame outcomes are predicted analytically
through :mod:`repro.analysis.queueing` instead of being event-stepped
(the rate-based abstraction of Chakrabarti et al., arXiv:2010.13737,
and Qiu et al., arXiv:2208.00485).

The :class:`FluidRegime` decides *when* that is sound.  It knows every
upcoming structural edge — controller measure ticks, network/load
schedule changes, pinned fault-timeline boundaries, the run horizon —
and a set of steadiness predicates contributed by the components
(breaker state, fleet health, active fault windows).  A window is
opened only when every predicate holds and no edge falls inside it;
otherwise the run stays on exact per-frame DES and the refusal reason
is counted.  The fluid *model* itself (what happens to frames inside a
window) lives with the device in :mod:`repro.device.fluid`; this
module is pure regime control, so the kernel layer never imports the
testbed.

Determinism contract: a hybrid run is deterministic (same seed, same
windows, same draws from the dedicated ``"fluid"`` rng stream), traced
runs pin to exact DES (byte-identical to exact-kernel goldens), and
fluid regions are validated *statistically* against exact runs — see
docs/performance.md, "Hybrid kernel".
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from typing import Callable, List, Optional

from repro.sim.core import Environment

#: steadiness predicate: ``fn(now)`` returns None when fluid advance is
#: sound, or a short reason string to force exact DES
SteadyCheck = Callable[[float], Optional[str]]

#: edge provider: ``fn(now)`` returns the next structural edge strictly
#: after ``now`` (``inf`` when none)
EdgeProvider = Callable[[float], float]

_INF = float("inf")


class FluidRegime:
    """Decides, instant by instant, whether analytic advance is sound.

    Attaching the regime to an environment (``env.regime = self``,
    done by ``__init__``) is the whole opt-in: components that know how
    to fluid-advance query it, everything else keeps stepping exactly.
    """

    def __init__(
        self,
        env: Environment,
        min_window: float = 0.25,
        max_window: float = 10.0,
    ) -> None:
        if min_window <= 0 or max_window < min_window:
            raise ValueError(
                f"need 0 < min_window <= max_window, got "
                f"{min_window!r}/{max_window!r}"
            )
        self.env = env
        #: windows shorter than this are not worth leaving exact DES for
        #: (set it above the run length to force pure exact DES — the
        #: degenerate hybrid the boundary tests diff byte-for-byte)
        self.min_window = float(min_window)
        #: cap on one analytic leap, so rate summaries cannot go stale
        self.max_window = float(max_window)
        self._steady_checks: List[SteadyCheck] = []
        self._edge_providers: List[EdgeProvider] = []
        #: sorted absolute times of known transients (schedule changes,
        #: fault-timeline boundaries) a window must never straddle
        self._pinned: List[float] = []
        # regime counters (mirrored into EnvStats when enabled)
        self.windows_entered = 0
        self.frames_fluid = 0
        self.fluid_seconds = 0.0
        self.forced_exact = Counter()
        env.regime = self

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add_steady_check(self, fn: SteadyCheck) -> None:
        """Register a predicate that can veto fluid advance."""
        self._steady_checks.append(fn)

    def add_edge_provider(self, fn: EdgeProvider) -> None:
        """Register a source of upcoming structural edges."""
        self._edge_providers.append(fn)

    def pin_edges(self, times) -> None:
        """Pin absolute transient times no window may straddle.

        Injector installs and schedule wiring call this with every
        known boundary; duplicates are harmless.
        """
        for t in times:
            insort(self._pinned, float(t))

    def next_pinned(self, now: float) -> float:
        """First pinned edge strictly after ``now`` (inf if none)."""
        for t in self._pinned:
            if t > now + 1e-12:
                return t
        return _INF

    # ------------------------------------------------------------------
    # the regime decision
    # ------------------------------------------------------------------
    def note_forced(self, reason: str) -> None:
        """Count one refusal to go fluid (for EnvStats / reports)."""
        self.forced_exact[reason] += 1
        stats = self.env.stats
        if stats is not None:
            stats.fluid_forced_exact += 1

    def open_window(self, now: float, hard_edge: float = _INF) -> Optional[float]:
        """Try to open a fluid window starting at ``now``.

        Returns the exclusive end time ``t1`` (the first instant that
        must be simulated exactly), or None when any steadiness
        predicate vetoes or the window would be shorter than
        ``min_window``.  ``hard_edge`` lets the caller contribute its
        own bound (the device passes its next measure tick).

        The returned ``t1`` is exactly the earliest transient time:
        the fluid→exact handoff lands *on* the transient event, which
        is what the boundary property tests assert.
        """
        env = self.env
        if env.tracer is not None:
            # Tracing needs per-frame causality, which only exact DES
            # produces — traced hybrid runs are byte-identical to
            # traced exact runs by construction.
            self.note_forced("tracer")
            return None
        for check in self._steady_checks:
            reason = check(now)
            if reason is not None:
                self.note_forced(reason)
                return None
        t1 = min(hard_edge, now + self.max_window, env.event_horizon())
        pinned = self.next_pinned(now)
        if pinned < t1:
            t1 = pinned
        for provider in self._edge_providers:
            edge = provider(now)
            if edge < t1:
                t1 = edge
        if t1 - now < self.min_window:
            self.note_forced("short-window")
            return None
        self.windows_entered += 1
        stats = env.stats
        if stats is not None:
            stats.fluid_windows += 1
        return t1

    def account(self, frames: int, seconds: float) -> None:
        """Credit one completed analytic window's work."""
        self.frames_fluid += frames
        self.fluid_seconds += seconds
        stats = self.env.stats
        if stats is not None:
            stats.fluid_frames += frames

    # ------------------------------------------------------------------
    def summary(self) -> str:
        reasons = ", ".join(
            f"{name}:{n}" for name, n in self.forced_exact.most_common(4)
        )
        return (
            f"{self.windows_entered} fluid windows / "
            f"{self.frames_fluid} frames analytic / "
            f"{self.fluid_seconds:.1f}s fluid time; forced exact: "
            f"{reasons or '-'}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FluidRegime {self.summary()}>"
