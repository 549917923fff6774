"""Call and timer budgets for the simulator's per-frame path.

Wall time on a shared host drifts by tens of percent between runs, but
the number of function calls and kernel timers a seeded run makes
repeats exactly.  So these count them over a warm
``run_fig3(seed=1, total_frames=4000)`` and divide by the frames it
captured.  A change that puts a new per-frame call on the path (a
property, a helper, a lambda) or a new per-frame timer (a watchdog, a
second link hop) shows up here whether or not a timing run notices it.
The paper's Fig. 3 experiment is the workload because it is the run
people reproduce.

Random draws get a budget of their own, counted per captured frame over
the same fig3 run and over the seed-0 tournament (its background load
and lossy links draw most).  cProfile cannot see them: a
``numpy.random.Generator`` method is a Cython builtin, which the
profiler neither lists under its own name nor counts in
``total_calls``, yet each scalar draw costs 0.5-1.3 us, about as much
as a dozen Python calls.  So the test wraps ``RngRegistry.stream``:
every stream the simulator draws from is handed out wrapped in a
counter of its method calls, and a block draw (``rng.random(7)``)
counts once, like the one call it is.
"""

import cProfile
import os
import pstats

import pytest

from repro.experiments.fig3 import run_fig3
from repro.experiments.tournament import TournamentConfig, run_tournament
from repro.sim.core import Environment, capture_env_stats
from repro.sim.rng import RngRegistry

#: Python-level calls allowed per captured frame of a warm fig3 run.
#: Measured 57.7 (84.5 before ``Environment.now`` and ``Event.value``
#: became attributes and the link's per-frame chain was inlined, 64.1
#: before the link and the offload client armed one timer per queue).
MAX_CALLS_PER_FRAME = 60.0

#: kernel timers allowed per captured frame of the same run.  Measured
#: 3.51: the camera tick, the server's batches, one uplink and one
#: downlink delivery per frame, and the few that queues share (4.53
#: with an end-of-frame link timer and a deadline watchdog per frame).
MAX_TIMERS_PER_FRAME = 3.55

#: ``Generator`` method calls allowed per captured frame.  Measured
#: 1.32 for fig3 (2.31 with a scalar draw per packet attempt and per
#: GPU batch) and 2.10 for the seed-0 tournament (5.58 with scalar
#: packet fates, GPU jitter and background arrival gaps).
MAX_DRAWS_PER_FRAME = {"fig3": 1.4, "tournament": 2.2}

FRAMES = 4 * 4000


def _frames(result) -> int:
    return sum(run.qos.total_frames for run in result.runs.values())


class _CountingStream:
    """A ``Generator`` stand-in that counts the method calls made on it."""

    def __init__(self, gen, counts):
        self._gen = gen
        self._counts = counts

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr
        counts = self._counts

        def counted(*args, **kwargs):
            counts["draws"] += 1
            return attr(*args, **kwargs)

        return counted


def _accounted(run):
    """``(run(), draws, kernel stats, schedule() calls)`` of one run.

    The run sees every registry stream wrapped in a draw counter and
    every environment with ``EnvStats`` on; ``Environment.schedule`` is
    counted too, since the events it pushes (a succeeded event, the
    ``run(until=...)`` stop) have no timer callback to name an owner.
    """
    counts = {"draws": 0, "schedule": 0}
    stream = RngRegistry.stream
    schedule = Environment.schedule
    wrapped = {}

    def counting_stream(self, name):
        key = (id(self), name)
        if key not in wrapped:
            # the registry is kept alive, so its id is not reused
            wrapped[key] = (self, _CountingStream(stream(self, name), counts))
        return wrapped[key][1]

    def counting_schedule(self, *args, **kwargs):
        counts["schedule"] += 1
        return schedule(self, *args, **kwargs)

    sink = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RngRegistry, "stream", counting_stream)
        mp.setattr(Environment, "schedule", counting_schedule)
        capture_env_stats(sink)
        try:
            result = run()
        finally:
            capture_env_stats(None)
    return result, counts["draws"], sink, counts["schedule"]


@pytest.fixture(scope="module")
def warm():
    # imports, memoized frame sizes and the MDP's policy cache are paid
    # once per process, not per frame
    run_fig3(seed=1, total_frames=400)


@pytest.fixture(scope="module")
def profiled(warm):
    """``(pstats.Stats, frames)`` of one untraced, warm fig3 run."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = run_fig3(seed=1, total_frames=4000)
    finally:
        profile.disable()
    return pstats.Stats(profile), _frames(result)


def test_fig3_stays_within_its_per_frame_call_budget(profiled):
    stats, frames = profiled
    calls = stats.total_calls
    assert frames == FRAMES
    assert calls / frames <= MAX_CALLS_PER_FRAME, (
        f"{calls} calls for {frames} frames = {calls / frames:.1f} per frame"
    )


@pytest.fixture(scope="module")
def fig3_accounted(warm):
    """``(frames, draws, stats, schedule calls)`` of one warm fig3 run."""
    result, draws, sink, scheduled = _accounted(
        lambda: run_fig3(seed=1, total_frames=4000)
    )
    return _frames(result), draws, sink, scheduled


@pytest.fixture(scope="module")
def tournament_accounted():
    """The same for the full seed-0 tournament (66 cells and 6 oracles)."""
    result, draws, sink, scheduled = _accounted(
        lambda: run_tournament(TournamentConfig(seed=0, workers=1))
    )
    frames = sum(cell.qos["total_frames"] for cell in result.cells) + sum(
        qos["total_frames"] for qos in result.oracle_qos.values()
    )
    return frames, draws, sink, scheduled


def test_fig3_stays_within_its_per_frame_timer_budget(fig3_accounted):
    frames, _draws, sink, _scheduled = fig3_accounted
    timers = sum(stats.events_scheduled for stats in sink)
    assert frames == FRAMES
    assert timers / frames <= MAX_TIMERS_PER_FRAME, (
        f"{timers} timers for {frames} frames = {timers / frames:.2f} per frame"
    )


@pytest.mark.parametrize("workload", ["fig3", "tournament"])
def test_random_draws_stay_within_their_per_frame_budget(workload, request):
    frames, draws, _sink, _scheduled = request.getfixturevalue(f"{workload}_accounted")
    assert frames > 0
    assert draws / frames <= MAX_DRAWS_PER_FRAME[workload], (
        f"{draws} draws for {frames} frames = {draws / frames:.2f} per frame"
    )


@pytest.mark.parametrize("workload", ["fig3", "tournament"])
def test_every_timer_has_an_owner(workload, request):
    """``events_by_process`` adds up to ``events_scheduled``: every
    ``call_at`` / ``call_later`` timer is counted under its component,
    and the events ``schedule()`` pushes are the only ones without."""
    _frames_seen, _draws, sink, scheduled = request.getfixturevalue(
        f"{workload}_accounted"
    )
    total = sum(stats.events_scheduled for stats in sink)
    owned = sum(sum(stats.events_by_process.values()) for stats in sink)
    assert owned + scheduled == total, f"{total - owned - scheduled} timers have no owner"
    owners = set().union(*(stats.events_by_process for stats in sink))
    for part in (":offload", ":local"):
        assert any(owner.endswith(part) for owner in owners), sorted(owners)


def test_tracing_is_free_when_off(profiled):
    """An untraced run calls no function of the tracing package: every
    hook stops at its ``env.tracer is None`` check."""
    stats, _frames_seen = profiled
    package = os.path.join("repro", "trace", "")
    called = sorted(
        f"{os.path.basename(filename)}:{name}"
        for (filename, _line, name) in stats.stats
        if package in filename
    )
    assert called == []
