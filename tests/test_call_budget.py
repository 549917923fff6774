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
"""

import cProfile
import os
import pstats

import pytest

from repro.experiments.fig3 import run_fig3
from repro.sim.core import capture_env_stats

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

FRAMES = 4 * 4000


def _frames(result) -> int:
    return sum(run.qos.total_frames for run in result.runs.values())


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


def test_fig3_stays_within_its_per_frame_timer_budget(warm):
    sink = []
    capture_env_stats(sink)
    try:
        result = run_fig3(seed=1, total_frames=4000)
    finally:
        capture_env_stats(None)
    frames = _frames(result)
    timers = sum(stats.events_scheduled for stats in sink)
    assert frames == FRAMES
    assert timers / frames <= MAX_TIMERS_PER_FRAME, (
        f"{timers} timers for {frames} frames = {timers / frames:.2f} per frame"
    )


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
