"""A call budget for the simulator's per-frame path.

Wall time on a shared host drifts by tens of percent between runs, but
the number of function calls a seeded run makes repeats exactly.  So
this counts the calls (Python functions and builtins alike, as
``cProfile`` does) of a warm ``run_fig3(seed=1, total_frames=4000)``
and divides by the frames it captured.  A change that puts a new
per-frame call on the path (a property, a helper, a lambda) shows up
here whether or not a timing run notices it.  The paper's Fig. 3
experiment is the workload because it is the run people reproduce.
"""

import cProfile
import pstats

from repro.experiments.fig3 import run_fig3

#: Python-level calls allowed per captured frame of a warm fig3 run.
#: Measured 66.6 (84.5 before ``Environment.now`` and ``Event.value``
#: became attributes and the link's per-frame chain was inlined).
MAX_CALLS_PER_FRAME = 70.0


def test_fig3_stays_within_its_per_frame_call_budget():
    # warm-up: imports, memoized frame sizes and the MDP's policy cache
    # are paid once per process, not per frame
    run_fig3(seed=1, total_frames=400)
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = run_fig3(seed=1, total_frames=4000)
    finally:
        profile.disable()
    frames = sum(run.qos.total_frames for run in result.runs.values())
    calls = pstats.Stats(profile).total_calls
    assert frames == 4 * 4000
    assert calls / frames <= MAX_CALLS_PER_FRAME, (
        f"{calls} calls for {frames} frames = {calls / frames:.1f} per frame"
    )
