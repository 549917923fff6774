"""Property-based tests (hypothesis) for the fault-schedule algebra."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.framefeedback import FrameFeedbackController
from repro.device.config import DeviceConfig
from repro.experiments.scenario import Scenario, build_runtime
from repro.faults import (
    BandwidthCollapse,
    BurstLoss,
    CameraStall,
    CpuThrottle,
    FaultOverlapError,
    FaultTimeline,
    FaultWindow,
    LatencySpike,
    ServerCrash,
    ServerSlowdown,
    validate_plan,
)

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_starts = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
_durations = st.floats(min_value=0.01, max_value=50.0, allow_nan=False)

window_st = st.builds(FaultWindow, start=_starts, duration=_durations)


@st.composite
def disjoint_windows(draw, max_windows=6):
    """A valid (non-overlapping) window list, built left to right."""
    n = draw(st.integers(min_value=0, max_value=max_windows))
    windows, cursor = [], 0.0
    for _ in range(n):
        gap = draw(st.floats(min_value=0.0, max_value=10.0))
        duration = draw(st.floats(min_value=0.01, max_value=10.0))
        start = cursor + gap
        windows.append(FaultWindow(start, duration))
        cursor = start + duration  # exactly the window's end, bit-for-bit
    return windows


# ----------------------------------------------------------------------
# timeline algebra
# ----------------------------------------------------------------------
@given(windows=disjoint_windows())
@settings(max_examples=100, deadline=None)
def test_active_at_consistent_with_installed_windows(windows):
    tl = FaultTimeline(windows)
    assert tl.total_active == sum(w.duration for w in windows)
    for w in windows:
        mid = w.start + w.duration / 2
        assert tl.active_at(w.start)
        assert tl.active_at(mid)
        # half-open: w itself never covers its own end (though a
        # back-to-back successor starting exactly there may)
        assert tl.window_at(w.end) is not w
        assert tl.window_at(mid) == w


@given(windows=st.lists(window_st, min_size=2, max_size=8))
@settings(max_examples=100, deadline=None)
def test_timeline_accepts_iff_no_overlap(windows):
    ordered = sorted(windows, key=lambda w: w.start)
    has_overlap = any(
        b.start < a.end for a, b in zip(ordered, ordered[1:])
    )
    try:
        FaultTimeline(windows)
        built = True
    except FaultOverlapError:
        built = False
    assert built == (not has_overlap)


@given(a=disjoint_windows(), b=disjoint_windows())
@settings(max_examples=100, deadline=None)
def test_union_activity_is_pointwise_or(a, b):
    ta, tb = FaultTimeline(a), FaultTimeline(b)
    merged = ta.union(tb)
    probes = [w.start for w in [*a, *b]] + [
        w.start + w.duration / 2 for w in [*a, *b]
    ] + [w.end + 1e-6 for w in [*a, *b]]
    for t in probes:
        assert merged.active_at(t) == (ta.active_at(t) or tb.active_at(t))
    # coalesced: strictly non-overlapping and non-touching windows
    for u, v in zip(merged.windows, merged.windows[1:]):
        assert v.start > u.end


@given(windows=disjoint_windows(), now=st.floats(min_value=0.0, max_value=150.0))
@settings(max_examples=100, deadline=None)
def test_clipped_from_preserves_future_activity(windows, now):
    tl = FaultTimeline(windows)
    clipped = tl.clipped_from(now)
    # nothing active before `now` survives
    assert all(w.start >= now for w in clipped)
    # activity strictly after `now` is preserved pointwise
    for w in windows:
        mid = max(w.start + w.duration / 2, now + 1e-9)
        if w.end > mid:
            assert clipped.active_at(mid) == tl.active_at(mid)
    # remaining downtime never exceeds the original
    assert clipped.total_active <= tl.total_active + 1e-9


def test_clipped_from_never_rounds_into_the_next_window():
    # 2.605 + (6.63 - 2.605) == 6.630000000000001: a naively clipped
    # window would end one ulp past the start of the next one
    tl = FaultTimeline.from_rows([(1.0, 5.63), (6.63, 1.0)])
    clipped = tl.clipped_from(2.605)
    first, second = clipped.windows
    assert first.start == 2.605 and first.end <= second.start == 6.63
    assert second.duration == 1.0


@given(windows=disjoint_windows())
@settings(max_examples=50, deadline=None)
def test_next_transition_walks_every_boundary(windows):
    tl = FaultTimeline(windows)
    t, seen, bound = -1.0, [], 2 * len(windows) + 1
    for _ in range(bound):
        nxt = tl.next_transition(t)
        if math.isinf(nxt):
            break
        seen.append(nxt)
        t = nxt
    expected = sorted({w.start for w in windows} | {w.end for w in windows})
    assert seen == expected


# ----------------------------------------------------------------------
# plan composition
# ----------------------------------------------------------------------
@given(a=disjoint_windows(max_windows=3), b=disjoint_windows(max_windows=3))
@settings(max_examples=60, deadline=None)
def test_plan_validation_matches_timeline_overlap(a, b):
    """Same-resource injectors compose iff their timelines are disjoint;
    different-resource injectors always compose."""
    ta, tb = FaultTimeline(a), FaultTimeline(b)
    crash_a = ServerCrash(ta)
    crash_b = ServerCrash(tb)
    throttle_b = CpuThrottle(tb, factor=2.0)

    validate_plan([crash_a, throttle_b])  # distinct resources: always fine

    try:
        validate_plan([crash_a, crash_b])
        accepted = True
    except FaultOverlapError:
        accepted = False
    assert accepted == (not ta.overlaps_timeline(tb))


# ----------------------------------------------------------------------
# the kernel survives arbitrary fault timelines
# ----------------------------------------------------------------------
_INJECTOR_BUILDERS = [
    lambda tl: ServerCrash(tl),
    lambda tl: ServerSlowdown(tl, factor=3.0),
    lambda tl: CpuThrottle(tl, factor=2.0),
    lambda tl: CameraStall(tl),
    lambda tl: BandwidthCollapse(tl, factor=0.05),
    lambda tl: LatencySpike(tl, extra_delay=0.2),
    lambda tl: BurstLoss(tl, loss=0.3, burst=4.0),
]


@st.composite
def short_timelines(draw, horizon=8.0, max_windows=3):
    n = draw(st.integers(min_value=1, max_value=max_windows))
    windows, cursor = [], 0.0
    for _ in range(n):
        gap = draw(st.floats(min_value=0.0, max_value=horizon / 2))
        duration = draw(st.floats(min_value=0.05, max_value=horizon / 2))
        start = cursor + gap
        windows.append(FaultWindow(start, duration))
        cursor = start + duration
    return FaultTimeline(windows)


@given(
    picks=st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(_INJECTOR_BUILDERS) - 1),
                  short_timelines()),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=20, deadline=None)
def test_arbitrary_fault_plans_never_crash_the_kernel(picks, seed):
    """Any composable plan runs to completion: no kernel exception, the
    clock reaches the horizon, and every override heals at the end of
    its windows (timelines here all end before the run does)."""
    injectors = [_INJECTOR_BUILDERS[i](tl) for i, tl in picks]
    # keep only a composable subset (drop same-resource overlaps)
    plan = []
    for inj in injectors:
        try:
            validate_plan(plan + [inj])
        except FaultOverlapError:
            continue
        plan.append(inj)

    horizon = max(inj.timeline.last_end for inj in plan) + 2.0
    rt = build_runtime(
        Scenario(
            controller_factory=lambda cfg: FrameFeedbackController(cfg.frame_rate),
            device=DeviceConfig(total_frames=int(horizon * 30) + 30),
            seed=seed,
        )
    )
    targets = rt.fault_targets()
    for inj in plan:
        inj.install(rt.env, targets)
    result = rt.run(until=horizon)

    assert rt.env.now == horizon
    assert result.qos.total_frames > 0
    # all overrides healed
    assert rt.server.gpu.slowdown == 1.0
    assert rt.device.local.slowdown == 1.0
