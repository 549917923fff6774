"""Unit + property tests for device components: splitter, camera,
local pipeline, energy model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import CpuUtilizationModel, FrameSource, LocalPipeline, TokenBucketSplitter
from repro.device.camera import Frame
from repro.models.device_profiles import PI_4B_1_2
from repro.models.latency import LocalLatencyModel
from repro.models.zoo import MOBILENET_V3_SMALL
from repro.sim import Environment


# ----------------------------------------------------------------------
# splitter
# ----------------------------------------------------------------------
def test_splitter_zero_target_never_offloads():
    s = TokenBucketSplitter(30.0)
    s.set_target(0.0)
    assert not any(s.route() for _ in range(100))


def test_splitter_full_target_always_offloads():
    s = TokenBucketSplitter(30.0)
    s.set_target(30.0)
    assert all(s.route() for _ in range(100))


def test_splitter_half_target_alternates():
    s = TokenBucketSplitter(30.0)
    s.set_target(15.0)
    decisions = [s.route() for _ in range(10)]
    assert decisions == [False, True] * 5


def test_splitter_clamps_target():
    s = TokenBucketSplitter(30.0)
    s.set_target(100.0)
    assert s.target == 30.0
    s.set_target(-5.0)
    assert s.target == 0.0


def test_splitter_spacing_is_even():
    """A 10/30 target offloads exactly every 3rd frame."""
    s = TokenBucketSplitter(30.0)
    s.set_target(10.0)
    decisions = [s.route() for _ in range(30)]
    gaps = np.diff([i for i, d in enumerate(decisions) if d])
    assert set(gaps) == {3}


@given(
    target=st.floats(min_value=0.0, max_value=30.0),
    n=st.integers(min_value=100, max_value=3000),
)
@settings(max_examples=100, deadline=None)
def test_splitter_long_run_rate_exact(target, n):
    """Long-run offload fraction equals target / F_s to within 1 frame."""
    s = TokenBucketSplitter(30.0)
    s.set_target(target)
    offloaded = sum(s.route() for _ in range(n))
    expected = n * target / 30.0
    assert abs(offloaded - expected) <= 1.0


def test_splitter_invalid_frame_rate():
    with pytest.raises(ValueError):
        TokenBucketSplitter(0.0)


# ----------------------------------------------------------------------
# camera
# ----------------------------------------------------------------------
def test_camera_emits_exact_count_and_spacing():
    env = Environment()
    stamps = []
    src = FrameSource(env, 30.0, nbytes=100, sink=lambda f: stamps.append(f), total_frames=90)
    env.run()
    assert src.frames_emitted == 90
    assert [f.frame_id for f in stamps] == list(range(90))
    gaps = np.diff([f.captured_at for f in stamps])
    assert np.allclose(gaps, 1 / 30)


def test_camera_done_event_fires_with_count():
    env = Environment()
    src = FrameSource(env, 30.0, nbytes=1, sink=lambda f: None, total_frames=10)
    assert env.run(until=src.done) == 10


def test_camera_rejects_bad_rate():
    env = Environment()
    with pytest.raises(ValueError):
        FrameSource(env, 0.0, nbytes=1, sink=lambda f: None)


def test_camera_runs_on_timers_one_event_per_frame():
    """One start timer, then one timer per frame, all counted under the
    source's name; ``done`` is the one other event."""
    env = Environment(stats=True)
    src = FrameSource(env, 30.0, nbytes=1, sink=lambda f: None, total_frames=50, name="cam")
    assert env.run(until=src.done) == 50
    assert env.stats.events_by_process == {"cam": 50 + 1}
    assert env.stats.events_scheduled == 50 + 2
    assert not src.alive


def test_camera_crash_restart_and_pause_keep_the_stream_whole():
    env = Environment()
    frames = []
    src = FrameSource(env, 10.0, nbytes=1, sink=frames.append, total_frames=40)
    env.run(until=1.05)
    assert src.alive and len(frames) == 10
    src.crash()
    src.crash()  # idempotent
    assert not src.alive
    env.run(until=2.0)
    assert len(frames) == 10  # nothing while dead
    src.restart()
    src.restart()  # a running sensor ignores it
    env.run(until=2.55)
    src.pause(1.0)
    done = env.run(until=src.done)
    assert done == src.frames_emitted == 40
    assert [f.frame_id for f in frames] == list(range(40))
    # restarted at 2.0 (first frame a period later), paused 2.55-3.55
    # (the tick due at 2.6 waits for 3.55); the tail is delayed past
    # both outages
    restart_frames = [f.captured_at for f in frames[10:]]
    assert restart_frames[:6] == pytest.approx([2.1, 2.2, 2.3, 2.4, 2.5, 3.55])
    assert frames[-1].captured_at == pytest.approx(3.55 + 24 * 0.1)
    assert env.now == frames[-1].captured_at
    assert not src.alive
    src.restart()  # a finished stream stays finished
    assert not src.alive


def test_camera_crash_from_inside_the_sink_stops_the_stream():
    env = Environment()
    frames = []

    def sink(frame):
        frames.append(frame)
        if frame.frame_id == 2:
            src.crash()

    src = FrameSource(env, 10.0, nbytes=1, sink=sink, total_frames=10)
    env.run(until=5.0)
    assert [f.frame_id for f in frames] == [0, 1, 2]
    assert not src.alive and not src.done.triggered


def test_frames_are_immutable():
    frame = Frame(1, 0.5, 100)
    assert frame == Frame(frame_id=1, captured_at=0.5, nbytes=100)
    with pytest.raises(AttributeError):
        frame.frame_id = 2


# ----------------------------------------------------------------------
# local pipeline
# ----------------------------------------------------------------------
def _local(env, seed=0, jitter=0.0):
    model = LocalLatencyModel(PI_4B_1_2, MOBILENET_V3_SMALL, jitter_sigma=jitter)
    return LocalPipeline(env, model, np.random.default_rng(seed))


def test_local_reaches_table2_rate_under_saturation():
    env = Environment()
    lp = _local(env)
    FrameSource(env, 30.0, nbytes=1, sink=lambda f: lp.offer(f), total_frames=None)
    env.run(until=60.0)
    assert lp.completed / 60.0 == pytest.approx(13.0, rel=0.03)


def test_local_skips_when_engine_and_slot_full():
    env = Environment()
    lp = _local(env)
    FrameSource(env, 30.0, nbytes=1, sink=lambda f: lp.offer(f), total_frames=None)
    env.run(until=10.0)
    assert lp.skipped > 0
    # conservation: every offered frame completed, pending, or skipped
    offered = 300  # 10 s at 30 fps
    assert lp.completed + lp.skipped + (1 if lp.busy else 0) + (
        1 if lp._pending is not None else 0
    ) == pytest.approx(offered, abs=1)


def test_local_idle_engine_accepts_immediately():
    env = Environment()
    lp = _local(env)
    from repro.device.camera import Frame

    assert lp.offer(Frame(0, 0.0, 1))
    assert lp.busy


def test_local_utilization_full_under_saturation():
    env = Environment()
    lp = _local(env)
    FrameSource(env, 30.0, nbytes=1, sink=lambda f: lp.offer(f), total_frames=None)
    env.run(until=30.0)
    assert lp.utilization(30.0) == pytest.approx(1.0, abs=0.05)


def test_local_low_demand_processes_everything():
    env = Environment()
    lp = _local(env)
    FrameSource(env, 5.0, nbytes=1, sink=lambda f: lp.offer(f), total_frames=50)
    env.run()
    assert lp.completed == 50
    assert lp.skipped == 0


# ----------------------------------------------------------------------
# energy model
# ----------------------------------------------------------------------
def test_energy_model_matches_paper_endpoints():
    m = CpuUtilizationModel(PI_4B_1_2)
    assert m.local_only_utilization() == pytest.approx(0.502, abs=0.02)
    assert m.full_offload_utilization(30.0) == pytest.approx(0.223, abs=0.02)


def test_energy_model_monotone_in_both_inputs():
    m = CpuUtilizationModel(PI_4B_1_2)
    assert m.utilization(0.5, 10) > m.utilization(0.2, 10)
    assert m.utilization(0.5, 20) > m.utilization(0.5, 10)


def test_energy_model_clamps_at_one():
    m = CpuUtilizationModel(PI_4B_1_2, inference_weight=2.0)
    assert m.utilization(1.0, 30.0) == 1.0


def test_energy_model_validates_inputs():
    m = CpuUtilizationModel(PI_4B_1_2)
    with pytest.raises(ValueError):
        m.utilization(-0.1, 0)
    with pytest.raises(ValueError):
        m.utilization(0.5, -1)
