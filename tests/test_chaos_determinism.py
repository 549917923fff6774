"""Chaos runs are bit-reproducible: same seed, same transcript."""

import dataclasses
import json

from repro.control import transcript as transcript_mod
from repro.control.base import Measurement
from repro.control.framefeedback import FrameFeedbackController
from repro.device.config import DeviceConfig
from repro.experiments.chaos import ChaosScenario, RecordingController, run_chaos
from repro.experiments.scenario import Scenario
from repro.faults import (
    BandwidthCollapse,
    FaultTimeline,
    GpuContention,
    ServerCrash,
)


def _chaos(seed: int) -> ChaosScenario:
    """A small cross-layer scenario: crash + collapse + seeded contention."""
    return ChaosScenario(
        base=Scenario(
            controller_factory=lambda cfg: FrameFeedbackController(cfg.frame_rate),
            device=DeviceConfig(total_frames=1200),  # 40 s stream
            seed=seed,
        ),
        injectors=[
            ServerCrash(FaultTimeline.from_rows([(8.0, 6.0)])),
            GpuContention(FaultTimeline.from_rows([(18.0, 4.0)]), mean_factor=3.0),
            BandwidthCollapse(FaultTimeline.from_rows([(26.0, 5.0)]), factor=0.05),
        ],
    )


def test_same_seed_byte_identical_transcripts():
    a = run_chaos(_chaos(seed=3))
    b = run_chaos(_chaos(seed=3))
    assert transcript_mod.dumps(a.transcript) == transcript_mod.dumps(b.transcript)
    # and not merely the serialization: the full structures agree
    assert a.transcript == b.transcript
    assert len(a.transcript["steps"]) > 30


def test_different_seed_different_transcript():
    a = run_chaos(_chaos(seed=3))
    b = run_chaos(_chaos(seed=4))
    assert transcript_mod.dumps(a.transcript) != transcript_mod.dumps(b.transcript)


def test_transcript_replays_through_fresh_controller():
    """The captured transcript satisfies the control-layer purity
    contract: a fresh controller re-driven through the recorded
    measurements reproduces every target."""
    result = run_chaos(_chaos(seed=3))
    transcript_mod.replay(
        lambda: FrameFeedbackController(30.0), result.transcript
    )


def test_transcript_round_trips_through_json():
    result = run_chaos(_chaos(seed=5))
    text = transcript_mod.dumps(result.transcript)
    assert transcript_mod.loads(text) == json.loads(text) == result.transcript


def test_recorded_measurement_is_the_dataclass_as_a_dict():
    """Each step's measurement equals ``dataclasses.asdict``, in order."""
    measurement = Measurement(
        time=4.0, frame_rate=30.0, offload_target=12.0, offload_rate=11.0,
        offload_success_rate=9.5, timeout_rate=1.5, timeout_rate_last=2.0,
        local_rate=13.0, throughput=22.5, probe_ok=True, rtt_mean=0.11,
        rtt_p95=None, overload_rate=0.5, retry_rate=0.25, breaker_open=0.5,
    )
    recorder = RecordingController(FrameFeedbackController(30.0))
    recorder.update(measurement)
    recorded = recorder.steps[0]["measurement"]
    assert list(recorded.items()) == list(dataclasses.asdict(measurement).items())
