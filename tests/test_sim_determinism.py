"""Same-seed runs are byte-identical, instrumented or not.

A same-seed run must produce *byte-identical* control transcripts and
QoS dicts run after run, and on both of the kernel's timer paths: the
inline fast path and the slow, accounted one that every timer takes
while EnvStats is on.  Pinned for the Fig. 3 scenario and a chaos
scenario.
"""

import dataclasses
import json

import pytest

from repro.control.framefeedback import FrameFeedbackController
from repro.device.config import DeviceConfig
from repro.experiments.chaos import ChaosScenario, RecordingController, run_chaos
from repro.experiments.scenario import Scenario, run_scenario
from repro.faults import BandwidthCollapse, FaultTimeline, GpuContention, ServerCrash
from repro.sim import Environment
from repro.sim import core as sim_core
from repro.workloads.schedules import table_v_schedule


def _fig3_snapshot(seed: int = 0, total_frames: int = 600) -> bytes:
    """Control transcript + QoS of the Fig. 3 scenario, as bytes."""
    device = DeviceConfig(total_frames=total_frames)
    rec = {}

    def factory(cfg):
        rec["c"] = RecordingController(FrameFeedbackController(cfg.frame_rate))
        return rec["c"]

    result = run_scenario(
        Scenario(
            controller_factory=factory,
            device=device,
            network=table_v_schedule(),
            duration=device.stream_duration + 1.0,
            seed=seed,
        )
    )
    return json.dumps(
        {
            "transcript": rec["c"].transcript(device.frame_rate),
            "qos": dataclasses.asdict(result.qos),
        },
        sort_keys=True,
    ).encode()


def _chaos_snapshot(seed: int = 3, total_frames: int = 600) -> bytes:
    """A PR-1 chaos scenario: crash + contention + bandwidth collapse."""
    result = run_chaos(
        ChaosScenario(
            base=Scenario(
                controller_factory=lambda cfg: FrameFeedbackController(
                    cfg.frame_rate
                ),
                device=DeviceConfig(total_frames=total_frames),
                seed=seed,
            ),
            injectors=[
                ServerCrash(FaultTimeline.from_rows([(8.0, 6.0)])),
                GpuContention(
                    FaultTimeline.from_rows([(18.0, 4.0)]), mean_factor=3.0
                ),
                BandwidthCollapse(
                    FaultTimeline.from_rows([(26.0, 5.0)]), factor=0.05
                ),
            ],
        )
    )
    return json.dumps(
        {
            "transcript": result.transcript,
            "qos": dataclasses.asdict(result.run.qos),
        },
        sort_keys=True,
    ).encode()


def test_slowpath_flag_reaches_new_environments():
    """``capture_env_stats`` switches every new Environment to the slow,
    accounted timer path (stats on), and clearing it switches them back."""
    assert Environment().stats is None
    sim_core.capture_env_stats([])
    try:
        assert Environment().stats is not None
    finally:
        sim_core.capture_env_stats(None)
    assert Environment().stats is None


def _on_the_slow_path(snapshot):
    """``snapshot()`` with every timer on the accounted path."""
    sim_core.capture_env_stats([])
    try:
        return snapshot()
    finally:
        sim_core.capture_env_stats(None)


def test_fig3_fast_vs_slowpath_bit_identical():
    assert _fig3_snapshot() == _on_the_slow_path(_fig3_snapshot)


def test_chaos_fast_vs_slowpath_bit_identical():
    assert _chaos_snapshot() == _on_the_slow_path(_chaos_snapshot)


def test_fig3_same_seed_repeatable():
    assert _fig3_snapshot() == _fig3_snapshot()


@pytest.mark.parametrize("seed", [0, 7])
def test_fig3_qos_insensitive_to_stats_instrumentation(seed, monkeypatch):
    """EnvStats must observe, never perturb."""
    plain = _fig3_snapshot(seed=seed, total_frames=300)
    sink: list = []
    sim_core.capture_env_stats(sink)
    try:
        instrumented = _fig3_snapshot(seed=seed, total_frames=300)
    finally:
        sim_core.capture_env_stats(None)
    assert plain == instrumented
    assert sink and any(s.events_processed for s in sink)
