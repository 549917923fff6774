"""Acceptance tests for the supervision chaos runner.

The tentpole's headline claim, asserted end to end: killing the
controller at t=60 s, a warm (checkpointed) restart re-settles to the
pre-crash ``P_o`` within 3 measurement windows while a cold restart
takes strictly longer — both runs deterministic under a fixed seed,
with MTTR and missed-window counters exported in the QoS summary.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.chaos import (
    ChaosScenario,
    run_chaos,
    run_supervision_chaos,
    supervision_chaos_injectors,
)
from repro.faults import ControllerKill, FaultTimeline
from repro.supervision import SupervisionConfig


@pytest.fixture(scope="module")
def result():
    return run_supervision_chaos(seed=0, total_frames=4000)


def _checks(child, name):
    return [c for c in child.invariants if c.name == name]


# ----------------------------------------------------------------------
# the acceptance criteria
# ----------------------------------------------------------------------
def test_all_invariants_hold(result):
    failed = [
        c.name
        for child in (result.warm, result.cold)
        for c in child.invariants
        if not c.passed
    ] + [c.name for c in result.cross_invariants if not c.passed]
    assert not failed, failed


def test_warm_restart_settles_within_three_windows(result):
    settles = _checks(result.warm, "warm-restart-settle")
    assert settles  # both the t=60 kill and the reboot are judged
    for c in settles:
        assert c.passed
        assert c.observed <= 3.0


def test_cold_restart_is_strictly_slower_for_the_t60_kill(result):
    kill = next(c for c in result.cross_invariants if c.window.start == 60.0)
    assert kill.passed
    assert kill.observed < kill.expected  # warm periods < cold periods
    assert kill.expected > 3.0  # cold genuinely exceeds the warm bound


def test_mttr_and_missed_windows_exported_in_qos(result):
    for child in (result.warm, result.cold):
        extras = child.run.qos.extras
        assert extras["supervision.crashes"] >= 2.0
        assert extras["supervision.restarts"] >= 2.0
        assert extras["supervision.missed_windows"] >= 1.0
        assert extras["supervision.mttr_mean"] > 0.0
        assert "supervision.mttr.controller" in extras
    assert result.warm.run.qos.extras["supervision.warm_restarts"] >= 2.0
    assert result.cold.run.qos.extras["supervision.cold_restarts"] >= 2.0


def test_warm_run_checkpoints_every_tick(result):
    sup = result.warm.supervision
    assert sup["checkpoints_saved"] >= 100
    assert result.cold.supervision["checkpoints_saved"] == 0


def test_result_serializes_to_json_with_pass_verdict(result):
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["verdict"] == "PASS"
    assert payload["mode"] == "supervision"
    assert payload["warm"]["supervision"]["warm_restarts"] >= 2
    names = {c["name"] for c in payload["cross_invariants"]}
    assert names == {"warm-beats-cold"}


def test_deterministic_under_fixed_seed(result):
    again = run_supervision_chaos(seed=0, total_frames=4000)
    for a, b in ((result.warm, again.warm), (result.cold, again.cold)):
        assert json.dumps(a.transcript, sort_keys=True) == json.dumps(
            b.transcript, sort_keys=True
        )
    assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
        result.to_dict(), sort_keys=True
    )


# ----------------------------------------------------------------------
# runner plumbing
# ----------------------------------------------------------------------
def test_injector_factory_windows_are_omittable():
    only_kill = supervision_chaos_injectors(server_kill=None, reboot=None)
    assert [type(i).__name__ for i in only_kill] == ["ControllerKill"]


def test_unsupervised_warm_restart_request_is_rejected():
    from repro.device.config import DeviceConfig
    from repro.experiments.scenario import Scenario
    from repro.experiments.standard import framefeedback_factory

    chaos = ChaosScenario(
        base=Scenario(
            controller_factory=framefeedback_factory(),
            device=DeviceConfig(total_frames=900),
        ),
        injectors=[
            ControllerKill(FaultTimeline.from_rows([(10.0, 3.0)]), restart="warm")
        ],
        supervision=None,  # no supervisor: "warm" has nothing to restore from
    )
    with pytest.raises(ValueError, match="needs a supervisor"):
        run_chaos(chaos)


def test_supervised_single_kill_chaos_scenario():
    """ChaosScenario.supervision alone wires the supervisor into run_chaos."""
    from repro.device.config import DeviceConfig
    from repro.experiments.scenario import Scenario
    from repro.experiments.standard import framefeedback_factory

    chaos = ChaosScenario(
        base=Scenario(
            controller_factory=framefeedback_factory(),
            device=DeviceConfig(total_frames=1500),
            seed=3,
        ),
        injectors=[ControllerKill(FaultTimeline.from_rows([(20.0, 4.0)]))],
        supervision=SupervisionConfig(),
    )
    res = run_chaos(chaos)
    assert res.supervision is not None
    assert res.supervision["restarts"] == {"controller": 1}
    settle = next(c for c in res.invariants if c.name == "warm-restart-settle")
    assert settle.passed


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_supervision_json_exits_zero_on_pass(capsys):
    assert main(["chaos", "--supervision", "--json"]) == 0
    out = capsys.readouterr().out
    # pinned byte for byte (CI's supervision-smoke job compares the
    # same golden): the run kills and restarts the measure loop and
    # drives the watchdog and the fault windows
    golden = Path(__file__).parent / "goldens" / "chaos_supervision.json"
    assert out == golden.read_text()
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert payload["warm"]["supervision"]["mttr"]["controller"]


def test_cli_supervision_text_render(capsys):
    assert main(["chaos", "--supervision"]) == 0
    out = capsys.readouterr().out
    assert "warm-beats-cold" in out
    assert "verdict: PASS" in out
