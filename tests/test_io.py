"""Tests for result export, and for loading a run config through the
scenario language (the path ``repro run --config`` takes)."""

import json

import numpy as np
import pytest

from repro.device.config import DeviceConfig
from repro.experiments.scenario import Scenario, run_scenario
from repro.experiments.standard import framefeedback_factory
from repro.io import (
    export_run,
    load_timeseries_csv,
    qos_to_dict,
    timeseries_to_csv,
)
from repro.io.export import traces_to_csv
from repro.metrics.timeseries import TimeSeries
from repro.netem.profiles import CONGESTED
from repro.search import ScenarioSpec, compile_flat, compile_scenario
from repro.search.compiler import benign_spec
from repro.workloads.schedules import TABLE_V_NETWORK, steady_schedule, table_v_schedule


def _series(name, pairs):
    s = TimeSeries(name)
    for t, v in pairs:
        s.append(t, v)
    return s


# ----------------------------------------------------------------------
# CSV round trips
# ----------------------------------------------------------------------
def test_single_series_csv_round_trip():
    s = _series("p", [(0.0, 1.5), (1.0, 2.5)])
    text = timeseries_to_csv(s, value_name="p")
    back = load_timeseries_csv(text)
    assert list(back["p"].times) == [0.0, 1.0]
    assert list(back["p"].values) == [1.5, 2.5]


def test_wide_csv_round_trip():
    a = _series("a", [(0.0, 1.0), (1.0, 2.0)])
    b = _series("b", [(0.0, 3.0), (1.0, 4.0)])
    back = load_timeseries_csv(traces_to_csv({"a": a, "b": b}))
    assert list(back["b"].values) == [3.0, 4.0]


def test_wide_csv_rejects_misaligned_series():
    a = _series("a", [(0.0, 1.0)])
    b = _series("b", [(0.0, 3.0), (1.0, 4.0)])
    with pytest.raises(ValueError):
        traces_to_csv({"a": a, "b": b})


def test_load_rejects_garbage():
    with pytest.raises(ValueError):
        load_timeseries_csv("nonsense,header\n1,2\n")


# ----------------------------------------------------------------------
# full run export
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def run_result():
    return run_scenario(
        Scenario(
            controller_factory=framefeedback_factory(),
            device=DeviceConfig(total_frames=600),
            network=steady_schedule(CONGESTED),
            seed=0,
        )
    )


def test_export_run_writes_artifacts(run_result, tmp_path):
    paths = export_run(run_result, tmp_path / "out")
    assert paths["traces"].exists()
    assert paths["qos"].exists()

    traces = load_timeseries_csv(paths["traces"].read_text())
    assert "throughput" in traces and "offload_target" in traces
    assert np.allclose(
        traces["throughput"].values, run_result.traces.throughput.values
    )

    qos = json.loads(paths["qos"].read_text())
    assert qos["controller"] == "FrameFeedback"
    assert qos["qos"]["total_frames"] == 600
    assert "timeout_attribution" in qos


def test_qos_to_dict_fields(run_result):
    d = qos_to_dict(run_result.qos)
    assert d["name"] == "FrameFeedback"
    assert 0.0 <= d["success_fraction"] <= 1.0


def test_qos_to_dict_is_strict_json():
    """NaN extras (e.g. RTT quantiles of a never-offloading run) must
    serialize as null, not as invalid-JSON NaN tokens."""
    from repro.metrics.qos import QosReport

    q = QosReport(name="x", extras={"rtt_p50": float("nan")})
    text = json.dumps(qos_to_dict(q), allow_nan=False)  # raises if NaN
    assert json.loads(text)["extras"]["rtt_p50"] is None


# ----------------------------------------------------------------------
# run configs compile through the scenario language
# ----------------------------------------------------------------------
def _run_config(raw):
    """What ``repro run --config`` does with a loaded JSON document."""
    return compile_scenario(benign_spec(raw))


def test_scenario_round_trip_preserves_run():
    """A spec describing a hand-built Scenario compiles to the same run."""
    original = Scenario(
        controller_factory=framefeedback_factory(),
        device=DeviceConfig(total_frames=600),
        network=table_v_schedule(),
        seed=7,
    )
    spec = {
        "controller": "FrameFeedback",
        "seed": 7,
        "device": {"total_frames": 600},
        "network": [list(row) for row in TABLE_V_NETWORK],
    }
    rebuilt = _run_config(json.loads(json.dumps(spec)))
    a = run_scenario(original)
    b = run_scenario(rebuilt)
    assert np.array_equal(a.traces.throughput.values, b.traces.throughput.values)
    assert a.qos.successful == b.qos.successful


def test_scenario_dict_contents():
    """``repro compile`` output: the spec's fields, generators lowered."""
    spec = ScenarioSpec.from_dict({
        "controller": "FrameFeedback",
        "seed": 1,
        "device": {"total_frames": 100},
        "network": {"kind": "phases", "rows": [list(r) for r in TABLE_V_NETWORK]},
    })
    d = compile_flat(spec)
    assert d["controller"] == "FrameFeedback"
    assert d["device"]["total_frames"] == 100
    assert d["network"][0] == [0.0, 10.0, 0.0]
    assert "load" not in d


def test_unknown_controller_rejected_both_ways():
    with pytest.raises(ValueError):
        ScenarioSpec.from_dict({"controller": "NotAController"})
    with pytest.raises(ValueError):
        _run_config({"controller": "NotAController"})


def test_minimal_config_uses_defaults():
    scenario = _run_config({})
    assert scenario.device.frame_rate == 30.0
    assert scenario.device.total_frames == 4000
    assert scenario.network is None


# ----------------------------------------------------------------------
# unknown keys are errors, never silent no-ops
# ----------------------------------------------------------------------
def test_unknown_top_level_key_raises_and_names_valid_fields():
    with pytest.raises(ValueError) as err:
        _run_config({"controler": "FrameFeedback", "seed": 3})
    msg = str(err.value)
    assert "controler" in msg
    assert "valid fields" in msg
    assert "controller" in msg  # the fix the author needs is in the message


def test_unknown_device_key_raises():
    with pytest.raises(ValueError, match=r"device field\(s\) \['frame_rat'\]"):
        _run_config({"device": {"frame_rat": 15.0}})


def test_unknown_gpu_key_raises():
    with pytest.raises(ValueError, match=r"gpu field\(s\) \['base_latencyy'\]"):
        _run_config({"gpu": {"base_latencyy": 0.01}})


def test_extended_language_keys_are_rejected_by_the_base_format():
    """A plain run has no fault machinery: passing ``faults`` must fail
    loudly, not silently drop the fault plan."""
    with pytest.raises(ValueError, match="faults"):
        _run_config(
            {"faults": [{"kind": "server_crash", "windows": [[1.0, 1.0]]}]}
        )


@pytest.mark.parametrize("key, value", [
    ("population", {"size": 2}),
    ("resilience", True),
    ("supervision", False),
])
def test_plain_run_refuses_population_and_stack_keys(key, value):
    with pytest.raises(ValueError, match=key):
        _run_config({key: value})


def test_typo_no_longer_silently_falls_back_to_default():
    """A typoed total_frames must not be dropped, silently running the
    4000-frame default."""
    with pytest.raises(ValueError):
        _run_config({"device": {"total_frame": 100}})


# ----------------------------------------------------------------------
# generator dicts lower through the scenario compiler
# ----------------------------------------------------------------------
def test_network_generator_dict_is_lowered():
    scenario = _run_config(
        {"duration": 20.0,
         "network": {"kind": "diurnal", "period": 20.0, "base_bandwidth": 10.0,
                     "dip": 6.0, "step": 5.0}}
    )
    assert scenario.network is not None
    assert len(scenario.network.phases) == 4
    assert scenario.network.phases[0].conditions.bandwidth == 10.0


def test_load_generator_dict_is_lowered():
    scenario = _run_config(
        {"duration": 30.0,
         "load": {"kind": "flash_crowd", "peak_rate": 90.0, "at": 5.0}}
    )
    assert scenario.load is not None
    assert scenario.load.rate_at(0.0) == 0.0
    assert max(p.rate for p in scenario.load.phases) == 90.0


def test_bad_generator_field_raises():
    with pytest.raises(ValueError, match="unknown generator kind"):
        _run_config({"network": {"kind": "diurnals"}})
    with pytest.raises(ValueError, match="network"):
        _run_config({"network": {"kind": "diurnal", "perod": 10.0}})
