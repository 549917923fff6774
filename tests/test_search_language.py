"""Scenario language + compiler unit tests (ISSUE 6 tentpole)."""

import math

import pytest

from repro.faults.device import CameraStall, CpuThrottle
from repro.faults.link import BandwidthCollapse
from repro.faults.server import ServerSlowdown
from repro.search import (
    ScenarioSpec,
    SpecError,
    build_injectors,
    compile_chaos,
    compile_flat,
    compile_scenario,
    expand_population,
)
from repro.search.compiler import load_rows, network_rows


# ----------------------------------------------------------------------
# language validation
# ----------------------------------------------------------------------
def test_unknown_top_level_key_rejected_with_helpful_message():
    with pytest.raises(SpecError, match=r"\['contoller'\]") as err:
        ScenarioSpec.from_dict({"contoller": "FrameFeedback"})
    assert "valid fields" in str(err.value)
    assert "controller" in str(err.value)


def test_unknown_nested_keys_rejected():
    with pytest.raises(SpecError, match="device"):
        ScenarioSpec.from_dict({"device": {"frame_rat": 30.0}})
    with pytest.raises(SpecError, match="gpu"):
        ScenarioSpec.from_dict({"gpu": {"base_latencyy": 0.01}})
    with pytest.raises(SpecError, match="population"):
        ScenarioSpec.from_dict({"population": {"size": 2, "profile": ["x"]}})


def test_batch_policy_is_one_of_the_servers():
    with pytest.raises(SpecError, match="unknown policy 'lifo'"):
        ScenarioSpec.from_dict({"batch_policy": "lifo"})
    # the gateway's discipline is not a simulated server's option
    with pytest.raises(SpecError, match="unknown policy 'bounded_queue'") as err:
        ScenarioSpec.from_dict({"batch_policy": "bounded_queue"})
    assert "['deadline_aware', 'fair', 'fifo']" in str(err.value)


def test_unknown_fault_kind_and_params_rejected():
    with pytest.raises(SpecError, match="unknown fault kind"):
        ScenarioSpec.from_dict(
            {"faults": [{"kind": "bandwith_collapse", "windows": [[1, 1]]}]}
        )
    with pytest.raises(SpecError, match=r"faults\[0\]"):
        ScenarioSpec.from_dict(
            {"faults": [{"kind": "bandwidth_collapse", "windows": [[1, 1]],
                         "facor": 0.1}]}
        )


def test_unknown_generator_kind_rejected():
    with pytest.raises(SpecError, match="unknown generator kind"):
        ScenarioSpec.from_dict({"network": {"kind": "diurnal_", "period": 10}})
    with pytest.raises(SpecError, match="unknown generator kind"):
        ScenarioSpec.from_dict({"load": {"kind": "mobility"}})  # load has none


def test_unknown_controller_profile_model_rejected():
    with pytest.raises(SpecError, match="unknown controller"):
        ScenarioSpec.from_dict({"controller": "NotAController"})
    with pytest.raises(SpecError, match="unknown device profile"):
        ScenarioSpec.from_dict({"device": {"profile": "pi9"}})
    with pytest.raises(SpecError, match="unknown model"):
        ScenarioSpec.from_dict({"device": {"model": "resnet9000"}})


def test_fault_windows_are_sorted_and_validated():
    spec = ScenarioSpec.from_dict(
        {"faults": [{"kind": "camera_stall",
                     "windows": [[20.0, 2.0], [5.0, 3.0]]}]}
    )
    assert spec.faults[0]["windows"] == [[5.0, 3.0], [20.0, 2.0]]
    # overlapping windows within one timeline are rejected outright
    with pytest.raises(ValueError):
        ScenarioSpec.from_dict(
            {"faults": [{"kind": "camera_stall",
                         "windows": [[5.0, 10.0], [8.0, 2.0]]}]}
        )


def test_to_json_is_canonical_and_replace_deletes_with_none():
    spec = ScenarioSpec.from_dict({"seed": 3, "controller": "AIMD"})
    text = spec.to_json()
    assert text.endswith("\n")
    assert text.index('"controller"') < text.index('"seed"')
    assert spec.replace(seed=9).seed == 9
    assert "controller" not in spec.replace(controller=None).data


# ----------------------------------------------------------------------
# schedule generators
# ----------------------------------------------------------------------
def test_diurnal_network_dips_mid_period():
    spec = ScenarioSpec.from_dict(
        {"duration": 40.0,
         "network": {"kind": "diurnal", "period": 40.0, "base_bandwidth": 10.0,
                     "dip": 8.0, "loss_peak": 6.0, "step": 5.0}}
    )
    rows = network_rows(spec)
    assert rows[0] == [0.0, 10.0, 0.0]
    trough = min(rows, key=lambda r: r[1])
    assert trough[0] == 20.0  # mid-period
    assert math.isclose(trough[1], 2.0)
    assert math.isclose(trough[2], 6.0)  # loss peaks with the dip


def test_flash_crowd_rows_ramp_hold_decay():
    spec = ScenarioSpec.from_dict(
        {"duration": 60.0,
         "load": {"kind": "flash_crowd", "base_rate": 5.0, "peak_rate": 105.0,
                  "at": 10.0, "ramp": 4.0, "hold": 6.0, "decay": 4.0,
                  "step": 2.0}}
    )
    rows = load_rows(spec)
    starts = [r[0] for r in rows]
    assert starts == sorted(starts)
    assert len(starts) == len(set(starts)), "duplicate phase starts"
    assert rows[0] == [0.0, 5.0]
    by_start = dict(rows)
    assert by_start[14.0] == 105.0  # peak reached after the ramp
    assert by_start[24.0] == 5.0  # decayed back to base


def test_mobility_network_rows_vary_bandwidth():
    spec = ScenarioSpec.from_dict(
        {"duration": 30.0,
         "network": {"kind": "mobility", "radius_near": 5.0, "radius_far": 45.0,
                     "lap_seconds": 20.0, "laps": 2, "step": 2.0}}
    )
    rows = network_rows(spec)
    bandwidths = {r[1] for r in rows}
    assert len(rows) > 5
    assert len(bandwidths) > 2, "mobility trace should vary link quality"


def test_generator_parameter_validation():
    with pytest.raises(SpecError, match="period and step"):
        network_rows(ScenarioSpec.from_dict(
            {"duration": 10.0, "network": {"kind": "diurnal", "period": -1.0}}))
    with pytest.raises(SpecError, match="dip"):
        network_rows(ScenarioSpec.from_dict(
            {"duration": 10.0,
             "network": {"kind": "diurnal", "base_bandwidth": 4.0, "dip": 9.0}}))
    with pytest.raises(SpecError, match="peak_rate"):
        load_rows(ScenarioSpec.from_dict(
            {"duration": 10.0,
             "load": {"kind": "flash_crowd", "base_rate": 50.0,
                      "peak_rate": 10.0}}))


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
def test_compile_flat_lowers_generators_and_strips_extended_keys():
    spec = ScenarioSpec.from_dict(
        {"controller": "FrameFeedback", "seed": 5, "duration": 20.0,
         "network": {"kind": "diurnal", "period": 20.0, "step": 5.0},
         "load": [[0.0, 0.0], [8.0, 90.0]],
         "faults": [{"kind": "server_crash", "windows": [[5.0, 2.0]]}],
         "resilience": True,
         "population": {"size": 2}}
    )
    flat = compile_flat(spec)
    assert "faults" not in flat and "population" not in flat
    assert "resilience" not in flat
    assert isinstance(flat["network"], list)
    assert flat["load"] == [[0.0, 0.0], [8.0, 90.0]]
    # the flat artifact is directly runnable
    scenario = compile_scenario(spec)
    assert scenario.seed == 5


def test_compile_scenario_lowers_every_field():
    """Each spec field reaches the Scenario; omitted ones keep defaults."""
    from repro.device.config import DeviceConfig
    from repro.fleet.config import FleetConfig, FleetTopology
    from repro.models.device_profiles import DEVICE_PROFILES
    from repro.models.frames import FrameSpec
    from repro.models.latency import GpuBatchModel
    from repro.models.zoo import MODEL_ZOO
    from repro.server.batching import BatchPolicy

    spec = ScenarioSpec.from_dict({
        "controller": "AIMD", "seed": 9, "duration": 12.5,
        "device": {"name": "cam", "profile": "pi3b_r1_2",
                   "model": "mobilenet_v3_large", "frame_rate": 15,
                   "deadline": 0.3, "measure_period": 2, "t_window_buckets": 4,
                   "total_frames": 120, "resolution": 160, "jpeg_quality": 70},
        "gpu": {"base_latency": 0.01, "per_item": 0.002, "jitter_sigma": 0.1},
        "batch_policy": "fair", "uplink_queue_bytes": 50_000,
        "topology": {"servers": ["a", "b"], "failover": False, "fail_threshold": 5},
        "network": [[0, 8, 1]], "load": [[0, 20]],
    })
    scenario = compile_scenario(spec)
    assert scenario.device == DeviceConfig(
        name="cam", profile=DEVICE_PROFILES["pi3b_r1_2"],
        model=MODEL_ZOO["mobilenet_v3_large"],
        frame_spec=FrameSpec(resolution=160, jpeg_quality=70.0),
        frame_rate=15.0, deadline=0.3, measure_period=2.0,
        t_window_buckets=4, total_frames=120,
    )
    assert scenario.gpu_model == GpuBatchModel(0.01, 0.002, 0.1)
    assert scenario.batch_policy is BatchPolicy.FAIR
    assert (scenario.seed, scenario.duration, scenario.uplink_queue_bytes) == (
        9, 12.5, 50_000.0
    )
    assert scenario.topology == FleetTopology(
        ("a", "b"), FleetConfig(failover=False, fail_threshold=5)
    )
    assert scenario.network.at(0.0).bandwidth == 8.0
    assert scenario.load.rate_at(0.0) == 20.0
    assert scenario.controller_factory(scenario.device).name == "AIMD"

    bare = compile_scenario(ScenarioSpec.from_dict({}))
    assert bare.device == DeviceConfig() and bare.gpu_model == GpuBatchModel()
    assert (bare.seed, bare.duration, bare.batch_policy, bare.topology) == (
        0, None, BatchPolicy.FIFO, None
    )


def test_expand_population_round_robins_hardware():
    spec = ScenarioSpec.from_dict(
        {"device": {"total_frames": 100},
         "population": {"size": 3, "profiles": ["pi4b_r1_2", "pi3b_r1_2"],
                        "name_prefix": "cam"}}
    )
    configs = expand_population(spec)
    assert [c["device"]["name"] for c in configs] == ["cam0", "cam1", "cam2"]
    assert [c["device"]["profile"] for c in configs] == [
        "pi4b_r1_2", "pi3b_r1_2", "pi4b_r1_2"
    ]
    # no population block: expansion is the identity
    assert len(expand_population(ScenarioSpec.from_dict({}))) == 1


def test_build_injectors_maps_kinds_to_classes():
    spec = ScenarioSpec.from_dict(
        {"faults": [
            {"kind": "bandwidth_collapse", "factor": 0.1, "windows": [[2.0, 3.0]]},
            {"kind": "cpu_throttle", "factor": 2.0, "windows": [[2.0, 3.0]]},
            {"kind": "server_slowdown", "factor": 3.0, "windows": [[2.0, 3.0]]},
            {"kind": "camera_stall", "windows": [[8.0, 1.0]]},
        ]}
    )
    injectors = build_injectors(spec)
    assert [type(i) for i in injectors] == [
        BandwidthCollapse, CpuThrottle, ServerSlowdown, CameraStall
    ]
    # fresh instances every call (injectors bind to one environment)
    assert build_injectors(spec)[0] is not injectors[0]


def test_build_injectors_rejects_same_resource_overlap():
    spec = ScenarioSpec.from_dict(
        {"faults": [
            {"kind": "bandwidth_collapse", "factor": 0.1, "windows": [[2.0, 6.0]]},
            {"kind": "burst_loss", "loss": 0.3, "burst": 4.0,
             "windows": [[4.0, 3.0]]},
        ]}
    )
    with pytest.raises(ValueError):
        build_injectors(spec)


def test_bad_injector_params_surface_as_spec_errors():
    spec = ScenarioSpec.from_dict(
        {"faults": [{"kind": "burst_loss", "loss": 0.3, "burst": 0.5,
                     "windows": [[2.0, 3.0]]}]}
    )
    with pytest.raises(SpecError, match=r"faults\[0\]"):
        build_injectors(spec)


def test_compile_chaos_attaches_stacks():
    spec = ScenarioSpec.from_dict(
        {"device": {"total_frames": 50},
         "faults": [{"kind": "server_crash", "windows": [[1.0, 0.5]]}],
         "resilience": True, "supervision": True}
    )
    chaos = compile_chaos(spec)
    assert chaos.resilience is not None
    assert chaos.supervision is not None
    assert len(chaos.injectors) == 1
    bare = compile_chaos(spec.replace(resilience=None, supervision=None))
    assert bare.resilience is None and bare.supervision is None
