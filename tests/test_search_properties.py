"""Property-based round-trip tests for the scenario language (ISSUE 6,
satellite: ``Scenario -> to_json -> from_json -> to_json`` must be
byte-identical, fault timelines and network schedules included).

Strategies generate specs across the whole language surface — explicit
phase rows, every generator kind, multi-window fault timelines,
populations, stack switches — and the properties assert the
determinism contract the golden files and the adversarial search both
lean on: normalization happens once, in ``from_dict``, and is
idempotent.
"""

import json

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.search import ScenarioSpec, compile_flat, compile_scenario
from repro.search.language import FAULT_KINDS

# bounded, finite floats: the language accepts any float, but keeping
# the ranges physical avoids tripping validators unrelated to the
# round-trip property (positive durations, loss < 1, ...)
pos_float = st.floats(min_value=0.1, max_value=500.0,
                      allow_nan=False, allow_infinity=False)
small_float = st.floats(min_value=0.01, max_value=0.9,
                        allow_nan=False, allow_infinity=False)


@st.composite
def fault_entries(draw):
    kind = draw(st.sampled_from(sorted(FAULT_KINDS)))
    # build non-overlapping windows by construction: cumulative offsets
    n = draw(st.integers(min_value=1, max_value=3))
    t = 0.0
    windows = []
    for _ in range(n):
        gap = draw(st.floats(min_value=0.1, max_value=30.0,
                             allow_nan=False, allow_infinity=False))
        dur = draw(st.floats(min_value=0.1, max_value=10.0,
                             allow_nan=False, allow_infinity=False))
        start = t + gap
        windows.append([start, dur])
        t = start + dur
    entry = {"kind": kind, "windows": windows}
    for param, typ in FAULT_KINDS[kind].items():
        if draw(st.booleans()):
            continue  # parameters are optional; exercise sparseness
        if typ is float:
            entry[param] = draw(small_float if param in ("loss", "sigma")
                                else pos_float)
        elif typ is str:
            entry[param] = draw(st.sampled_from(["warm", "cold"]))
    return entry


@st.composite
def network_fields(draw):
    mode = draw(st.integers(min_value=0, max_value=3))
    if mode == 0:
        n = draw(st.integers(min_value=1, max_value=4))
        rows, t = [], 0.0
        for i in range(n):
            rows.append([t, draw(pos_float),
                         draw(st.floats(min_value=0.0, max_value=40.0,
                                        allow_nan=False, allow_infinity=False))])
            t += draw(st.floats(min_value=0.5, max_value=20.0,
                                allow_nan=False, allow_infinity=False))
        return rows
    if mode == 1:
        return {"kind": "phases", "rows": [[0.0, draw(pos_float), 0.0]]}
    if mode == 2:
        return {"kind": "diurnal", "period": draw(pos_float),
                "dip": draw(small_float), "step": draw(pos_float)}
    return {"kind": "mobility",
            "radius_far": draw(st.floats(min_value=10.0, max_value=80.0,
                                         allow_nan=False, allow_infinity=False)),
            "lap_seconds": draw(pos_float)}


@st.composite
def load_fields(draw):
    mode = draw(st.integers(min_value=0, max_value=2))
    if mode == 0:
        return [[0.0, draw(pos_float)]]
    if mode == 1:
        return {"kind": "flash_crowd", "base_rate": draw(pos_float),
                "peak_rate": 1000.0, "at": draw(pos_float)}
    return {"kind": "diurnal", "base_rate": 0.0, "peak_rate": draw(pos_float)}


@st.composite
def scenario_dicts(draw):
    data = {}
    if draw(st.booleans()):
        data["controller"] = draw(st.sampled_from(
            ["FrameFeedback", "AIMD", "Oracle", "Headroom"]))
    if draw(st.booleans()):
        data["seed"] = draw(st.integers(min_value=0, max_value=2**31))
    if draw(st.booleans()):
        data["duration"] = draw(pos_float)
    if draw(st.booleans()):
        data["device"] = {
            "total_frames": draw(st.integers(min_value=1, max_value=10_000)),
            "frame_rate": draw(pos_float),
        }
    if draw(st.booleans()):
        data.setdefault("device", {})["profile"] = draw(
            st.sampled_from(["pi4b_r1_2", "pi3b_r1_2"]))
    if draw(st.booleans()):
        data["gpu"] = {"base_latency": draw(small_float),
                       "jitter_sigma": draw(small_float)}
    if draw(st.booleans()):
        data["batch_policy"] = draw(st.sampled_from(["fifo", "fair", "deadline_aware"]))
    if draw(st.booleans()):
        data["uplink_queue_bytes"] = draw(pos_float)
    if draw(st.booleans()):
        data["network"] = draw(network_fields())
    if draw(st.booleans()):
        data["load"] = draw(load_fields())
    if draw(st.booleans()):
        data["faults"] = draw(st.lists(fault_entries(), min_size=1, max_size=3))
    # a fault naming a server is only valid against a topology block
    # declaring that member (compile-time cross-check); also exercise
    # topologies with no named faults at all
    names_server = any("server" in f for f in data.get("faults", []))
    if names_server or draw(st.booleans()):
        topology = {"servers": ["warm", "cold"]}
        if draw(st.booleans()):
            topology["policy"] = draw(st.sampled_from(
                ["round_robin", "least_loaded", "latency_aware"]))
        if draw(st.booleans()):
            topology["probation"] = draw(pos_float)
        data["topology"] = topology
    if draw(st.booleans()):
        data["population"] = {"size": draw(st.integers(min_value=1, max_value=5))}
    for flag in ("resilience", "supervision"):
        if draw(st.booleans()):
            data[flag] = draw(st.booleans())
    return data


@settings(max_examples=80, deadline=None)
@given(scenario_dicts())
def test_json_round_trip_is_byte_identical(data):
    spec = ScenarioSpec.from_dict(data)
    text = spec.to_json()
    again = ScenarioSpec.from_json(text)
    assert again.to_json() == text
    assert again == spec and hash(again) == hash(spec)


@settings(max_examples=80, deadline=None)
@given(scenario_dicts())
def test_normalization_is_idempotent(data):
    spec = ScenarioSpec.from_dict(data)
    renormalized = ScenarioSpec.from_dict(spec.to_dict())
    assert renormalized.data == spec.data


@settings(max_examples=40, deadline=None)
@given(scenario_dicts())
def test_fault_timelines_and_windows_survive_the_round_trip(data):
    spec = ScenarioSpec.from_dict(data)
    again = ScenarioSpec.from_json(spec.to_json())
    assert again.faults == spec.faults
    for entry in again.faults:
        starts = [w[0] for w in entry["windows"]]
        assert starts == sorted(starts)


@settings(max_examples=40, deadline=None)
@given(scenario_dicts())
def test_compile_flat_is_deterministic(data):
    spec = ScenarioSpec.from_dict(data)
    first = compile_flat(spec)
    second = compile_flat(ScenarioSpec.from_json(spec.to_json()))
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def _lowered(spec):
    s = compile_scenario(spec)
    return (
        s.device,
        s.gpu_model,
        None if s.network is None else s.network.phases,
        None if s.load is None else s.load.phases,
        s.topology,
        s.seed,
        s.duration,
        s.batch_policy,
        s.uplink_queue_bytes,
    )


@settings(max_examples=40, deadline=None)
@given(scenario_dicts())
def test_compiled_flat_form_compiles_to_the_same_scenario(data):
    """``repro compile`` output is a spec that runs exactly as the
    original: same device, GPU, schedules and topology."""
    spec = ScenarioSpec.from_dict(data)
    flat = ScenarioSpec.from_dict(compile_flat(spec))
    assert _lowered(flat) == _lowered(spec)
