"""Compile-time validation of fleet topology in specs and run configs.

Fault timelines that target unknown server names must be rejected at
compile time, with an error that lists the valid names; a plain run
config (``repro run --config``) compiles its topology through the same
scenario language.
"""

import pytest

from repro.search.compiler import benign_spec, compile_chaos, compile_flat, compile_scenario
from repro.search.language import ScenarioSpec, SpecError


def spec_dict(**overrides):
    base = {
        "controller": "FrameFeedback",
        "seed": 3,
        "duration": 20.0,
        "topology": {"servers": ["a", "b"], "policy": "least_loaded"},
        "faults": [
            {"kind": "server_kill", "windows": [[5.0, 2.0]], "server": "b"},
        ],
    }
    base.update(overrides)
    return base


# ----------------------------------------------------------------------
# scenario language (repro.search)
# ----------------------------------------------------------------------
def test_spec_topology_happy_path_compiles():
    spec = ScenarioSpec.from_dict(spec_dict())
    chaos = compile_chaos(spec)
    scenario = chaos.base
    assert scenario.topology is not None
    assert scenario.topology.servers == ("a", "b")
    assert scenario.topology.config.policy == "least_loaded"
    (injector,) = chaos.injectors
    assert injector.resource == "server.loop:b"
    assert injector.total_failure is False


def test_spec_topology_round_trips():
    spec = ScenarioSpec.from_dict(spec_dict())
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_spec_fault_without_topology_block_rejected():
    d = spec_dict()
    del d["topology"]
    with pytest.raises(
        SpecError,
        match=r"faults\[0\]: fault targets server 'b' but the spec has "
        r"no 'topology' block",
    ):
        ScenarioSpec.from_dict(d).validate()


def test_spec_fault_unknown_server_lists_valid_names():
    d = spec_dict()
    d["faults"][0]["server"] = "zz"
    with pytest.raises(
        SpecError,
        match=r"faults\[0\]: unknown server 'zz'; valid servers: \['a', 'b'\]",
    ):
        ScenarioSpec.from_dict(d).validate()


def test_spec_topology_unknown_key_rejected():
    d = spec_dict(topology={"servers": ["a"], "polcy": "round_robin"})
    with pytest.raises(SpecError, match=r"unknown topology field\(s\) \['polcy'\]"):
        ScenarioSpec.from_dict(d)


def test_spec_topology_duplicate_servers_rejected():
    d = spec_dict(topology={"servers": ["a", "a"]})
    with pytest.raises(SpecError, match="duplicate"):
        ScenarioSpec.from_dict(d)


def test_spec_topology_unknown_policy_lists_valid_policies():
    d = spec_dict(topology={"servers": ["a"], "policy": "fastest"})
    with pytest.raises(
        SpecError, match=r"topology\.policy: unknown policy 'fastest'; valid"
    ):
        ScenarioSpec.from_dict(d).validate()


def test_spec_named_slowdown_and_contention_accept_server():
    d = spec_dict(
        faults=[
            {"kind": "server_slowdown", "windows": [[1.0, 2.0]],
             "factor": 3.0, "server": "a"},
            {"kind": "gpu_contention", "windows": [[4.0, 2.0]],
             "mean_factor": 2.0, "sigma": 0.1, "server": "b"},
        ]
    )
    spec = ScenarioSpec.from_dict(d)
    spec.validate()
    chaos = compile_chaos(spec)
    assert [f.resource for f in chaos.injectors] == [
        "server.gpu:a",
        "server.gpu:b",
    ]


# ----------------------------------------------------------------------
# plain run configs (repro run --config)
# ----------------------------------------------------------------------
def config_dict(**overrides):
    base = {
        "seed": 7,
        "topology": {"servers": ["edge0", "edge1"], "policy": "latency_aware",
                     "probation": 2.5},
    }
    base.update(overrides)
    return base


def test_config_topology_round_trips():
    scenario = compile_scenario(benign_spec(config_dict()))
    assert scenario.topology.servers == ("edge0", "edge1")
    assert scenario.topology.config.policy == "latency_aware"
    assert scenario.topology.config.probation == 2.5
    doc = compile_flat(benign_spec(config_dict()))
    again = compile_scenario(benign_spec(doc))
    assert again.topology == scenario.topology


def test_config_topology_unknown_key_rejected():
    with pytest.raises(ValueError, match="probtion"):
        benign_spec(
            config_dict(topology={"servers": ["edge0"], "probtion": 1.0})
        )


def test_config_topology_empty_servers_rejected():
    with pytest.raises(ValueError, match="servers"):
        benign_spec(config_dict(topology={"servers": []}))


def test_config_topology_string_failover_rejected():
    """``bool("false")`` is True: a quoted boolean must be refused, not
    run with failover on."""
    with pytest.raises(SpecError, match=r"topology\.failover: expected bool"):
        benign_spec(config_dict(topology={"servers": ["edge0"], "failover": "false"}))
    off = compile_scenario(
        benign_spec(config_dict(topology={"servers": ["edge0"], "failover": False}))
    )
    assert off.topology.config.failover is False
