"""Tests for multi-device scenarios (fleets sharing the edge server).

``goldens/fleet_runs.json`` holds every device's QoS report and the
server statistics of nine fleet runs.  The file was recorded before
fleets were lowered onto :func:`build_runtime`, and each case must
still replay byte-exact through it.  ``goldens/fleet_scaling.txt`` is
the stdout of ``repro fleet``.  Intentional-change workflow::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_fleet.py
    git diff tests/goldens/
"""

import json
import os
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.cli import main
from repro.control.framefeedback import FrameFeedbackController
from repro.device.config import DeviceConfig
from repro.experiments.chaos import ChaosScenario, default_chaos_injectors, run_chaos
from repro.experiments.scenario import (
    FleetMember,
    Scenario,
    build_runtime,
    homogeneous_fleet,
    run_scenario,
)
from repro.experiments.three_pi import three_pi_members
from repro.fleet.config import FleetTopology
from repro.io.config import scenario_to_dict
from repro.netem.link import LinkConditions
from repro.server.batching import BatchPolicy
from repro.trace import Tracer
from repro.workloads.loadgen import LoadSchedule
from repro.workloads.schedules import table_v_schedule

GOLDEN = Path(__file__).parent / "goldens" / "fleet_runs.json"
SCALING_GOLDEN = Path(__file__).parent / "goldens" / "fleet_scaling.txt"


def ff_factory(config):
    return FrameFeedbackController(config.frame_rate)


def _golden_cases():
    cases = {
        f"homogeneous_{n}": Scenario(
            members=homogeneous_fleet(n, total_frames=900),
            controller_factory=ff_factory,
        )
        for n in (2, 4, 8, 12)
    }
    cases["three_pi_table_v"] = Scenario(
        members=three_pi_members(1500, network=table_v_schedule),
        controller_factory=ff_factory,
        seed=1,
    )
    cases["good_bad_links"] = Scenario(
        members=[
            FleetMember(
                DeviceConfig(name="good", total_frames=900),
                link=LinkConditions(bandwidth=10.0),
            ),
            FleetMember(
                DeviceConfig(name="bad", total_frames=900),
                link=LinkConditions(bandwidth=1.0),
            ),
        ],
        controller_factory=ff_factory,
    )
    for policy in (BatchPolicy.FIFO, BatchPolicy.FAIR):
        cases[f"load60_{policy.name.lower()}"] = Scenario(
            members=homogeneous_fleet(10, total_frames=1200),
            controller_factory=ff_factory,
            load=LoadSchedule.from_rows([(0, 60)]),
            batch_policy=policy,
            seed=2,
        )
    cases["pool_3_servers"] = Scenario(
        members=homogeneous_fleet(4, total_frames=900),
        controller_factory=ff_factory,
        topology=FleetTopology(servers=("edge0", "edge1", "edge2")),
    )
    return cases


def _run_doc(scenario):
    result = build_runtime(scenario).run()
    return {
        "devices": {name: asdict(q) for name, q in result.devices.items()},
        "server_stats": asdict(result.server_stats),
        "per_server_stats": {
            name: asdict(s) for name, s in result.per_server_stats.items()
        },
        "gpu_utilization": result.gpu_utilization,
        "mean_batch_size": result.mean_batch_size,
        "fleet_extras": result.fleet_extras,
    }


def _dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_fleet_runs_replay_golden():
    fresh = {name: _run_doc(sc) for name, sc in _golden_cases().items()}
    if os.environ.get("REPRO_UPDATE_GOLDENS") == "1":
        GOLDEN.write_text(_dumps(fresh))
        pytest.fail(
            f"golden {GOLDEN.name} regenerated (REPRO_UPDATE_GOLDENS=1); "
            "review with `git diff tests/goldens/` and commit"
        )
    golden = json.loads(GOLDEN.read_text())
    assert sorted(fresh) == sorted(golden)
    for name in golden:
        assert _dumps(fresh[name]) == _dumps(golden[name]), name


def test_cli_fleet_matches_golden(capsys):
    """``repro fleet`` stdout replays ``goldens/fleet_scaling.txt``."""
    assert main(["fleet"]) == 0
    fresh = capsys.readouterr().out
    if os.environ.get("REPRO_UPDATE_GOLDENS") == "1":
        SCALING_GOLDEN.write_text(fresh)
        pytest.fail(
            f"golden {SCALING_GOLDEN.name} regenerated (REPRO_UPDATE_GOLDENS=1); "
            "review with `git diff tests/goldens/` and commit"
        )
    assert fresh == SCALING_GOLDEN.read_text()


def test_traced_fleet_has_spans_for_every_tenant():
    runtime = build_runtime(
        Scenario(
            members=homogeneous_fleet(2, total_frames=120),
            controller_factory=ff_factory,
        )
    )
    runtime.env.tracer = tracer = Tracer()
    result = runtime.run()
    tenants = {tenant for tenant, _ in tracer.frames}
    assert tenants == {"pi0", "pi1"}
    for name, qos in result.devices.items():
        roots = [s for (t, _), s in tracer.frames.items() if t == name]
        assert len(roots) == qos.total_frames
        # every span tree reached a terminal state
        assert all(root.status is not None for root in roots)


def test_fleet_validation():
    with pytest.raises(ValueError):
        Scenario(
            members=homogeneous_fleet(2, total_frames=10),
            controller_factory=ff_factory,
            device=DeviceConfig(total_frames=10),
        )
    with pytest.raises(ValueError):
        Scenario(
            members=homogeneous_fleet(2, total_frames=10),
            controller_factory=ff_factory,
            network=table_v_schedule(),
        )
    dup = [
        FleetMember(DeviceConfig(name="same", total_frames=10)),
        FleetMember(DeviceConfig(name="same", total_frames=10)),
    ]
    with pytest.raises(ValueError):
        Scenario(members=dup, controller_factory=ff_factory)
    with pytest.raises(ValueError):
        homogeneous_fleet(0)
    fleet = Scenario(members=homogeneous_fleet(2), controller_factory=ff_factory)
    with pytest.raises(ValueError):
        scenario_to_dict(fleet, "FrameFeedback")


def test_one_member_fleet_is_the_single_device_testbed():
    device = DeviceConfig(name="pi0", total_frames=300)
    fleet = run_scenario(
        Scenario(members=[FleetMember(device)], controller_factory=ff_factory)
    )
    solo = run_scenario(Scenario(controller_factory=ff_factory, device=device))
    assert asdict(fleet.qos) == asdict(solo.qos)
    assert fleet.devices == {"pi0": fleet.qos}


def test_chaos_rejects_multi_device_scenarios():
    chaos = ChaosScenario(
        base=Scenario(
            members=homogeneous_fleet(2, total_frames=300),
            controller_factory=ff_factory,
        ),
        injectors=default_chaos_injectors(),
    )
    with pytest.raises(ValueError, match="single-device"):
        run_chaos(chaos)


def test_three_pi_fleet_like_the_paper():
    """§IV-A: three Pis streaming concurrently to one server."""
    scenario = Scenario(
        members=homogeneous_fleet(3, total_frames=900),
        controller_factory=ff_factory,
        seed=0,
    )
    result = run_scenario(scenario)
    assert len(result.devices) == 3
    # server has ample capacity for 90 fps total: everyone saturates
    for name, qos in result.devices.items():
        assert qos.mean_throughput > 22.0, name
    assert result.jain_fairness() > 0.99
    assert result.server_stats.received > 0


def test_fleet_members_have_independent_links():
    members = [
        FleetMember(
            DeviceConfig(name="good", total_frames=900),
            link=LinkConditions(bandwidth=10.0),
        ),
        FleetMember(
            DeviceConfig(name="bad", total_frames=900),
            link=LinkConditions(bandwidth=1.0),
        ),
    ]
    result = run_scenario(Scenario(members=members, controller_factory=ff_factory))
    assert result.devices["good"].mean_throughput > 22.0
    assert result.devices["bad"].mean_throughput == pytest.approx(13.0, abs=2.0)


def test_fleet_determinism():
    scenario = Scenario(
        members=homogeneous_fleet(2, total_frames=600),
        controller_factory=ff_factory,
        seed=4,
    )
    a = run_scenario(scenario)
    b = run_scenario(scenario)
    assert a.throughputs() == b.throughputs()


def test_large_fleet_saturates_server_gracefully():
    """12 devices offer 360 fps to a ~140 fps server: every member
    still keeps P >= ~P_l because its controller sheds load."""
    scenario = Scenario(
        members=homogeneous_fleet(12, total_frames=1200),
        controller_factory=ff_factory,
        seed=0,
    )
    result = run_scenario(scenario)
    throughputs = result.throughputs()
    assert all(v > 11.0 for v in throughputs.values())
    # aggregate offloading stays near server capacity, not above
    assert result.gpu_utilization > 0.7


def test_fair_policy_raises_fairness_index_under_contention():
    def contended(policy):
        scenario = Scenario(
            members=homogeneous_fleet(10, total_frames=1200),
            controller_factory=ff_factory,
            load=LoadSchedule.from_rows([(0, 60)]),
            batch_policy=policy,
            seed=2,
        )
        return run_scenario(scenario)

    fifo = contended(BatchPolicy.FIFO)
    fair = contended(BatchPolicy.FAIR)
    assert fair.jain_fairness() >= fifo.jain_fairness() - 0.02
    # both policies keep the fleet above the local floor
    assert min(fair.throughputs().values()) > 11.0


def test_fleet_run_duration_covers_longest_member():
    members = [
        FleetMember(DeviceConfig(name="short", total_frames=300)),
        FleetMember(DeviceConfig(name="long", total_frames=900)),
    ]
    scenario = Scenario(members=members, controller_factory=ff_factory)
    assert scenario.run_duration == pytest.approx(900 / 30.0 + 2.0)
