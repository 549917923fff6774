"""End-to-end fleet failover: a mid-run ServerKill must lose nothing.

Drives the full wired stack (device + router + pool + injectors)
through :func:`repro.fleet.chaos.fleet_chaos_scenario` and asserts the
PR's acceptance invariants directly: closed accounting, an exercised
failover path, per-server attribution, probation re-admission, and the
failover-beats-none ordering.
"""

import pytest

from repro.experiments.chaos import run_chaos
from repro.fleet.chaos import (
    DEFAULT_KILL,
    DEFAULT_SERVERS,
    fleet_chaos_scenario,
    run_fleet_chaos,
)


@pytest.fixture(scope="module")
def twin():
    return run_fleet_chaos(seed=0, total_frames=900)


def test_all_fleet_invariants_pass(twin):
    failed = [c.name for c in twin.fleet_invariants if not c.passed]
    assert not failed, f"failing fleet invariants: {failed}"
    assert twin.all_invariants_hold


def test_accounting_closed_in_both_runs(twin):
    for result in (twin.failover, twin.no_failover):
        qos = result.run.qos
        assert qos.successful + qos.timeouts + qos.dropped_local == qos.total_frames
        assert qos.extras["fleet.outstanding"] == 0.0


def test_kill_exercises_failover_and_rescues_the_frame(twin):
    qos = twin.failover.run.qos
    assert qos.extras["fleet.failovers"] >= 1.0
    assert qos.extras["fleet.edge0.failed_over_out"] >= 1.0
    # the rescued frames landed somewhere healthy
    moved_in = sum(
        qos.extras[f"fleet.{s}.failed_over_in"] for s in DEFAULT_SERVERS[1:]
    )
    assert moved_in == qos.extras["fleet.edge0.failed_over_out"]
    # with failover on, the ejection happens at the kill instant, before
    # any data-path timeout can be charged to edge0
    assert qos.extras["fleet.edge0.failures"] == 0.0


def test_killed_server_ejected_and_readmitted(twin):
    qos = twin.failover.run.qos
    assert qos.extras["fleet.edge0.ejections"] == 1.0
    assert qos.extras["fleet.edge0.readmissions"] == 1.0
    assert qos.extras["fleet.mttr_count"] == 1.0
    # MTTR >= the kill window: the server cannot be back before it heals
    assert qos.extras["fleet.mttr_mean"] >= DEFAULT_KILL[2]


@pytest.mark.parametrize("pool_size", [2, 4])
def test_kill_detected_at_every_pool_size(pool_size):
    """The default 3-server pool above, resized: accounting stays closed
    and the killed edge0 is ejected and re-admitted exactly once."""
    servers = tuple(f"edge{i}" for i in range(pool_size))
    qos = run_chaos(fleet_chaos_scenario(total_frames=900, servers=servers)).run.qos
    assert qos.successful + qos.timeouts + qos.dropped_local == qos.total_frames
    assert qos.extras["fleet.outstanding"] == 0.0
    assert qos.extras["fleet.edge0.ejections"] == 1.0
    assert qos.extras["fleet.mttr_count"] == 1.0


def test_failover_strictly_beats_ablation(twin):
    v_on = twin.failover.run.qos.mean_violation_rate
    v_off = twin.no_failover.run.qos.mean_violation_rate
    assert v_on < v_off
    # the ablation takes the kill on the chin: silence -> timeouts
    assert twin.no_failover.run.qos.timeouts > twin.failover.run.qos.timeouts


def test_ablation_routes_blind_into_the_dead_server(twin):
    qos = twin.no_failover.run.qos
    # failover off: no ejection, edge0 keeps receiving and failing
    assert qos.extras["fleet.edge0.ejections"] == 0.0
    assert qos.extras["fleet.edge0.failures"] > 0.0
    assert qos.extras["fleet.failovers"] == 0.0


def test_named_kill_is_not_a_total_failure(twin):
    # a one-member kill must not trigger the blackout invariants the
    # single-server chaos runner asserts on total_failure windows
    assert twin.failover.invariants == []
    assert twin.failover.all_invariants_hold


def test_unknown_server_name_fails_at_install():
    chaos = fleet_chaos_scenario(kill=("edge9", 8.0, 2.0))
    with pytest.raises(ValueError, match="unknown server 'edge9'"):
        run_chaos(chaos)


def test_to_dict_shape(twin):
    doc = twin.to_dict()
    assert doc["mode"] == "fleet"
    assert doc["verdict"] == "PASS"
    assert set(doc) == {"mode", "failover", "no_failover", "fleet_invariants", "verdict"}
    for key in ("failover", "no_failover"):
        assert "fleet" in doc[key]
        assert "dropped_local" in doc[key]["qos"]
