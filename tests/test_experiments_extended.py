"""Integration tests for the extension controllers in full scenarios.

The whole-lineup findings (regret, the reservation blind spot) are
claims in ``repro.experiments.validation``; the last two tests check
that those claims held in the session's ``validated`` run."""

import pytest

from repro.device.config import DeviceConfig
from repro.experiments.scenario import Scenario, run_scenario
from repro.experiments.standard import (
    aimd_factory,
    oracle_factory,
    reservation_factory,
)
from repro.netem.profiles import CONGESTED, IDEAL
from repro.workloads.schedules import steady_schedule, table_vi_schedule


def run(factory, network=None, load=None, seconds=40, seed=0):
    device = DeviceConfig(total_frames=int(seconds * 30))
    return run_scenario(
        Scenario(
            controller_factory=factory,
            device=device,
            network=network,
            load=load,
            seed=seed,
        )
    )


def test_aimd_tracks_capacity_roughly():
    r = run(aimd_factory(), network=steady_schedule(CONGESTED), seconds=60)
    # ends up near the link's ~13 fps capacity region (sawtooth around it)
    tail = r.traces.offload_target.values[-20:]
    assert 6.0 < tail.mean() < 18.0


def test_oracle_saturates_ideal_link():
    r = run(oracle_factory(), network=steady_schedule(IDEAL), seconds=30)
    assert r.qos.mean_throughput > 26.0
    assert r.qos.timeouts < 30


def test_oracle_partial_on_congested_link():
    r = run(oracle_factory(), network=steady_schedule(CONGESTED), seconds=40)
    # near-zero violations: the oracle never tests the cliff
    assert r.qos.mean_violation_rate < 1.0
    assert r.qos.mean_throughput > 20.0


def test_reservation_matches_grant_on_ideal_network():
    r = run(reservation_factory(), network=steady_schedule(IDEAL), seconds=30)
    assert r.qos.mean_throughput > 26.0


def test_reservation_blind_to_network_degradation():
    """The §V-B critique: reservations know server load, not the
    client's network — on a congested link the grant floods the path."""
    r = run(reservation_factory(), network=steady_schedule(CONGESTED), seconds=40)
    assert r.qos.mean_throughput < 10.0  # below even local-only
    assert r.qos.mean_violation_rate > 5.0


def test_reservation_sheds_load_under_table_vi():
    r = run(reservation_factory(), load=table_vi_schedule(), seconds=110)
    # during the 150 req/s peak the grant drops to ~0 -> local floor
    peak = r.traces.throughput.mean_over(52.0, 60.0)
    assert peak == pytest.approx(13.0, abs=3.0)
    # unloaded phases: full offload granted
    assert r.traces.throughput.mean_over(3.0, 10.0) > 24.0


def test_extended_lineup_fig3_oracle_bounds_framefeedback(claim):
    claim("regret")
    claim("lineup")


def test_extended_lineup_fig4_reservation_competitive_under_load(claim):
    claim("reservation-blind-spot")
