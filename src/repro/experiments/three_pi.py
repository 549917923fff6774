"""The paper's literal data-collection setup: three concurrent Pis.

§IV-A: "For the collection of the data shown in Figures 2, 3 and 4,
we use the three Raspberry-Pi's concurrently sending streaming
requests to our edge server and evaluated their total inference
throughput."

The headline figures in this repository use a single measured device
(matching the figures' 0–30 fps axis); this module runs the literal
three-device configuration — the three Table II Pis, each with its own
shaped link and its own controller instance, sharing the GPU — and
reports both per-device and fleet-total throughput, so either reading
of the paper's sentence is covered.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.device.config import DeviceConfig
from repro.experiments.scenario import FleetMember, RunResult, Scenario, run_scenario
from repro.models.device_profiles import PI_3B_1_2, PI_4B_1_2, PI_4B_1_4
from repro.netem.schedule import NetworkSchedule
from repro.workloads.loadgen import LoadSchedule
from repro.workloads.schedules import table_v_schedule


def three_pi_members(
    total_frames: int = 4000,
    network: Optional[Callable[[], NetworkSchedule]] = None,
) -> list:
    """The three Table II devices, MobileNetV3Small each (§IV-A)."""
    profiles = {
        "pi3b": PI_3B_1_2,
        "pi4b-r12": PI_4B_1_2,
        "pi4b-r14": PI_4B_1_4,
    }
    members = []
    for name, profile in profiles.items():
        members.append(
            FleetMember(
                config=DeviceConfig(
                    name=name, profile=profile, total_frames=total_frames
                ),
                # each device's radio is shaped identically but
                # independently (three NetEm instances, like three Pis
                # on one AP), so impairments are correlated in time
                # only through the shared schedule
                network=network() if network is not None else None,
            )
        )
    return members


def run_three_pi(
    controller_factory,
    total_frames: int = 4000,
    use_table_v: bool = True,
    load: Optional[LoadSchedule] = None,
    seed: int = 0,
) -> RunResult:
    """Run the three-Pi configuration under Table V and/or load.

    ``result.throughputs()`` gives each Pi's throughput; their sum is
    the fleet total.
    """
    scenario = Scenario(
        members=three_pi_members(
            total_frames,
            network=table_v_schedule if use_table_v else None,
        ),
        controller_factory=controller_factory,
        load=load,
        seed=seed,
    )
    return run_scenario(scenario)
