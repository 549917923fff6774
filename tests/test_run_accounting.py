"""Every run closes its books: ``ScenarioRuntime.collect()`` checks, per
device, that captured frames = successes + timeouts + local drops +
reboot-aborted frames + frames still in flight at the horizon."""

import pytest

from repro.control.framefeedback import FrameFeedbackController
from repro.device.config import DeviceConfig
from repro.experiments.scenario import Scenario, build_runtime, homogeneous_fleet
from repro.experiments.standard import standard_controllers
from repro.faults.process import DeviceReboot
from repro.faults.windows import FaultTimeline


def ff_factory(config):
    return FrameFeedbackController(config.frame_rate)


def _probing_runtime():
    """AllOrNothing sends one heartbeat probe per control period."""
    return build_runtime(
        Scenario(
            controller_factory=standard_controllers()["AllOrNothing"],
            device=DeviceConfig(total_frames=900),
        )
    )


def test_frames_in_flight_at_the_horizon_are_counted():
    """A horizon that cuts the stream leaves frames in flight, and the
    books still close because they are read from live state."""
    runtime = build_runtime(
        Scenario(
            members=homogeneous_fleet(2, total_frames=900),
            controller_factory=ff_factory,
        )
    )
    result = runtime.run(until=10.01)
    in_flight = {
        m.device.config.name: m.device.offload.frames_in_flight
        + m.device.local.frames_in_flight
        for m in runtime.members
    }
    assert sum(in_flight.values()) > 0
    for name, qos in result.devices.items():
        settled = qos.successful + qos.timeouts + qos.dropped_local
        assert qos.total_frames == settled + in_flight[name]


def test_local_pipeline_counts_its_pending_frame():
    runtime = build_runtime(
        Scenario(
            controller_factory=standard_controllers()["LocalOnly"],
            device=DeviceConfig(total_frames=900),
        )
    )
    runtime.run(until=10.01)  # P_l < F_s: one in service, one held
    assert runtime.device.local.frames_in_flight == 2


def test_probes_in_flight_are_not_frames():
    runtime = _probing_runtime()
    runtime.run(until=10.01)  # the t = 10 probe is still on the wire
    offload = runtime.device.offload
    assert offload.outstanding_count > offload.frames_in_flight


def test_reboot_aborts_count_frames_not_probes():
    runtime = _probing_runtime()
    reboot = DeviceReboot(FaultTimeline.from_rows([(10.01, 2.0)]))
    reboot.install(runtime.env, runtime.fault_targets())
    runtime.run()
    assert runtime.device.offload.aborted > 0


def test_collect_raises_when_accounting_does_not_close():
    runtime = build_runtime(
        Scenario(
            members=homogeneous_fleet(2, total_frames=60),
            controller_factory=ff_factory,
        )
    )
    runtime.env.run(until=4.0)
    runtime.collect(4.0)
    runtime.members[1].device.core.frames_seen += 1
    with pytest.raises(RuntimeError, match="pi1"):
        runtime.collect(4.0)


def test_server_books_close_through_a_crash_mid_batch_and_a_lost_request_raises():
    """collect() also checks each server: a crash mid-batch counts the
    batch on the GPU as dropped, and a request that vanishes raises."""
    runtime = build_runtime(
        Scenario(controller_factory=ff_factory, device=DeviceConfig(total_frames=600))
    )
    server = runtime.server
    runtime.env.run(until=5.0)
    while not server.gpu.busy:
        runtime.env.step()
    assert server.crash() > 0
    runtime.env.run(until=7.0)
    server.restart()
    runtime.env.run(until=10.0)
    runtime.collect(10.0)
    server.gpu._received += 1  # a request neither answered nor held
    with pytest.raises(RuntimeError, match="edge-server"):
        runtime.collect(10.0)
