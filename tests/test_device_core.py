"""The clock-free device core, driven from scripted frames and ``now``s.

No ``Environment`` and no event loop: each test hands the core its
frames (stamped with their capture time), reports the engines'
outcomes back and closes buckets at a given ``now`` — the same calls
the simulator's ``EdgeDevice`` and the asyncio ``AsyncRealTimeLoop``
make from their timers.
"""

import numpy as np
import pytest

from repro.control.base import Controller
from repro.device.camera import Frame
from repro.device.config import DeviceConfig
from repro.device.core import DeviceCore
from repro.metrics.taxonomy import FailureKind
from repro.resilience.config import ResilienceConfig
from repro.resilience.layer import ResilienceLayer


class PinController(Controller):
    """Offload everything, forever (makes routing deterministic)."""

    name = "pin"

    def initial_target(self, frame_rate: float) -> float:
        return frame_rate

    def update(self, measurement) -> float:
        self.last = measurement
        return measurement.frame_rate


class HalfController(PinController):
    """Offloads half the frames; asks for a heartbeat every period."""

    wants_probe = True

    def initial_target(self, frame_rate: float) -> float:
        return frame_rate / 2

    def update(self, measurement) -> float:
        self.last = measurement
        return measurement.frame_rate / 2


class FleetStub:
    """The router seam: is any server routable?"""

    def __init__(self) -> None:
        self.up = True

    def available(self) -> bool:
        return self.up


class Harness:
    """A core whose send/offer actions record what they were given."""

    def __init__(self, controller=None, frame_rate=10.0, measure_period=1.0,
                 resilience=None, router=None, local_free=True):
        self.sent = []
        self.offered = []
        self.local_free = local_free
        self.core = DeviceCore(
            DeviceConfig(frame_rate=frame_rate, measure_period=measure_period),
            controller or PinController(),
            send=self.sent.append,
            offer=self.offer,
            resilience=resilience,
            router=router,
        )

    def offer(self, frame):
        if not self.local_free:
            return False
        self.offered.append(frame)
        return True

    def frames(self, n, t0=0.0, period=0.1):
        for i in range(n):
            self.core.on_frame(Frame(i, t0 + i * period, 1000))


def tripped_layer(**overrides):
    layer = ResilienceLayer(ResilienceConfig(trip_threshold=1, **overrides))
    layer.settle(0.0, FailureKind.SILENT_TIMEOUT)
    assert layer.breaker.is_open
    return layer


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
def test_splitter_routes_at_the_target_rate():
    h = Harness(HalfController())
    h.frames(10)
    assert [f.frame_id for f in h.sent] == [1, 3, 5, 7, 9]
    assert [f.frame_id for f in h.offered] == [0, 2, 4, 6, 8]
    assert h.core.frames_seen == 10


def test_open_breaker_routes_every_frame_local():
    layer = tripped_layer()
    h = Harness(resilience=layer)
    h.frames(4)
    assert h.sent == [] and len(h.offered) == 4
    counts = layer.taxonomy.as_dict()
    assert counts[FailureKind.BREAKER_FALLBACK.value] == 4
    assert counts[FailureKind.BREAKER_FALLBACK_DROPPED.value] == 0


def test_fallback_with_a_busy_local_engine_is_a_counted_skip():
    layer = tripped_layer()
    h = Harness(resilience=layer, local_free=False)
    h.frames(3)
    assert h.core.local_skips == 3
    assert layer.taxonomy.as_dict()[FailureKind.BREAKER_FALLBACK_DROPPED.value] == 3
    h.core.check_accounting(in_flight=0)


def test_fleet_brownout_routes_local_until_a_server_returns():
    fleet = FleetStub()
    h = Harness(router=fleet)
    fleet.up = False
    h.frames(3)
    assert h.sent == [] and len(h.offered) == 3
    fleet.up = True
    h.frames(2, t0=1.0)
    assert len(h.sent) == 2


def test_local_routed_skip_records_no_fallback():
    layer = ResilienceLayer(ResilienceConfig())
    h = Harness(HalfController(), resilience=layer, local_free=False)
    h.frames(4)
    assert h.core.local_skips == 2
    assert layer.taxonomy.as_dict()[FailureKind.BREAKER_FALLBACK_DROPPED.value] == 0


# ----------------------------------------------------------------------
# outcomes (moved from the asyncio loop's tests)
# ----------------------------------------------------------------------
def test_remote_wiring_routes_outcomes():
    h = Harness(local_free=True)
    h.frames(4)
    c = h.core
    a, b, d, e = h.sent
    c.on_offload_success(a, 0.05)
    c.on_fallback(b)  # saved on the local pipeline, NOT a timeout
    c.on_local_complete(b, 0.03)
    c.on_offload_timeout(d, "timeout")
    c.on_offload_timeout(e, "overloaded")
    # completed -> success; fallback -> local; timeout/overloaded ->
    # timeouts the controller will see
    assert c.offload_successes == 1
    assert c.local_successes == 1
    assert c.timeouts == 2
    assert c.local_skips == 0
    c.check_accounting(in_flight=0)


def test_remote_fallback_dropped_when_local_busy():
    layer = ResilienceLayer(ResilienceConfig())
    h = Harness(resilience=layer, local_free=False)  # local engine mid-frame
    h.frames(1)
    h.core.on_fallback(h.sent[0])
    assert h.core.local_skips == 1
    assert h.core.local_successes == 0
    assert layer.taxonomy.as_dict()[FailureKind.BREAKER_FALLBACK_DROPPED.value] == 1
    h.core.check_accounting(in_flight=0)


def test_measure_step_accounting_and_reset():
    h = Harness(frame_rate=10.0, measure_period=2.0)
    c = h.core
    h.frames(8)  # PinController: all 8 go out
    for frame in h.sent[:6]:
        c.on_offload_success(frame, 0.05)
    for frame in h.sent[6:]:
        c.on_offload_timeout(frame, "timeout")
    for i in range(4):
        c.on_local_complete(Frame(100 + i, 1.0, 0), 0.03)
    m = c.measure(2.0, 0.0)
    # rates are per-second over the period; throughput counts both paths
    assert m.throughput == pytest.approx((6 + 4) / 2.0)
    assert m.timeout_rate_last == pytest.approx(2 / 2.0)
    assert c.traces.offload_target.values.tolist() == [10.0]  # held at P
    # the bucket closed and every counter reset for the next period
    m = c.measure(4.0, 0.0)
    assert (m.offload_rate, m.offload_success_rate, m.local_rate,
            m.timeout_rate_last) == (0.0, 0.0, 0.0, 0.0)


def test_accounting_check_names_the_open_book():
    h = Harness()
    h.frames(3)
    h.core.on_offload_success(h.sent[0], 0.05)
    h.core.check_accounting(in_flight=2)
    with pytest.raises(RuntimeError, match="3 frames captured, but 1 settled"):
        h.core.check_accounting(in_flight=1)
    h.core.check_accounting(in_flight=1, aborted=1)


# ----------------------------------------------------------------------
# the measure step
# ----------------------------------------------------------------------
def test_every_measurement_field_after_a_bucket_closes():
    layer = ResilienceLayer(ResilienceConfig())
    controller = HalfController()
    h = Harness(controller, frame_rate=10.0, measure_period=2.0, resilience=layer)
    c = h.core
    h.frames(8)
    rtts = [0.04, 0.08, 0.12]
    for frame, rtt in zip(h.sent, rtts):
        c.on_offload_success(frame, rtt)
    c.on_offload_timeout(h.sent[3], "deadline")
    for frame in h.offered[:2]:
        c.on_local_complete(frame, 0.07)
    layer.record(FailureKind.OVERLOADED, 2)
    layer.record(FailureKind.RETRY_SENT, 4)
    c.on_probe_result(True)
    m = c.measure(2.0, 0.6)
    assert controller.last is m
    assert m.time == 2.0
    assert m.frame_rate == 10.0
    assert m.offload_target == 5.0
    assert m.offload_rate == 2.0  # 4 sent / 2 s
    assert m.offload_success_rate == 1.5
    assert m.timeout_rate == 0.5  # one closed bucket in the window
    assert m.timeout_rate_last == 0.5
    assert m.local_rate == 1.0
    assert m.throughput == 2.5
    assert m.probe_ok is True
    assert m.rtt_mean == pytest.approx(0.08)
    assert m.rtt_p95 == pytest.approx(float(np.percentile(rtts, 95)))
    assert m.overload_rate == 1.0
    assert m.retry_rate == 2.0
    assert m.breaker_open == 0.0
    tr = c.traces
    assert tr.throughput.values.tolist() == [2.5]
    assert tr.timeout_window.values.tolist() == [0.5]
    assert tr.cpu_utilization.values[0] == pytest.approx(
        c.energy_model.utilization(0.3, 2.0)
    )


def test_inadmissible_window_holds_the_target():
    controller = HalfController()
    h = Harness(controller)
    c = h.core
    assert c.measure(1.0, 0.0) is not None
    c.splitter.set_target(7.0)
    updates = controller.last
    assert c.measure(1.0, 0.0) is None  # a duplicate timestamp
    assert controller.last is updates  # the controller never saw it
    assert c.splitter.target == 7.0
    assert c.traces.offload_target.values.tolist() == [5.0, 7.0]
    assert c.input_guard.degraded_counts() == {"duplicate": 1}


def test_open_breaker_parks_the_target_and_freezes_the_controller():
    layer = tripped_layer(open_target_frac=0.2)
    controller = HalfController()
    h = Harness(controller, resilience=layer)
    assert h.core.park_target == pytest.approx(2.0)
    m = h.core.measure(1.0, 0.0)
    assert m is not None and not hasattr(controller, "last")
    assert h.core.splitter.target == pytest.approx(2.0)
    assert h.core.traces.breaker_state.values.tolist() == [1.0]


def test_brownout_parks_at_a_tenth_of_the_frame_rate():
    fleet = FleetStub()
    fleet.up = False
    h = Harness(HalfController(), router=fleet)
    h.core.measure(1.0, 0.0)
    assert h.core.splitter.target == pytest.approx(1.0)
    fleet.up = True
    h.core.measure(2.0, 0.0)
    assert h.core.splitter.target == pytest.approx(5.0)


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
def test_wants_probe_requests_a_heartbeat_unless_the_path_is_down():
    assert not Harness(PinController()).core.probe_due()
    fleet = FleetStub()
    h = Harness(HalfController(), router=fleet)
    assert h.core.probe_due()
    fleet.up = False
    assert not h.core.probe_due()


def test_heartbeat_outcome_rides_every_measurement_until_rebase():
    h = Harness(HalfController())
    c = h.core
    assert c.measure(1.0, 0.0).probe_ok is None
    c.on_probe_result(False)
    assert c.measure(2.0, 0.0).probe_ok is False
    assert c.measure(3.0, 0.0).probe_ok is False
    c.rebase(0.0)
    assert c.measure(4.0, 0.0).probe_ok is None


def test_breaker_trial_only_while_not_closed():
    layer = tripped_layer()
    c = Harness(resilience=layer).core
    assert c.start_trial(0.5)
    assert layer.breaker.probe_times == [0.5]
    layer.settle(0.6, None, trial=True)
    assert layer.breaker.is_closed
    assert not c.start_trial(1.0)
