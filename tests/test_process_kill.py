"""Crashing the device's measurement/control loop (a controller crash).

The supervision layer's fault primitive.  The loop is a chain of
timers, one tick per measure period; these pin what a kill must
guarantee: the pending tick is *cancelled* (not orphaned — EnvStats
cancel counts stay exact and no tick fires after the kill), a loop
killed in its start instant never ticks, and a restart re-bases the
measurement buckets so the first tick after it covers one period.
"""

from repro.device.config import DeviceConfig
from repro.experiments.scenario import Scenario, build_runtime
from repro.experiments.standard import framefeedback_factory


def runtime():
    rt = build_runtime(
        Scenario(
            controller_factory=framefeedback_factory(),
            device=DeviceConfig(total_frames=600),
            seed=0,
        )
    )
    stats = rt.env.enable_stats()
    return rt, stats


def ticks(rt):
    """Instants at which the measure loop closed a period."""
    return [t for t, _ in rt.device.traces.offload_target]


def test_measure_loop_killed_in_its_start_instant_never_ticks():
    rt, stats = runtime()
    assert rt.device.measure_alive
    rt.device.crash_measure_loop()  # before the start timer fired
    assert not rt.device.measure_alive
    assert stats.events_cancelled == 1
    rt.env.run(until=5.0)
    assert ticks(rt) == []


def test_kill_cancels_pending_sleep_and_counts_it():
    rt, stats = runtime()
    rt.env.run(until=2.5)
    before = stats.events_cancelled
    rt.device.crash_measure_loop()
    assert stats.events_cancelled == before + 1
    assert not rt.device.measure_alive
    rt.device.crash_measure_loop()  # already dead: nothing more to cancel
    assert stats.events_cancelled == before + 1
    rt.env.run(until=10.0)
    assert ticks(rt) == [1.0, 2.0]  # no tick after the kill


def test_kill_mid_run_via_timer():
    """Killing from a call_later timer (the injector idiom) works."""
    rt, _stats = runtime()
    rt.env.call_later(3.5, lambda ev: rt.device.crash_measure_loop())
    rt.env.run(until=10.0)
    assert ticks(rt) == [1.0, 2.0, 3.0]


def test_restart_rebases_the_buckets():
    rt, _stats = runtime()
    device = rt.device
    rt.env.run(until=2.5)
    device.crash_measure_loop()
    rt.env.run(until=6.0)  # frames keep flowing into the open buckets
    assert device.core._bucket_offload_attempts + device.core._bucket_local_done > 30
    device.restart_measure_loop()
    assert device.measure_alive
    assert device.core._bucket_offload_attempts == device.core._bucket_local_done == 0
    device.restart_measure_loop()  # already alive: no second loop
    rt.env.run(until=7.5)
    assert ticks(rt) == [1.0, 2.0, 7.0]
    # the first tick after the restart measured one period, not 4.5 s
    # of downtime counts divided by one period
    (_t, throughput), = device.traces.throughput.slice(6.5, 7.5)
    assert 0.0 < throughput <= device.config.frame_rate + 1.0


def test_a_tick_that_crashes_its_own_loop_stops_it():
    """A crash from inside the loop's own tick (here through the
    supervision hook) leaves no next tick armed."""
    rt, _stats = runtime()
    device = rt.device

    def crash_at_the_second_tick(measurement):
        if rt.env.now >= 2.0:
            device.crash_measure_loop()

    device.on_measure_tick = crash_at_the_second_tick
    rt.env.run(until=10.0)
    assert not device.measure_alive
    assert ticks(rt) == [1.0, 2.0]
