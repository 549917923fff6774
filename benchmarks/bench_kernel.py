"""Substrate microbenchmarks (performance engineering, per the hpc guides).

Not a paper artifact: these keep the simulator fast enough that the
paper-scale runs above stay interactive.  Timed with pytest-benchmark's
default multi-round statistics (they are microseconds, not minutes).
"""

import numpy as np

from repro.control.base import Measurement
from repro.control.framefeedback import FrameFeedbackController
from repro.netem.link import ConditionBox, Link, LinkConditions
from repro.sim import Environment
from repro.sim.rng import RngRegistry


def _noop(event):
    pass


def test_kernel_event_throughput(benchmark):
    """Schedule + dispatch 10k chained timers (the periodic-loop shape)."""

    def run():
        env = Environment()

        def tick(event):
            if event.value:
                env.call_later(0.001, tick, event.value - 1)

        env.call_later(0.001, tick, 10_000 - 1)
        env.run()
        return env.now

    result = benchmark(run)
    assert result > 9.9


def test_kernel_timer_cancellation(benchmark):
    """20k armed-then-cancelled deadline timers (lazy heap deletion)."""

    def run():
        env = Environment()
        timers = [env.call_later(10.0, _noop) for _ in range(20_000)]
        for t in timers:
            assert t.cancel()
        env.run()
        assert env.now == 0.0  # every entry was dead; the clock never moved
        return len(timers)

    assert benchmark(run) == 20_000


def _offload_round_trip(traced: bool) -> int:
    """2k frames device->link->server->link->device (§II-B hot path).

    ``traced=True`` attaches a :class:`repro.trace.Tracer` and registers
    every frame, so each hop pays the full span-recording cost;
    ``traced=False`` is the production shape, where every hook is a
    single ``env.tracer is None`` check.
    """
    from repro.device.camera import Frame
    from repro.device.offload import OffloadClient
    from repro.server.server import EdgeServer
    from repro.trace import Tracer

    env = Environment()
    tracer = None
    if traced:
        tracer = Tracer()
        env.tracer = tracer
    box = ConditionBox(LinkConditions(bandwidth=10.0, loss=0.0))
    uplink = Link(env, np.random.default_rng(1), box, queue_bytes_cap=1e9)
    downlink = Link(env, np.random.default_rng(2), box, name="downlink",
                    queue_bytes_cap=1e9)
    server = EdgeServer(env, np.random.default_rng(3))
    done = {"ok": 0, "bad": 0}
    client = OffloadClient(
        env,
        uplink=uplink,
        downlink=downlink,
        server=server,
        tenant="bench",
        model_name="mobilenet_v3_small",
        deadline=0.25,
        response_bytes=256,
        on_success=lambda frame, rtt: done.__setitem__("ok", done["ok"] + 1),
        on_timeout=lambda frame, why: done.__setitem__("bad", done["bad"] + 1),
    )

    def frame(event):
        i = event.value
        if tracer is not None:
            tracer.begin_frame("bench", i, env.now, 11_700, "offload")
        client.send(Frame(frame_id=i, captured_at=env.now, nbytes=11_700))
        if i + 1 < 2_000:
            env.call_later(1.0 / 30.0, frame, i + 1)

    env.call_later(0.0, frame, 0)
    env.run()
    if tracer is not None:
        assert len(tracer.frames) == 2_000
    return done["ok"] + done["bad"]


def test_kernel_offload_round_trip(benchmark):
    """The hot path with tracing disabled (the production default)."""
    assert benchmark(_offload_round_trip, False) == 2_000


def test_kernel_offload_round_trip_traced(benchmark):
    """The same path with full span recording, for the overhead delta."""
    assert benchmark(_offload_round_trip, True) == 2_000


def test_tracer_disabled_overhead_within_baseline_gate():
    """ISSUE-5 guard: a disabled tracer must cost <5% on the hot path.

    Fresh tracer-disabled throughput is compared against the committed
    ``BENCH_kernel.json`` "after" number, normalized by the same
    pure-heapq calibration loop the perf-smoke gate uses — so the 5%
    budget tracks the hooks added to the substrate, not machine speed.
    """
    import json
    import pathlib

    import kernel_baseline

    baseline = json.loads(
        (pathlib.Path(__file__).parent.parent / "BENCH_kernel.json").read_text()
    )
    scale = (
        kernel_baseline.calibration_score()
        / float(baseline["calibration_heapq_ops_per_sec"])
    )
    recorded = baseline["benches_events_per_sec"]["offload_round_trip"]
    expected = float(recorded["after"] if isinstance(recorded, dict) else recorded)
    fresh = kernel_baseline.bench_offload_round_trip()
    floor = expected * scale * 0.95
    assert fresh >= floor, (
        f"tracer-disabled offload path regressed >5%: {fresh:,.0f} ev/s "
        f"vs floor {floor:,.0f} (= {expected:,.0f} x {scale:.2f} x 0.95)"
    )


def test_link_frame_throughput(benchmark):
    """Push 2k frames through a lossy link."""

    def run():
        env = Environment()
        box = ConditionBox(LinkConditions(bandwidth=10.0, loss=0.05))
        link = Link(env, np.random.default_rng(0), box, queue_bytes_cap=1e9)
        delivered = []
        for i in range(2_000):
            link.send(11_700, i, lambda p: delivered.append(p))
        env.run()
        return len(delivered)

    assert benchmark(run) > 1_900


def test_controller_step_cost(benchmark):
    """One FrameFeedback update (the per-second hot path on a Pi)."""
    c = FrameFeedbackController(30.0)
    m = Measurement(
        time=0.0,
        frame_rate=30.0,
        offload_target=10.0,
        offload_rate=10.0,
        offload_success_rate=8.0,
        timeout_rate=2.0,
        timeout_rate_last=2.0,
        local_rate=13.0,
        throughput=21.0,
    )
    out = benchmark(lambda: c.update(m))
    assert 0.0 <= out <= 30.0


def test_full_scenario_60s_wall_time(benchmark):
    """A full 60 s closed-loop scenario (the unit of all experiments)."""
    from repro.device.config import DeviceConfig
    from repro.experiments.scenario import Scenario, run_scenario
    from repro.experiments.standard import framefeedback_factory
    from repro.netem.profiles import CONGESTED
    from repro.workloads.schedules import steady_schedule

    scenario = Scenario(
        controller_factory=framefeedback_factory(),
        device=DeviceConfig(total_frames=1800),
        network=steady_schedule(CONGESTED),
        seed=0,
    )
    result = benchmark.pedantic(
        lambda: run_scenario(scenario), rounds=3, iterations=1
    )
    assert result.qos.mean_throughput > 10.0
