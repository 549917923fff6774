"""Extension bench: fleet scaling — how many devices can one server carry?

§II-A.1 motivates multi-tenancy ("a single device's video stream may
under-utilize modern hardware"); this bench sweeps fleet size and
reports per-device and aggregate throughput, GPU utilization, and
Jain fairness — the capacity-planning curve a deployment would need.
"""

from repro.control.framefeedback import FrameFeedbackController
from repro.experiments.report import ascii_table
from repro.experiments.scenario import Scenario, homogeneous_fleet, run_scenario

FLEET_SIZES = (1, 2, 4, 8, 12)


def _sweep(total_frames=900, seed=0):
    out = {}
    for n in FLEET_SIZES:
        scenario = Scenario(
            members=homogeneous_fleet(n, total_frames=total_frames),
            controller_factory=lambda c: FrameFeedbackController(c.frame_rate),
            seed=seed,
        )
        out[n] = run_scenario(scenario)
    return out


def _failover_sweep(total_frames=900, seed=0):
    """One device per server-pool size, with a mid-run kill of edge0."""
    from repro.experiments.chaos import run_chaos
    from repro.fleet.chaos import fleet_chaos_scenario

    out = {}
    for n in (2, 3, 4):
        servers = tuple(f"edge{i}" for i in range(n))
        chaos = fleet_chaos_scenario(
            seed=seed,
            total_frames=total_frames,
            servers=servers,
            kill=("edge0", 8.34, 10.0),
        )
        out[n] = run_chaos(chaos)
    return out


def test_fleet_failover(benchmark, emit):
    """Kill/failover microbench: rescue cost across pool sizes.

    The ejection must never leak frames (accounting stays closed) and
    the surviving members must absorb the killed member's share.
    """
    results = benchmark.pedantic(_failover_sweep, rounds=1, iterations=1)

    rows = []
    for n, result in results.items():
        qos = result.run.qos
        ex = qos.extras
        rows.append(
            [
                n,
                f"{qos.successful:5d}/{qos.total_frames}",
                f"{ex.get('fleet.failovers', 0.0):4.0f}",
                f"{ex.get('fleet.crash_drops', 0.0):4.0f}",
                f"{qos.timeouts:4d}",
                f"{ex.get('fleet.mttr_mean', 0.0):6.2f}",
            ]
        )
    emit(
        "Fleet failover (kill edge0 @8.34s for 10s, one device):\n"
        + ascii_table(
            ["servers", "ok/total", "failover", "crash_drop", "timeouts", "MTTR"],
            rows,
        )
    )

    for n, result in results.items():
        qos = result.run.qos
        ex = qos.extras
        # accounting closed: every frame settles exactly once
        assert qos.successful + qos.timeouts + qos.dropped_local == qos.total_frames
        assert ex.get("fleet.outstanding") == 0.0
        # the kill is detected: edge0 is ejected and later re-admitted
        assert ex.get("fleet.edge0.ejections") == 1.0
        assert ex.get("fleet.mttr_count") == 1.0


def test_fleet_scaling(benchmark, emit):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    rows = []
    for n, result in results.items():
        tp = list(result.throughputs().values())
        rows.append(
            [
                n,
                f"{sum(tp):7.1f}",
                f"{sum(tp) / n:6.2f}",
                f"{min(tp):6.2f}",
                f"{result.gpu_utilization:5.2f}",
                f"{result.mean_batch_size:5.1f}",
                f"{result.jain_fairness():5.3f}",
            ]
        )
    emit(
        "Fleet scaling (FrameFeedback on every device, ideal radios):\n"
        + ascii_table(
            ["devices", "aggregate P", "per-device", "min", "GPU util", "batch", "Jain"],
            rows,
        )
    )

    # §II-A.1: a single tenant fragments the GPU into tiny batches;
    # multi-tenancy amortizes the launch overhead into full ones
    assert results[1].mean_batch_size < 3.0
    assert results[12].mean_batch_size > 8.0
    assert results[12].gpu_utilization > results[1].gpu_utilization
    # aggregate throughput grows monotonically with fleet size
    aggregates = [sum(results[n].throughputs().values()) for n in FLEET_SIZES]
    assert all(b > a for a, b in zip(aggregates, aggregates[1:]))
    # nobody ever starves below the local floor
    for result in results.values():
        assert min(result.throughputs().values()) > 11.0
