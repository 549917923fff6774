#!/usr/bin/env python
"""Capacity planning: how many cameras can one edge server carry?

A deployment question the paper's §II-A.1 multi-tenancy argument begs:
given the GPU batch model and per-device FrameFeedback control, where
does adding devices stop paying?  This example sweeps fleet size,
charts aggregate vs per-device throughput, and finds the knee.

Run:  python examples/capacity_planning.py   (~20 s)
"""

from repro.control.framefeedback import FrameFeedbackController
from repro.experiments.report import ascii_table
from repro.experiments.scenario import Scenario, homogeneous_fleet, run_scenario
from repro.metrics.timeseries import TimeSeries
from repro.viz import line_chart

FLEET_SIZES = (1, 2, 3, 4, 6, 8, 10, 12, 16)


def main() -> None:
    aggregate = TimeSeries("aggregate")
    per_device = TimeSeries("per-device x10")
    rows = []
    for n in FLEET_SIZES:
        result = run_scenario(
            Scenario(
                members=homogeneous_fleet(n, total_frames=900),
                controller_factory=lambda c: FrameFeedbackController(c.frame_rate),
                seed=0,
            )
        )
        throughputs = result.throughputs()
        total = sum(throughputs.values())
        aggregate.append(float(n), total)
        per_device.append(float(n), 10.0 * total / n)  # scaled onto one axis
        rows.append(
            [
                n,
                f"{total:7.1f}",
                f"{total / n:6.2f}",
                f"{min(throughputs.values()):6.2f}",
                f"{result.gpu_utilization:5.2f}",
                f"{result.mean_batch_size:5.1f}",
            ]
        )

    print(
        ascii_table(
            ["devices", "aggregate P", "per-device", "min device", "GPU util", "mean batch"],
            rows,
        )
    )
    print()
    print(
        line_chart(
            {"aggregate P (fps)": aggregate, "per-device P x10": per_device},
            width=64,
            height=12,
            title="Fleet scaling (x axis: fleet size 1..16)",
        )
    )

    # the knee: the largest fleet whose per-device throughput is still
    # within 10% of the single-device figure
    solo = rows[0]
    knee = max(
        n
        for n, row in zip(FLEET_SIZES, rows)
        if float(row[2]) > 0.9 * float(solo[2])
    )
    print(
        f"\nplanning answer: up to ~{knee} devices per server before "
        f"per-device throughput drops >10% below the single-tenant figure; "
        f"past that, every added camera costs the rest, but FrameFeedback "
        f"keeps even a 16-camera fleet above the local-only floor."
    )


if __name__ == "__main__":
    main()
