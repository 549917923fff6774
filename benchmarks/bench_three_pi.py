"""§IV-A fidelity bench: the three-Pi concurrent configuration.

Runs the paper's literal data-collection setup (Table II's three Pis,
MobileNetV3Small each, independent shaped links, one shared server)
under the Table V schedule, for FrameFeedback and the baselines, and
reports per-device + total throughput.
"""

from repro.control.framefeedback import FrameFeedbackController
from repro.experiments.report import ascii_table
from repro.experiments.standard import standard_controllers
from repro.experiments.three_pi import run_three_pi


def test_three_pi_table_v(benchmark, emit):
    def sweep():
        return {
            name: run_three_pi(factory, total_frames=4000, seed=0)
            for name, factory in standard_controllers().items()
        }

    runs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    per_device = {name: run.throughputs() for name, run in runs.items()}
    total = {name: sum(tp.values()) for name, tp in per_device.items()}

    device_names = list(next(iter(per_device.values())))
    rows = [
        [
            name,
            *(f"{tp[d]:6.2f}" for d in device_names),
            f"{total[name]:7.2f}",
        ]
        for name, tp in per_device.items()
    ]
    emit(
        "Three concurrent Pis (Table II hardware) under Table V:\n"
        + ascii_table(["controller", *device_names, "total"], rows)
    )

    # the ordering of Fig 3 survives the three-tenant configuration
    assert total["FrameFeedback"] > total["AllOrNothing"]
    assert total["FrameFeedback"] > total["AlwaysOffload"]
    assert total["FrameFeedback"] > total["LocalOnly"]
    # slower local hardware leans harder on offloading but still keeps
    # its own floor: the 3B (P_l = 5.5) stays above it
    assert per_device["FrameFeedback"]["pi3b"] > 5.0
    # local-only exposes the Table II spread (5.5 / 13 / 13.4)
    local = per_device["LocalOnly"]
    assert local["pi3b"] < local["pi4b-r12"] <= local["pi4b-r14"] + 0.5
