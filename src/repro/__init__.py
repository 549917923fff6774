"""FrameFeedback: closed-loop control for dynamic offloading of
real-time edge inference — a full reproduction of the IPPS 2024 paper.

Public API tour
---------------
Controllers (the paper's contribution, §III)::

    from repro import FrameFeedbackController, FrameFeedbackSettings

Baselines (§IV-B)::

    from repro import (
        LocalOnlyController, AlwaysOffloadController, AllOrNothingController,
    )

Running the paper's testbed (§IV)::

    from repro import Scenario, run_scenario, DeviceConfig
    from repro.workloads.schedules import table_v_schedule

    scenario = Scenario(
        controller_factory=lambda cfg: FrameFeedbackController(cfg.frame_rate),
        device=DeviceConfig(total_frames=4000),
        network=table_v_schedule(),
    )
    result = run_scenario(scenario)
    print(result.qos.row())

Experiments (one per paper table/figure) live in
:mod:`repro.experiments`; substrates (DES kernel, NetEm-style link,
GPU server, device pipelines) under :mod:`repro.sim`,
:mod:`repro.netem`, :mod:`repro.server` and :mod:`repro.device`.

Every name above is imported on first use, so ``import repro`` (or any
one submodule, such as the wall-clock gateway) loads nothing else.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.control.base": ("Controller", "Measurement"),
        "repro.control.baselines": (
            "AllOrNothingController", "AlwaysOffloadController", "LocalOnlyController",
        ),
        "repro.control.framefeedback": (
            "PAPER_SETTINGS", "FrameFeedbackController", "FrameFeedbackSettings",
        ),
        "repro.device.config": ("DeviceConfig",),
        "repro.experiments.scenario": ("RunResult", "Scenario", "run_scenario"),
        "repro.netem.link": ("LinkConditions",),
        "repro.netem.schedule": ("NetworkSchedule",),
        "repro.workloads.loadgen": ("LoadSchedule",),
    },
)
__all__ = __all__ + ["__version__"]
