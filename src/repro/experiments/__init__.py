"""Experiment harness: one entry point per paper table/figure.

Wiring lives in :mod:`repro.experiments.scenario`; each ``figN.py`` /
``tableN.py`` module builds the paper's exact configuration and
returns structured results; :mod:`repro.experiments.report` formats
them as the rows/series the paper prints.
"""

from repro.experiments.chaos import (
    ChaosResult,
    ChaosScenario,
    SupervisionChaosResult,
    default_chaos_injectors,
    run_chaos,
    run_supervision_chaos,
    supervision_chaos_injectors,
)
from repro.experiments.parallel import run_many
from repro.experiments.scenario import (
    FleetMember,
    RunResult,
    Scenario,
    ScenarioContext,
    ScenarioRuntime,
    build_runtime,
    run_scenario,
)
from repro.experiments.seeds import compare_across_seeds, run_across_seeds, win_rate
from repro.experiments.standard import extended_controllers, standard_controllers
from repro.experiments.validation import validate_all

__all__ = [
    "ChaosResult",
    "ChaosScenario",
    "FleetMember",
    "RunResult",
    "Scenario",
    "ScenarioContext",
    "ScenarioRuntime",
    "SupervisionChaosResult",
    "build_runtime",
    "compare_across_seeds",
    "default_chaos_injectors",
    "extended_controllers",
    "run_across_seeds",
    "run_chaos",
    "run_many",
    "run_scenario",
    "run_supervision_chaos",
    "standard_controllers",
    "supervision_chaos_injectors",
    "validate_all",
    "win_rate",
]
