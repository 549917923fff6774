"""Result export and scenario serialization.

* :mod:`repro.io.export` — dump a :class:`~repro.experiments.scenario
  .RunResult` (traces, QoS, attribution) to CSV/JSON artifacts a
  notebook or gnuplot can consume, and load traces back;
* :mod:`repro.io.config` — serialize a :class:`Scenario` to a plain
  dict / JSON file and rebuild it, so experiment configurations are
  shareable artifacts (used by ``framefeedback run --config``).
"""

from repro.io.config import scenario_from_dict, scenario_to_dict
from repro.io.export import (
    export_run,
    load_timeseries_csv,
    qos_to_dict,
    timeseries_to_csv,
)

__all__ = [
    "export_run",
    "load_timeseries_csv",
    "qos_to_dict",
    "scenario_from_dict",
    "scenario_to_dict",
    "timeseries_to_csv",
]
