"""Result export.

:mod:`repro.io.export` dumps a :class:`~repro.experiments.scenario
.RunResult` (traces, QoS, attribution) to CSV/JSON artifacts a notebook
or gnuplot can consume, and loads traces back.  Scenarios are written
in the scenario language (:mod:`repro.search.language`).
"""

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
    "timeseries_to_csv",
]
