"""Post-processing: stability, queueing theory, statistics."""

from repro.analysis.queueing import md1_wait, mg1_wait, mm1_wait, utilization
from repro.analysis.significance import effect_size, paired_permutation_test
from repro.analysis.stability import (
    StabilityReport,
    oscillation_index,
    overshoot,
    settling_time,
    stability_report,
)

__all__ = [
    "StabilityReport",
    "effect_size",
    "md1_wait",
    "mg1_wait",
    "mm1_wait",
    "oscillation_index",
    "overshoot",
    "paired_permutation_test",
    "settling_time",
    "stability_report",
    "utilization",
]
