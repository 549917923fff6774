"""Unit tests for stability metrics."""

import numpy as np
import pytest

from repro.analysis import (
    oscillation_index,
    overshoot,
    settling_time,
    stability_report,
)
from repro.analysis.stability import direction_changes


# ----------------------------------------------------------------------
# stability metrics
# ----------------------------------------------------------------------
def test_oscillation_zero_for_constant_and_short():
    assert oscillation_index(np.full(10, 5.0)) == 0.0
    assert oscillation_index(np.array([1.0, 2.0])) == 0.0


def test_oscillation_high_for_alternating_signal():
    v = np.array([0.0, 1.0] * 20)
    assert oscillation_index(v) > 0.9


def test_oscillation_low_for_smooth_ramp():
    v = np.linspace(0, 10, 50)
    assert oscillation_index(v) < 0.05


def test_direction_changes_counts_reversals():
    assert direction_changes(np.array([0, 1, 0, 1, 0.0])) == 3
    assert direction_changes(np.linspace(0, 1, 10)) == 0
    assert direction_changes(np.array([1.0])) == 0


def test_overshoot_measures_peak_excursion():
    v = np.array([0.0, 15.0, 10.0, 10.0])
    assert overshoot(v, 10.0) == pytest.approx(0.5)
    assert overshoot(np.array([5.0, 9.0]), 10.0) == 0.0


def test_settling_time_finds_entry_into_band():
    t = np.arange(10, dtype=float)
    v = np.array([0, 2, 5, 8, 9.5, 10.1, 9.9, 10.0, 10.0, 10.0], dtype=float)
    assert settling_time(t, v, 10.0, band=0.10) == pytest.approx(4.0)


def test_settling_time_inf_when_never_settles():
    t = np.arange(4, dtype=float)
    v = np.array([0.0, 20.0, 0.0, 20.0])
    assert settling_time(t, v, 10.0, band=0.10) == float("inf")


def test_settling_time_immediate_when_always_inside():
    t = np.arange(5, dtype=float)
    v = np.full(5, 10.0)
    assert settling_time(t, v, 10.0) == 0.0


def test_settling_time_shape_mismatch():
    with pytest.raises(ValueError):
        settling_time(np.arange(3), np.arange(4), 1.0)


def test_stability_report_rollup():
    t = np.arange(20, dtype=float)
    v = np.concatenate([np.linspace(0, 10, 10), np.full(10, 10.0)])
    rep = stability_report(t, v)
    assert rep.mean == pytest.approx(v.mean())
    assert rep.overshoot == pytest.approx(0.0, abs=0.01)
    assert rep.settling_time < 20


def test_stability_report_empty_trace():
    rep = stability_report(np.array([]), np.array([]))
    assert rep.settling_time == float("inf")
