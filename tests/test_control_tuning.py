"""Tests for the §III-B automated tuning procedure."""

import numpy as np
import pytest

from repro.analysis.stability import StabilityReport
from repro.control.framefeedback import FrameFeedbackSettings
from repro.control.tuning import GainSweepResult, sweep_gains, tune_ziegler_nichols_like


def synthetic_run_factory():
    """A cheap synthetic plant: instability grows with Kp, shrinks with Kd.

    Lets the tuner's search logic be tested without full simulations
    (the simulation-backed version runs in examples/ and in the
    ``gain-grid`` claim of ``framefeedback validate``).
    """

    def run(settings: FrameFeedbackSettings):
        t = np.arange(60.0)
        swing = max(0.0, 8.0 * settings.kp - 6.0 * settings.kd)
        rng = np.random.default_rng(0)
        v = 15.0 + swing * np.sin(t) + rng.normal(0, 0.1, t.size)
        return t, v

    return run


def test_sweep_covers_full_grid():
    results = sweep_gains(synthetic_run_factory(), [0.1, 0.2], [0.0, 0.26])
    assert len(results) == 4
    assert {(r.kp, r.kd) for r in results} == {
        (0.1, 0.0),
        (0.1, 0.26),
        (0.2, 0.0),
        (0.2, 0.26),
    }
    assert all(isinstance(r.report, StabilityReport) for r in results)


def test_sweep_scores_reflect_plant():
    results = sweep_gains(synthetic_run_factory(), [0.1, 0.8], [0.0])
    by_kp = {r.kp: r.report.std for r in results}
    assert by_kp[0.8] > by_kp[0.1]


def test_tuner_finds_kp_edge_then_damps():
    settings = tune_ziegler_nichols_like(
        synthetic_run_factory(),
        kp_start=0.1,
        kp_step=0.1,
        kp_max=1.0,
        kd_step=0.1,
        kd_max=1.0,
        oscillation_threshold=2.0,
    )
    # plant: swing = 8 Kp - 6 Kd; std >= 2 needs swing >= ~2.8 -> Kp ~ 0.4
    assert 0.3 <= settings.kp <= 0.6
    # damping: swing < 2.8 again -> Kd >= (8 Kp - 2.8)/6
    assert settings.kd >= (8 * settings.kp - 3.2) / 6.0
    # tuned result is actually stable on the plant
    t, v = synthetic_run_factory()(settings)
    assert np.std(v) < 2.5


def test_tuner_respects_base_settings():
    base = FrameFeedbackSettings(t_threshold_frac=0.2)
    settings = tune_ziegler_nichols_like(
        synthetic_run_factory(), oscillation_threshold=2.0, base=base
    )
    assert settings.t_threshold_frac == 0.2


def test_tuner_hits_kp_max_on_dead_plant():
    """A plant that never oscillates drives Kp to the sweep limit."""

    def run(settings):
        t = np.arange(30.0)
        return t, np.full_like(t, 10.0)

    settings = tune_ziegler_nichols_like(
        run, kp_start=0.2, kp_step=0.4, kp_max=1.0, oscillation_threshold=2.0
    )
    assert settings.kp == 1.0
    assert settings.kd > 0.0
