"""Integration tests for the experiment harness.

Each paper finding is asserted once, as a claim in
``repro.experiments.validation``; the tests below that name a finding
check that its claim held in the session's ``validated`` run (see
``tests/conftest.py``).  The rest check the shape of what the table and
figure runners return."""

import pytest

from repro.experiments.combined import stretched_table_vi
from repro.experiments.fig2 import gain_label, run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.table4 import ablation_grid, paper_settings_rows


# ----------------------------------------------------------------------
# Fig 2
# ----------------------------------------------------------------------
def test_fig2_produces_trace_per_gain():
    fig2 = run_fig2(duration=10.0, seed=0)
    assert len(fig2.traces) == 4
    assert gain_label(0.2, 0.26) in fig2.traces


def test_fig2_paper_gains_backoff_after_loss(claim):
    claim("fig2-ramp")


def test_fig2_paper_gains_reach_fs_before_loss(claim):
    claim("fig2-ramp")


def test_fig2_sluggish_gains_never_reach_fs(claim):
    claim("fig2-sluggish")


def test_fig2_hot_gains_swing_harder_than_paper_gains(claim):
    claim("fig2-tuning")


def test_fig2_derivative_damps_overshoot(claim):
    claim("fig2-derivative")


# ----------------------------------------------------------------------
# Fig 3
# ----------------------------------------------------------------------
def test_fig3_all_controllers_present():
    fig3 = run_fig3(seed=0, total_frames=300)
    assert set(fig3.runs) == {
        "FrameFeedback",
        "LocalOnly",
        "AlwaysOffload",
        "AllOrNothing",
    }


def test_fig3_good_network_all_offloaders_equal(claim):
    claim("fig3-saturated")


def test_fig3_intermediate_network_framefeedback_wins(claim):
    claim("fig3-intermediate")


def test_fig3_dead_network_ff_equals_local(claim):
    claim("fig3-dead")


def test_fig3_always_offload_suboptimal_overall(claim):
    claim("fig3-always-suboptimal")


def test_fig3_ff_beats_every_baseline_overall(claim):
    claim("fig3-whole-run")


# ----------------------------------------------------------------------
# Fig 4
# ----------------------------------------------------------------------
def test_fig4_unloaded_phases_offloaders_saturate(claim):
    claim("fig4-recovery")


def test_fig4_ff_wins_every_loaded_phase(claim):
    claim("fig4-graceful")


def test_fig4_ff_degrades_gracefully_to_local(claim):
    claim("fig4-graceful")


def test_fig4_ff_fits_offloading_below_saturation(claim):
    claim("fig4-fits-offload")


def test_fig4_load_ramp_down_recovers(claim):
    claim("fig4-recovery")


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def test_table2_roundtrip_within_five_percent(claim):
    claim("table2-roundtrip")


def test_table3_rows_in_paper_order(claim):
    claim("table3")


def test_table3_tradeoff_monotone(claim):
    claim("table3")


def test_table4_settings_rows():
    rows = dict(paper_settings_rows())
    assert rows["K_P"] == "0.2"
    assert rows["K_D"] == "0.26"
    assert rows["K_I"] == "0"


def test_table4_ablation_grid_covers_design_choices():
    grid = ablation_grid()
    assert "paper (Table IV)" in grid
    assert any("integral" in k for k in grid)
    assert any("clamp" in k for k in grid)


def test_table4_ablation_paper_settings_competitive(claim):
    claim("table4-ablation")


# ----------------------------------------------------------------------
# energy + combined
# ----------------------------------------------------------------------
def test_energy_reproduces_paper_cpu_numbers(claim):
    claim("energy")


def test_stretched_table_vi_scales_times():
    s = stretched_table_vi(2.0)
    assert s.rate_at(19.9) == 0.0
    assert s.rate_at(20.0) == 90.0
    with pytest.raises(ValueError):
        stretched_table_vi(0.0)


def test_combined_stress_additivity(claim):
    claim("combined")
