"""Unit tests for the tournament runner and its report artifact."""

import json

import pytest

from repro.cli import main
from repro.experiments.tournament import (
    ORACLE,
    TournamentConfig,
    builtin_scenarios,
    default_lineup,
    dumps_report,
    load_scenario_dir,
    render_report,
    report_document,
    run_tournament,
)

SMALL = TournamentConfig(
    frames=60,
    controllers=("FrameFeedback", "LocalOnly"),
    scenarios=("lossy_link", "degraded_bandwidth"),
    workers=1,
)


# ----------------------------------------------------------------------
# matrix construction
# ----------------------------------------------------------------------
def test_builtin_matrix_has_six_scenarios():
    specs = builtin_scenarios()
    assert len(specs) >= 6
    kinds = set(specs)
    assert {"degraded_bandwidth", "lossy_link", "server_load",
            "combined_stress", "chaos_outage", "fleet_failover"} <= kinds


def test_builtin_windows_scale_with_frames():
    for frames in (300, 900, 2400):
        horizon = frames / 30.0
        for name, spec in builtin_scenarios(frames=frames).items():
            for fault in spec.faults:
                for start, duration in fault["windows"]:
                    assert start + duration <= horizon + 1e-9, (
                        f"{name}@{frames}: window [{start}, {duration}] "
                        f"falls off the {horizon}s horizon"
                    )


def test_unknown_scenario_filter_is_an_error():
    with pytest.raises(ValueError, match="no_such_scenario"):
        TournamentConfig(scenarios=("no_such_scenario",)).matrix()


def test_scenario_dir_accepts_search_golden_documents(tmp_path):
    doc = {
        "name": "x",
        "scenario": {"device": {"total_frames": 60}, "seed": 3},
    }
    (tmp_path / "finding.json").write_text(json.dumps(doc))
    specs = load_scenario_dir(tmp_path)
    assert list(specs) == ["finding"]
    assert specs["finding"].seed == 3


def test_default_lineup_is_the_zoo_without_oracle():
    lineup = default_lineup()
    assert len(lineup) >= 4
    assert ORACLE not in lineup
    assert "TokenBucket" in lineup and "RateLimitedMDP" in lineup


# ----------------------------------------------------------------------
# scoring and ranking
# ----------------------------------------------------------------------
def test_small_tournament_scores_every_cell():
    result = run_tournament(SMALL)
    assert len(result.cells) == 4  # 2 controllers x 2 scenarios
    assert set(result.oracle_qos) == {"lossy_link", "degraded_bandwidth"}
    for cell in result.cells:
        oracle = result.oracle_qos[cell.scenario]["mean_violation_rate"]
        assert cell.regret == round(
            cell.qos["mean_violation_rate"] - oracle, 9
        )


def test_ranking_is_sorted_by_mean_regret_then_name():
    result = run_tournament(SMALL)
    keys = [(s.mean_regret, s.controller) for s in result.ranking]
    assert keys == sorted(keys)
    assert {s.controller for s in result.ranking} == set(SMALL.lineup())
    total_wins = sum(s.wins for s in result.ranking)
    assert total_wins >= len(result.oracle_qos)  # ties all count as wins


def test_report_document_is_byte_deterministic():
    a = dumps_report(report_document(run_tournament(SMALL)))
    b = dumps_report(report_document(run_tournament(SMALL)))
    assert a == b
    doc = json.loads(a)
    assert doc["version"] == 1
    assert sorted(doc["scenarios"]) == ["degraded_bandwidth", "lossy_link"]


def test_render_report_carries_ranking_and_matrix():
    result = run_tournament(SMALL)
    text = render_report(result)
    assert "# Controller tournament" in text
    assert "| rank | controller |" in text
    for name in SMALL.lineup():
        assert name in text


def test_empty_lineup_or_matrix_is_an_error():
    with pytest.raises(ValueError, match="controller"):
        run_tournament(TournamentConfig(controllers=(ORACLE,)))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_tournament_json_is_canonical(capsys):
    argv = ["tournament", "--lineup", "FrameFeedback,LocalOnly",
            "--matrix", "lossy_link", "--frames", "60",
            "--scenario-dir", "", "--workers", "1", "--json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["controllers"] == ["FrameFeedback", "LocalOnly"]
    assert list(doc["scenarios"]) == ["lossy_link"]


def test_cli_tournament_markdown(capsys):
    argv = ["tournament", "--lineup", "FrameFeedback,LocalOnly",
            "--matrix", "lossy_link", "--frames", "60",
            "--scenario-dir", "", "--workers", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "# Controller tournament" in out
    assert "LocalOnly" in out
