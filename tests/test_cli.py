"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.search import SearchConfig
from repro.sim.core import EnvStats


def test_parser_accepts_all_commands():
    parser = build_parser()
    for cmd in (
        "fig2", "fig3", "fig4", "table2", "table3", "table4",
        "energy", "combined", "controllers", "breakdown", "fleet",
        "run", "all",
    ):
        args = parser.parse_args([cmd])
        assert args.command == cmd


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig9"])


def test_parser_rejects_kernel_flag():
    # one simulation kernel: there is nothing left to select
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--kernel", "hybrid", "fig3"])


def test_cli_table3_prints_accuracy_table(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "Table III" in out
    assert "82.9%" in out  # EfficientNetB4


def test_cli_fig2_short_run(capsys):
    assert main(["fig2", "--duration", "20"]) == 0
    out = capsys.readouterr().out
    assert "Fig 2" in out
    assert "Kp=0.2 Kd=0.26" in out


def test_cli_seed_flag_changes_nothing_structural(capsys):
    assert main(["table3", "--seed", "7"]) == 0
    assert "Top-1" in capsys.readouterr().out


def test_cli_run_requires_config():
    import pytest

    with pytest.raises(SystemExit):
        main(["run"])


def test_cli_run_with_config_and_export(tmp_path, capsys):
    import json

    config = tmp_path / "scenario.json"
    config.write_text(
        json.dumps(
            {
                "controller": "AlwaysOffload",
                "seed": 1,
                "device": {"total_frames": 300},
                "network": [[0, 10, 0]],
            }
        )
    )
    out_dir = tmp_path / "artifacts"
    assert main(["run", "--config", str(config), "--export", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "AlwaysOffload" in printed
    assert (out_dir / "traces.csv").exists()
    assert (out_dir / "qos.json").exists()


def test_cli_breakdown_short(capsys):
    assert main(["breakdown", "--frames", "600"]) == 0
    out = capsys.readouterr().out
    assert "T_n" in out and "T_l" in out


def test_cli_fleet_short(capsys):
    assert main(["fleet", "--frames", "450"]) == 0
    out = capsys.readouterr().out
    assert "Fleet scaling" in out
    assert "Jain" in out


def test_cli_netem_emits_script(capsys):
    assert main(["netem", "--schedule", "tablev", "--iface", "eth1"]) == 0
    out = capsys.readouterr().out
    assert "#!/bin/sh" in out
    assert "dev eth1" in out
    assert "loss 7%" in out
    assert "320 kbit/s" in out


def test_cli_netem_unknown_schedule():
    import pytest

    with pytest.raises(SystemExit):
        main(["netem", "--schedule", "bogus"])


def test_cli_sweep_requires_config():
    import pytest

    with pytest.raises(SystemExit):
        main(["sweep"])


def test_parser_accepts_profile_scenario():
    args = build_parser().parse_args(["profile", "chaos"])
    assert args.command == "profile"
    assert args.scenario == "chaos"


def test_cli_profile_fig3_reports_kernel_stats(capsys):
    assert main(["profile", "fig3", "--frames", "300"]) == 0
    out = capsys.readouterr().out
    assert "profile: fig3" in out
    assert "kernel stats" in out
    assert "cancelled" in out  # EnvStats summary lines
    assert "cumulative" in out  # cProfile table


def test_cli_profile_json_is_one_parseable_document(capsys):
    assert main(["--json", "profile", "fig3", "--frames", "300"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert set(doc) == {"scenario", "seed", "frames", "envs"}
    assert (doc["scenario"], doc["seed"], doc["frames"]) == ("fig3", 0, 300)
    assert doc["envs"], "fig3 builds at least one environment"
    for env_stats in doc["envs"]:
        assert set(env_stats) == set(EnvStats().as_dict())
        assert env_stats["events_processed"] > 0
    assert "cumulative" not in out  # no cProfile table


def test_cli_profile_defaults_to_fig3(capsys):
    assert main(["profile", "--frames", "300"]) == 0
    assert "profile: fig3" in capsys.readouterr().out


def test_cli_profile_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["profile", "bogus", "--frames", "300"])


def test_parser_accepts_chaos():
    args = build_parser().parse_args(["chaos", "--controller", "aimd"])
    assert args.command == "chaos"
    assert args.controller == "aimd"


def test_cli_chaos_smoke(capsys):
    assert main(["chaos", "--frames", "4000"]) == 0
    out = capsys.readouterr().out
    assert "Cross-layer chaos run" in out
    assert "standing-probe" in out
    assert "re-convergence" in out
    assert "verdict: PASS" in out


def test_cli_chaos_unknown_controller():
    with pytest.raises(SystemExit):
        main(["chaos", "--controller", "bogus"])


def test_cli_sweep_runs_seeds(tmp_path, capsys):
    import json

    config = tmp_path / "s.json"
    config.write_text(
        json.dumps(
            {
                "controller": "FrameFeedback",
                "device": {"total_frames": 300},
                "network": [[0, 4, 0]],
            }
        )
    )
    assert main(["sweep", "--config", str(config), "--seeds", "3", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "3-seed sweep" in out
    assert "mean P" in out


def test_cli_chaos_resilience_json_exits_zero(capsys):
    import json

    assert main(["chaos", "--resilience", "--frames", "4000", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "PASS"
    assert doc["resilience"] is True
    assert doc["breaker_transitions"]  # the breaker actually tripped
    assert doc["failure_taxonomy"]["breaker_fallback"] > 0
    names = {c["name"] for c in doc["invariants"]}
    assert {"standing-probe", "re-convergence", "breaker-trip", "breaker-reclose"} <= names


def test_cli_chaos_invariant_failure_exits_nonzero(monkeypatch, capsys):
    """CI gates on the exit code: any failed invariant must be non-zero."""
    import repro.experiments.chaos as chaos_mod
    from repro.faults.invariants import InvariantCheck

    real = chaos_mod.run_chaos

    def sabotaged(chaos):
        result = real(chaos)
        result.invariants.append(
            InvariantCheck(
                name="forced-fail",
                passed=False,
                observed=1.0,
                expected=0.0,
                tolerance=0.0,
                detail="injected by the test",
            )
        )
        return result

    monkeypatch.setattr(chaos_mod, "run_chaos", sabotaged)
    assert main(["chaos", "--frames", "1200"]) == 1
    assert "verdict: FAIL" in capsys.readouterr().out


def test_parser_accepts_trace_and_trace_diff():
    args = build_parser().parse_args(["trace", "supervision", "--json"])
    assert args.command == "trace" and args.scenario == "supervision" and args.json
    args = build_parser().parse_args(["trace-diff", "a.json", "b.json"])
    assert args.command == "trace-diff"
    assert (args.scenario, args.scenario2) == ("a.json", "b.json")


def test_cli_trace_json_is_deterministic(capsys):
    assert main(["trace", "fig3", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["trace", "fig3", "--json"]) == 0
    assert capsys.readouterr().out == first

    import json

    doc = json.loads(first)
    assert doc["meta"]["scenario"] == "fig3"
    assert doc["frames"]


def test_cli_trace_human_summary(capsys):
    assert main(["trace", "chaos"]) == 0
    out = capsys.readouterr().out
    assert "trace: chaos" in out
    assert "completed-local" in out and "events" in out


def test_cli_trace_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["trace", "bogus"])


def test_cli_trace_diff_identical_and_perturbed(tmp_path, capsys):
    import json

    from repro.trace import dumps_trace, run_trace_scenario

    doc = run_trace_scenario("fig3")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(dumps_trace(doc))
    b.write_text(dumps_trace(doc))
    assert main(["trace-diff", str(a), str(b)]) == 0
    assert "identical" in capsys.readouterr().out

    perturbed = json.loads(a.read_text())
    perturbed["frames"][3]["span"]["status"] = "__tampered__"
    b.write_text(dumps_trace(perturbed))
    assert main(["trace-diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "diverge" in out and "frames[" in out and "status" in out


def test_cli_trace_diff_requires_two_files():
    with pytest.raises(SystemExit):
        main(["trace-diff", "only-one.json"])


# ----------------------------------------------------------------------
# scenario compiler + adversarial search (ISSUE 6)
# ----------------------------------------------------------------------
def test_cli_compile_emits_flat_config(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "controller": "FrameFeedback",
        "duration": 20.0,
        "network": {"kind": "diurnal", "period": 20.0, "step": 5.0},
    }))
    assert main(["compile", str(spec)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc["network"], list)
    assert doc["controller"] == "FrameFeedback"
    assert "duration" in doc


def test_cli_compile_expand_population(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "device": {"total_frames": 100},
        "population": {"size": 2, "profiles": ["pi4b_r1_2", "pi3b_r1_2"]},
    }))
    assert main(["compile", str(spec), "--expand"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert len(docs) == 2
    assert docs[1]["device"]["profile"] == "pi3b_r1_2"


def test_cli_compile_reports_spec_errors_nonzero(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"contoller": "FrameFeedback"}))
    assert main(["compile", str(spec)]) == 1
    out = capsys.readouterr().out
    assert "spec error" in out and "contoller" in out


def test_cli_compile_requires_a_file():
    with pytest.raises(SystemExit):
        main(["compile"])


def test_cli_search_writes_goldens(tmp_path, capsys):
    out_dir = tmp_path / "goldens"
    code = main(["search", "--seed", "3", "--budget", "16", "--workers", "2",
                 "--goldens", "2", "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "FINDINGS" in out
    written = sorted(out_dir.glob("*.json"))
    assert written, "search found failures but wrote no goldens"
    # every golden replays through the same machinery tier-1 uses
    from repro.search import load_golden, replay_golden

    doc = load_golden(written[0])
    assert replay_golden(doc) == doc["expected"]


def test_cli_search_json_summary(capsys):
    code = main(["search", "--seed", "5", "--budget", "4", "--goldens", "1",
                 "--workers", "1", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["evaluated"] <= 4
    assert "minimized" in doc
    assert code in (0, 1)  # tiny budgets may legitimately find nothing


# ----------------------------------------------------------------------
# wall-clock gateway: loadgen + chaos --realtime (ISSUE 9)
# ----------------------------------------------------------------------
def test_parser_accepts_loadgen_and_realtime_flags():
    args = build_parser().parse_args(["loadgen", "--clients", "5", "--duration", "1.5"])
    assert args.command == "loadgen"
    assert args.clients == 5
    args = build_parser().parse_args(["chaos", "--realtime", "--clients", "3"])
    assert args.realtime is True
    assert args.clients == 3


def test_cli_loadgen_burst_json(capsys):
    """Real seconds elapse (a 1 s burst against a live gateway)."""
    assert main(["loadgen", "--clients", "4", "--duration", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["accounting_closed"] is True
    assert doc["report"]["submitted"] > 0
    assert doc["gateway"]["received"] > 0


def test_cli_loadgen_human_output(capsys):
    assert main(["loadgen", "--clients", "3", "--duration", "1"]) == 0
    out = capsys.readouterr().out
    assert "loadgen burst" in out
    assert "tick jitter" in out
    assert "accounting: closed" in out


def test_cli_chaos_realtime_invariant_failure_exits_nonzero(monkeypatch, capsys):
    """CI gates on the exit code: a failed wall-clock invariant must be
    non-zero, same contract as the simulated chaos run."""
    import repro.realtime.chaos as rt_chaos
    from repro.faults.invariants import InvariantCheck

    real = rt_chaos.run_realtime_chaos

    def sabotaged(spec, resilience=None):
        # shrink to a benign 1 s run, then inject a failed row
        result = real(spec.replace(duration=1.0, faults=[]), resilience)
        result.invariants.append(
            InvariantCheck(
                name="forced-fail",
                passed=False,
                observed=1.0,
                expected=0.0,
                tolerance=0.0,
                detail="injected by the test",
            )
        )
        return result

    monkeypatch.setattr(rt_chaos, "run_realtime_chaos", sabotaged)
    assert main(["chaos", "--realtime"]) == 1
    assert "verdict: FAIL" in capsys.readouterr().out
    assert main(["chaos", "--realtime", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_invariants_hold"] is False


def _claim_holds(runs):
    return "ok", True


def _claim_fails(runs):
    return "bad", False


def test_cli_validate_exits_nonzero_when_a_claim_fails(monkeypatch, capsys):
    """CI gates on the exit code of ``validate``, as it does on chaos."""
    import repro.experiments.validation as validation

    holds = validation.Claim("holds", "always true", _claim_holds)
    fails = validation.Claim("fails", "always false", _claim_fails)
    monkeypatch.setattr(validation, "CLAIMS", [holds])
    assert main(["validate"]) == 0
    assert "1/1 claims hold" in capsys.readouterr().out
    monkeypatch.setattr(validation, "CLAIMS", [holds, fails])
    assert main(["validate"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "1/2 claims hold" in out


class _Captured(Exception):
    """Raised by a stubbed runner once it has seen its arguments."""


@pytest.mark.parametrize(
    "argv, default",
    [
        (["tournament"], 900),
        (["chaos", "--fleet"], 900),
        (["search"], SearchConfig.frames),
        (["fleet"], 900),
    ],
)
def test_cli_frames_flag_is_honoured_even_at_4000(monkeypatch, argv, default):
    """Commands with their own short default must still honour an
    explicit ``--frames 4000`` (the paper-scale stream length)."""
    import repro.experiments.scenario as scenario
    import repro.experiments.tournament as tournament
    import repro.fleet.chaos as fleet_chaos
    import repro.search as search

    seen = []

    def capture(frames):
        seen.append(frames)
        raise _Captured

    monkeypatch.setattr(
        tournament, "run_tournament", lambda config: capture(config.frames)
    )
    monkeypatch.setattr(
        fleet_chaos, "run_fleet_chaos", lambda seed, total_frames: capture(total_frames)
    )
    monkeypatch.setattr(search, "run_search", lambda config: capture(config.frames))
    monkeypatch.setattr(
        scenario, "run_scenario", lambda s: capture(s.members[0].config.total_frames)
    )
    for extra in ([], ["--frames", "4000"], ["--frames", "123"]):
        with pytest.raises(_Captured):
            main(argv + extra)
    assert seen == [default, 4000, 123]
