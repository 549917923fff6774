"""Self-tests of the benchmark (run: ``python3 -m pytest perfbench/tests``)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import layers
import reference
import run
from bootstrap import import_program
from workloads import DIGEST_SEEDS, Fig3

ROOT = Path(__file__).resolve().parents[2]


def bench(*args: str):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_exactly_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layers.PER_LAYER
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(run.WORKLOADS)


def test_traced_counts_repeat_exactly_at_one_seed():
    first_code, first = bench("--workload", "fig3", "--seed", "3", "--seconds", "1", "--trace", "1")
    second_code, second = bench("--workload", "fig3", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert first_code == second_code == 0
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {name for name, _ in layers.PER_LAYER}
    exact = [name for name, _ in layers.PER_LAYER if layers.is_exact_count(name)]
    assert exact
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["netem.uplink_events"]["value"] > 0
    assert first["metrics"]["experiments.build_runtime_calls"]["value"] == 4


def test_fig3_at_an_unrecorded_seed_trips_the_digest_gate():
    reference.prepare()
    import_program()
    tally = run.Tally()
    run.sim_untraced(Fig3(DIGEST_SEEDS), 0.0, run.expected_digests("fig3", 0), tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_digest_mismatch_makes_the_command_fail(tmp_path, monkeypatch, capsys):
    digests = json.loads(run.DIGESTS.read_text())
    digests["fig3"]["0"] = digests["fig3"]["1"]
    swapped = tmp_path / "digests.json"
    swapped.write_text(json.dumps(digests))
    monkeypatch.setattr(run, "DIGESTS", swapped)
    assert run.main(["--workload", "fig3", "--seed", "0", "--seconds", "0", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"] == 1


def test_gateway_run_has_no_failed_frames():
    code, result = bench("--workload", "gateway", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert result["metrics"]["ref_frames_per_s"]["value"] > 0
