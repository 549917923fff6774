"""Golden regression for ``repro chaos --fleet --json``.

The committed golden is the exact CLI stdout of the fleet chaos twin
run (failover on vs. off, identical kill schedule) at the default
seed/length.  Tested byte-exact via subprocess, and in-process on the
kernel's slow, accounted timer path (EnvStats on), plus a
semantic layer asserting the PR's acceptance criteria hold *in the
committed artifact* — so a regenerated golden that quietly stops
exercising failover fails review here, not in production.

Intentional-change workflow::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_fleet_golden.py
    git diff tests/goldens/fleet_chaos.json
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "goldens" / "fleet_chaos.json"
REPO = Path(__file__).parent.parent


def _cli_stdout() -> str:
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "chaos", "--fleet", "--json"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def _accounted_stdout(monkeypatch, capsys) -> str:
    """The same command in-process, every timer on the accounted path."""
    from repro.cli import main
    from repro.sim import core as sim_core

    monkeypatch.setattr(sim_core, "_stats_sink", [])
    assert main(["chaos", "--fleet", "--json"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("slowpath", [False, True], ids=["fast", "slow"])
def test_cli_fleet_json_matches_golden(slowpath, monkeypatch, capsys):
    fresh = _accounted_stdout(monkeypatch, capsys) if slowpath else _cli_stdout()
    if os.environ.get("REPRO_UPDATE_GOLDENS") == "1":
        if not slowpath:
            GOLDEN.write_text(fresh)
        pytest.fail(
            f"golden {GOLDEN.name} regenerated (REPRO_UPDATE_GOLDENS=1); "
            "review with `git diff tests/goldens/` and commit"
        )
    assert GOLDEN.exists(), (
        f"missing golden {GOLDEN}; generate with REPRO_UPDATE_GOLDENS=1"
    )
    assert GOLDEN.read_text() == fresh


def test_golden_meets_acceptance_criteria():
    """The committed artifact itself must witness the PR's claims."""
    doc = json.loads(GOLDEN.read_text())
    assert doc["mode"] == "fleet"
    assert doc["verdict"] == "PASS"
    assert all(c["passed"] for c in doc["fleet_invariants"])

    on, off = doc["failover"], doc["no_failover"]
    # a mid-run ServerKill loses zero frames to accounting
    for run in (on, off):
        q = run["qos"]
        assert (
            q["successful"] + q["timeouts"] + q["dropped_local"]
            == q["total_frames"]
        )
        assert run["fleet"]["fleet.outstanding"] == 0.0
    # the kill was live: in-flight frames actually moved
    assert on["fleet"]["fleet.failovers"] >= 1.0
    assert on["fleet"]["fleet.edge0.ejections"] == 1.0
    assert on["fleet"]["fleet.mttr_count"] == 1.0
    # deadline-violation rate strictly lower with failover enabled
    assert (
        on["qos"]["mean_violation_rate"] < off["qos"]["mean_violation_rate"]
    )


def test_golden_is_canonical_json():
    text = GOLDEN.read_text()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=1, sort_keys=True) + "\n"
