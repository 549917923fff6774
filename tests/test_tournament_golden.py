"""Byte-exact tournament report golden (ISSUE 10 satellite).

``tests/goldens/tournament_report.json`` is the canonical report of a
reduced tournament — 4 controllers x 3 built-in scenarios —
regenerated from scratch and compared **byte-for-byte** on the kernel's
fast timer path and on its slow, accounted one (EnvStats on).

Intentional-change workflow (mirrors the trace/scenario goldens)::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_tournament_golden.py
    git diff tests/goldens/tournament_report.json
    git add tests/goldens/tournament_report.json

The update path rewrites the file and fails the run, so a stale
``REPRO_UPDATE_GOLDENS`` in CI can never silently bless a regression.
"""

import os
from pathlib import Path

import pytest

from repro.experiments.tournament import (
    TOURNAMENT_VERSION,
    TournamentConfig,
    dumps_report,
    report_document,
    run_tournament,
)
from repro.sim import core as sim_core

GOLDEN_PATH = Path(__file__).parent / "goldens" / "tournament_report.json"

#: the committed reduced tournament: deterministic and fast
GOLDEN_CONFIG = TournamentConfig(
    seed=0,
    frames=450,
    controllers=("FrameFeedback", "AIMD", "TokenBucket", "RateLimitedMDP"),
    scenarios=("lossy_link", "chaos_outage", "fleet_failover"),
    workers=1,
)


def _fresh_report() -> str:
    return dumps_report(report_document(run_tournament(GOLDEN_CONFIG)))


def _replay_and_compare(monkeypatch, slowpath: bool = False):
    if slowpath:
        # every Environment gets EnvStats: timers take the accounted path
        monkeypatch.setattr(sim_core, "_stats_sink", [])
    fresh = _fresh_report()

    if os.environ.get("REPRO_UPDATE_GOLDENS") == "1":
        GOLDEN_PATH.write_text(fresh)
        pytest.fail(
            "tournament golden regenerated (REPRO_UPDATE_GOLDENS=1); "
            "review with `git diff tests/goldens/tournament_report.json` "
            "and commit, then rerun without the flag"
        )

    committed = GOLDEN_PATH.read_text()
    assert fresh == committed, (
        "tournament report diverges from the committed golden "
        f"(slowpath={slowpath}); if the "
        "change is intentional, regenerate with REPRO_UPDATE_GOLDENS=1"
    )


def test_report_replays_byte_identically(monkeypatch):
    _replay_and_compare(monkeypatch)


def test_report_replays_byte_identically_slow_kernel(monkeypatch):
    _replay_and_compare(monkeypatch, slowpath=True)


def test_golden_is_version_stamped():
    import json

    doc = json.loads(GOLDEN_PATH.read_text())
    assert doc["version"] == TOURNAMENT_VERSION
    assert len(doc["controllers"]) >= 4
    assert len(doc["scenarios"]) >= 3
    assert doc["ranking"], "committed report must carry a ranking"
