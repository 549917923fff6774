"""Golden-trace regression tests (ISSUE 5, satellite 2).

Each committed golden in ``tests/goldens/`` is the canonical trace of
one scenario at its default seed/length.  The test regenerates the
trace from scratch and compares **bytes**; on mismatch it reports the
first structurally diverging span via :func:`first_divergence` so the
failure says *which frame changed how*, not just "files differ".

Intentional-change workflow::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_trace_golden.py
    git diff tests/goldens/   # review the semantic change
    git add tests/goldens/

The update path rewrites the files and fails the run (so a stale
``REPRO_UPDATE_GOLDENS`` in CI can never silently bless a regression).
"""

import json
import os
from pathlib import Path

import pytest

from repro.sim import core as sim_core
from repro.trace import (
    TRACE_SCENARIOS,
    TRACE_VERSION,
    diff_traces,
    dumps_trace,
    load_trace,
    run_trace_scenario,
    terminal_counts,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"trace_{name}.json"


def _replay_and_compare(scenario, monkeypatch, slowpath):
    if slowpath:
        # every Environment gets EnvStats: timers take the accounted path
        monkeypatch.setattr(sim_core, "_stats_sink", [])
    fresh = run_trace_scenario(scenario)
    fresh_bytes = dumps_trace(fresh)
    path = _golden_path(scenario)

    if os.environ.get("REPRO_UPDATE_GOLDENS") == "1":
        path.write_text(fresh_bytes)
        pytest.fail(
            f"golden {path.name} regenerated (REPRO_UPDATE_GOLDENS=1); "
            "review with `git diff tests/goldens/` and commit, then rerun "
            "without the flag"
        )

    assert path.exists(), (
        f"missing golden {path}; generate it with REPRO_UPDATE_GOLDENS=1"
    )
    golden = load_trace(path)
    divergence = diff_traces(golden, fresh)
    assert divergence is None, divergence
    # byte-level check on top of the structural one: catches formatting
    # drift (indent, key order, float repr) that diff_traces forgives
    assert path.read_text() == fresh_bytes


@pytest.mark.parametrize("scenario", sorted(TRACE_SCENARIOS))
def test_trace_matches_committed_golden(scenario, monkeypatch):
    _replay_and_compare(scenario, monkeypatch, slowpath=False)


@pytest.mark.parametrize("scenario", sorted(TRACE_SCENARIOS))
def test_trace_matches_committed_golden_slow_kernel(scenario, monkeypatch):
    """The kernel's slow timer path gives the same bytes: with EnvStats
    on, every timer is built and counted by the accounted ``_arm``
    instead of the inline fast path, and instrumentation must never
    perturb a run."""
    _replay_and_compare(scenario, monkeypatch, slowpath=True)


@pytest.mark.parametrize("scenario", sorted(TRACE_SCENARIOS))
def test_golden_is_well_formed(scenario):
    doc = load_trace(_golden_path(scenario))
    assert doc["version"] == TRACE_VERSION
    assert doc["meta"]["scenario"] == scenario
    assert doc["frames"], "golden holds no frames"
    counts = terminal_counts(doc)
    assert sum(counts.values()) == len(doc["frames"])
    # every scenario must exercise both completion routes
    assert counts.get("completed-local", 0) > 0
    assert counts.get("completed-offload", 0) > 0


def test_goldens_are_newline_terminated_canonical_json():
    """Committed files must round-trip through the canonical dumper."""
    for scenario in sorted(TRACE_SCENARIOS):
        raw = _golden_path(scenario).read_text()
        assert raw.endswith("\n")
        assert dumps_trace(json.loads(raw)) == raw


def test_perturbed_golden_reports_precise_divergence():
    golden = load_trace(_golden_path("fig3"))
    perturbed = json.loads(json.dumps(golden))
    target = perturbed["frames"][37]["span"]
    target["status"] = "timeout" if target["status"] != "timeout" else "rejected"
    report = diff_traces(golden, perturbed)
    assert report is not None
    assert "frames[" in report and "status" in report
