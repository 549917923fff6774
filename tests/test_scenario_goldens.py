"""Chaos regression goldens (ISSUE 6 tentpole).

Every file under ``tests/goldens/scenarios/`` is a minimized
controller-breaking scenario found by ``repro search``, together with
the exact outcome it produced (controller QoS, oracle-witness QoS,
violation score).  Tier-1 replays each golden from scratch — on the
kernel's fast timer path and on its slow, accounted one (EnvStats on) —
and compares the
replayed outcome **byte-for-byte** against the committed one.

Intentional-change workflow (mirrors the trace goldens)::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_scenario_goldens.py
    git diff tests/goldens/scenarios/   # review the semantic change
    git add tests/goldens/scenarios/

The update path rewrites the files and fails the run, so a stale
``REPRO_UPDATE_GOLDENS`` in CI can never silently bless a regression.
"""

import json
import os
from pathlib import Path

import pytest

from repro.search import (
    GOLDEN_VERSION,
    EvalParams,
    dumps_golden,
    load_golden,
    replay_golden,
)
from repro.search.language import SPEC_VERSION, ScenarioSpec
from repro.sim import core as sim_core

GOLDEN_DIR = Path(__file__).parent / "goldens" / "scenarios"
GOLDEN_PATHS = sorted(GOLDEN_DIR.glob("*.json"))


def _replay_and_compare(path, monkeypatch, slowpath: bool):
    if slowpath:
        # every Environment gets EnvStats: timers take the accounted path
        monkeypatch.setattr(sim_core, "_stats_sink", [])
    doc = load_golden(path)
    fresh = replay_golden(doc)

    if os.environ.get("REPRO_UPDATE_GOLDENS") == "1":
        path.write_text(dumps_golden({**doc, "expected": fresh}))
        pytest.fail(
            f"golden {path.name} regenerated (REPRO_UPDATE_GOLDENS=1); "
            "review with `git diff tests/goldens/scenarios/` and commit, "
            "then rerun without the flag"
        )

    assert fresh == doc["expected"], (
        f"{path.name}: replayed outcome diverges from committed golden\n"
        f"committed: {json.dumps(doc['expected'], sort_keys=True)}\n"
        f"replayed:  {json.dumps(fresh, sort_keys=True)}"
    )


@pytest.mark.parametrize("path", GOLDEN_PATHS, ids=[p.stem for p in GOLDEN_PATHS])
def test_golden_replays_byte_identically(path, monkeypatch):
    _replay_and_compare(path, monkeypatch, slowpath=False)


@pytest.mark.parametrize("path", GOLDEN_PATHS, ids=[p.stem for p in GOLDEN_PATHS])
def test_golden_replays_byte_identically_slow_kernel(path, monkeypatch):
    _replay_and_compare(path, monkeypatch, slowpath=True)


def test_at_least_two_goldens_committed():
    """The search must have contributed >= 2 regression scenarios."""
    assert len(GOLDEN_PATHS) >= 2, (
        f"expected >= 2 scenario goldens in {GOLDEN_DIR}, "
        f"found {len(GOLDEN_PATHS)}; regenerate with "
        "`repro search --seed 0 --budget 64 --out tests/goldens/scenarios`"
    )


@pytest.mark.parametrize("path", GOLDEN_PATHS, ids=[p.stem for p in GOLDEN_PATHS])
def test_golden_is_well_formed(path):
    doc = load_golden(path)
    assert doc["version"] == GOLDEN_VERSION
    assert doc["spec_version"] == SPEC_VERSION
    assert doc["name"] == path.stem
    # the scenario itself must pass spec validation
    spec = ScenarioSpec.from_dict(doc["scenario"])
    # and the committed outcome must describe a feasible failure at the
    # committed thresholds (that is what makes it a regression golden)
    params = EvalParams.from_dict(doc["params"])
    assert doc["expected"]["feasible"] is True
    assert doc["expected"]["score"] >= params.fail_threshold
    assert doc["expected"]["oracle_qos"] is not None
    assert spec.controller == "FrameFeedback"


def test_goldens_are_newline_terminated_canonical_json():
    """Committed files must round-trip through the canonical dumper."""
    for path in GOLDEN_PATHS:
        raw = path.read_text()
        assert raw.endswith("\n")
        assert dumps_golden(json.loads(raw)) == raw
