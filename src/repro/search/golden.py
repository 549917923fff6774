"""Chaos regression goldens: minimized failing scenarios, replayable.

A scenario golden is one file under ``tests/goldens/scenarios/``
holding a minimized controller-breaking spec *and* the exact outcome
it produced: the controller's QoS, the oracle's QoS (the feasibility
witness), and the violation score.  Tier-1 replays every golden from
scratch — on the kernel's fast timer path and with ``EnvStats`` on —
and compares **bytes**, exactly like the trace goldens: QoS floats are
rounded to :data:`~repro.search.runner.QOS_DECIMALS` decimals at
serialization time, and the document dumper is canonical
(sorted keys, fixed indent, newline-terminated).

Intentional-change workflow mirrors the trace goldens::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_scenario_goldens.py
    git diff tests/goldens/scenarios/   # review the semantic change
    git add tests/goldens/scenarios/
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

from repro.search.language import SPEC_VERSION, ScenarioSpec
from repro.search.runner import EvalParams, EvalResult, evaluate_spec

#: bump on any change to the golden document structure
GOLDEN_VERSION = 1


def expected_block(result: EvalResult) -> Dict[str, Any]:
    """The replay-checked outcome block of one golden."""
    return {
        "score": result.score,
        "feasible": result.feasible,
        "analytic": result.analytic,
        "controller_qos": result.controller_qos,
        "oracle_qos": result.oracle_qos,
    }


def golden_document(name: str, result: EvalResult, params: EvalParams) -> Dict[str, Any]:
    """One golden file's JSON-ready content."""
    return {
        "version": GOLDEN_VERSION,
        "spec_version": SPEC_VERSION,
        "name": name,
        "params": params.as_dict(),
        "scenario": result.spec.data,
        "expected": expected_block(result),
    }


def dumps_golden(doc: Dict[str, Any]) -> str:
    """The byte-exact golden serialization."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def load_golden(path) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def replay_golden(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Re-run a golden's scenario and return the fresh expected block.

    Byte-determinism means ``replay_golden(doc) == doc["expected"]``
    for a healthy tree, on either simulation kernel.
    """
    spec = ScenarioSpec.from_dict(doc["scenario"])
    params = EvalParams.from_dict(doc["params"])
    return expected_block(evaluate_spec(spec, params))


def write_goldens(
    directory, results: List[EvalResult], params: EvalParams, prefix: str = "search"
) -> List[Path]:
    """Write one golden per finding; returns the paths written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: List[Path] = []
    for i, result in enumerate(results):
        kinds = "-".join(sorted({f["kind"] for f in result.spec.faults})) or "schedule"
        name = f"{prefix}_{i:02d}_{kinds}"
        path = directory / f"{name}.json"
        path.write_text(dumps_golden(golden_document(name, result, params)))
        paths.append(path)
    return paths
