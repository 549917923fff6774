"""CI gate: every reproduction claim must hold (2400 frames here, the
Table V / VI lineup claims at their fixed 4000; full scale via
`framefeedback validate`).  The claims run once per
session in the ``validated`` fixture (``tests/conftest.py``)."""

import pytest

from repro.experiments import validation
from repro.experiments.validation import CLAIMS, Claim, render_results, validate_all


def test_every_claim_holds(validated):
    results, _calls = validated
    failing = [r for r in results.values() if not r.passed]
    assert not failing, render_results(failing)


def test_all_claims_were_run(validated):
    results, _calls = validated
    assert list(results) == [c.claim_id for c in CLAIMS]


def test_shared_experiments_run_once_per_call(validated):
    _results, calls = validated
    assert calls == {"run_fig2": 1, "run_fig3": 1, "run_fig4": 1}


def _holds(runs):
    return "ok", True


def _reads_fig3_unshared(runs):
    validation._fig3(runs)
    return "ran Table V again in a worker", True


def test_unshared_claim_reading_a_shared_experiment_raises():
    """A claim that reads a shared run must be registered ``shared=True``;
    otherwise it would re-run the experiment in a worker process, where
    the parent's once-per-call count cannot see it."""
    claims = [
        Claim("holds", "always true", _holds),
        Claim("unshared", "reads Table V without shared=True", _reads_fig3_unshared),
    ]
    with pytest.raises(RuntimeError, match="shared=True"):
        validate_all(frames=300, claims=claims)


def test_render_marks_verdicts(validated):
    results, _calls = validated
    text = render_results(list(results.values()))
    assert "PASS" in text
    assert f"{len(results)}/{len(results)} claims hold" in text


def test_claims_have_statements():
    for claim in CLAIMS:
        assert claim.statement
        assert claim.claim_id
