"""Session-wide fixtures."""

from collections import Counter

import pytest


@pytest.fixture(scope="session")
def validated():
    """Every reproduction claim at 2400 frames, run once per session.

    Returns ``(results by claim id, calls)``, where ``calls`` counts the
    runs of the experiments claims share (each must run once).  2400
    frames (~80 s) keeps the scale-free claims short.  Claims about late
    schedule phases fix their own scale: the Table V / Table VI lineup
    claims (``fig3-*``, ``fig4-*``, ``lineup``, ``regret``, ``headroom``,
    ``reservation-blind-spot``, ``tn-tl-split``, ``adaptive-quality``)
    and ``three-pi`` always run 4000 frames, here as in ``validate``;
    ``lineup`` checks its 2400-frame bound on the first 80 s of that run.
    """
    import repro.experiments.fig2 as fig2
    import repro.experiments.fig3 as fig3
    import repro.experiments.fig4 as fig4
    from repro.experiments.validation import validate_all

    calls = Counter()

    def counted(real):
        def wrapper(*args, **kwargs):
            calls[real.__name__] += 1
            return real(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for module, name in ((fig2, "run_fig2"), (fig3, "run_fig3"), (fig4, "run_fig4")):
            mp.setattr(module, name, counted(getattr(module, name)))
        results = validate_all(frames=2400)
    return {r.claim_id: r for r in results}, calls


@pytest.fixture
def claim(validated):
    """Assert that one reproduction claim holds."""
    results, _calls = validated

    def check(claim_id: str) -> None:
        result = results[claim_id]
        assert result.passed, f"{claim_id}: {result.measured}"

    return check
