"""Paired significance testing for controller comparisons.

Seed sweeps yield *paired* samples (both controllers see identical
seeds), so the right question is "how often would a sign-flip of the
paired differences produce a mean this large?" — the exact paired
permutation test.  No distributional assumptions, exact for the small
seed counts used here (2^n flips enumerated when feasible, sampled
otherwise).
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Sequence

import numpy as np


def paired_permutation_test(
    a: Sequence[float],
    b: Sequence[float],
    n_resamples: int = 10_000,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Two-sided p-value for mean(a - b) != 0 under sign-flips.

    Enumerates all ``2^n`` sign patterns when ``n <= 20`` (exact test);
    otherwise Monte-Carlo with ``n_resamples`` draws.
    """
    diffs = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    n = diffs.size
    if n == 0:
        raise ValueError("need at least one pair")
    if np.allclose(diffs, 0.0):
        return 1.0
    observed = abs(diffs.mean())

    if n <= 20:
        count = 0
        total = 2**n
        for signs in product((1.0, -1.0), repeat=n):
            if abs((diffs * np.asarray(signs)).mean()) >= observed - 1e-15:
                count += 1
        return count / total

    rng = rng or np.random.default_rng(0)
    signs = rng.choice((1.0, -1.0), size=(n_resamples, n))
    stats = np.abs((signs * diffs).mean(axis=1))
    # +1 correction: the observed labelling counts as one permutation
    return float((np.sum(stats >= observed - 1e-15) + 1) / (n_resamples + 1))


def effect_size(a: Sequence[float], b: Sequence[float]) -> float:
    """Paired Cohen's d: mean difference over the difference's std."""
    diffs = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    if diffs.size < 2:
        raise ValueError("need at least two pairs for an effect size")
    sd = diffs.std(ddof=1)
    if sd == 0.0:
        return float("inf") if diffs.mean() != 0 else 0.0
    return float(diffs.mean() / sd)


def bootstrap_mean_diff_ci(
    a: Sequence[float],
    b: Sequence[float],
    confidence: float = 0.95,
    n_resamples: int = 10_000,
    rng: Optional[np.random.Generator] = None,
) -> tuple:
    """Percentile bootstrap CI for the paired mean difference ``a - b``.

    Resamples the paired differences with replacement; no normality
    assumption, honest at the small seed counts used here (the CI just
    gets wide).  Returns ``(lo, hi)``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    diffs = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    n = diffs.size
    if n == 0:
        raise ValueError("need at least one pair")
    rng = rng or np.random.default_rng(0)
    idx = rng.integers(0, n, size=(n_resamples, n))
    means = diffs[idx].mean(axis=1)
    tail = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(means, (tail, 1.0 - tail))
    return float(lo), float(hi)


def equivalent_within(
    a: Sequence[float],
    b: Sequence[float],
    margin: float,
    confidence: float = 0.95,
    n_resamples: int = 10_000,
    rng: Optional[np.random.Generator] = None,
) -> bool:
    """Bootstrap equivalence test: is ``mean(a - b)`` within ``±margin``?

    Two one-sided tests by CI inclusion: ``a`` and ``b`` are declared
    equivalent when the whole bootstrap confidence interval of the
    paired mean difference lies inside ``[-margin, +margin]``.  This is
    an *equivalence* claim, which a non-significant p-value alone cannot
    make.  Its only user is the sim-vs-gateway twin check
    (:mod:`repro.realtime.twin`).
    """
    if margin <= 0.0:
        raise ValueError(f"margin must be positive, got {margin!r}")
    lo, hi = bootstrap_mean_diff_ci(
        a, b, confidence=confidence, n_resamples=n_resamples, rng=rng
    )
    return -margin <= lo and hi <= margin
