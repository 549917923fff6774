"""Multi-seed statistics: are the paper's orderings luck or signal?

The paper reports single runs; this module reruns any scenario across
seeds and summarizes each metric with mean, standard deviation, and a
normal-approximation confidence interval, plus a win-rate table for
controller comparisons.  The ``robustness`` claim of ``framefeedback
validate`` uses them to check that the Fig 3 ordering survives seed
variation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.experiments.scenario import RunResult, Scenario, run_scenario

#: z for a ~95% two-sided normal CI
Z95 = 1.96


@dataclass(frozen=True)
class MetricSummary:
    """Mean/std/CI of one scalar metric across seeds."""

    name: str
    values: tuple
    mean: float
    std: float
    ci_half_width: float

    @property
    def lo(self) -> float:
        return self.mean - self.ci_half_width

    @property
    def hi(self) -> float:
        return self.mean + self.ci_half_width

    @classmethod
    def from_values(cls, name: str, values: Sequence[float]) -> "MetricSummary":
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            raise ValueError("no values to summarize")
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        return cls(
            name=name,
            values=tuple(arr.tolist()),
            mean=float(arr.mean()),
            std=std,
            ci_half_width=Z95 * std / np.sqrt(arr.size) if arr.size > 1 else 0.0,
        )

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"{self.name}: {self.mean:.2f} ± {self.ci_half_width:.2f} (std {self.std:.2f})"


def run_across_seeds(
    scenario: Scenario,
    seeds: Sequence[int],
    metric: Callable[[RunResult], float] = lambda r: r.qos.mean_throughput,
    metric_name: str = "mean_throughput",
) -> MetricSummary:
    """Run one scenario once per seed and summarize ``metric``."""
    if not seeds:
        raise ValueError("need at least one seed")
    values = [metric(run_scenario(scenario.with_seed(s))) for s in seeds]
    return MetricSummary.from_values(metric_name, values)


def compare_across_seeds(
    scenario: Scenario,
    controllers: Dict[str, Callable],
    seeds: Sequence[int],
    metric: Callable[[RunResult], float] = lambda r: r.qos.mean_throughput,
) -> Dict[str, MetricSummary]:
    """Per-controller metric summaries on identical seed sets."""
    per_controller: Dict[str, List[float]] = {name: [] for name in controllers}
    for seed in seeds:
        for name, factory in controllers.items():
            result = run_scenario(
                replace(scenario, controller_factory=factory, seed=seed)
            )
            per_controller[name].append(metric(result))
    return {
        name: MetricSummary.from_values(name, values)
        for name, values in per_controller.items()
    }


def win_rate(
    summaries: Dict[str, MetricSummary], challenger: str, incumbent: str
) -> float:
    """Fraction of seeds where ``challenger`` beats ``incumbent``."""
    a = summaries[challenger].values
    b = summaries[incumbent].values
    if len(a) != len(b):
        raise ValueError("summaries cover different seed sets")
    wins = sum(1 for x, y in zip(a, b) if x > y)
    return wins / len(a)
