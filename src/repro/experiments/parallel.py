"""Process-parallel experiment execution.

Sweeps (seed grids, gain grids, scenario matrices) are embarrassingly
parallel: every run is an independent, deterministic function of its
config.  This module fans runs out over a process pool.

Because controller factories are closures (not picklable), jobs travel
as plain-run scenario specs (:func:`repro.search.compiler.benign_spec`);
each worker compiles its scenario and returns a picklable
:class:`RunSummary` (QoS scalars + requested trace arrays), never the
full RunResult.

Usage::

    from repro.experiments.parallel import run_many, seed_sweep_configs

    configs = seed_sweep_configs(base_config, seeds=range(16))
    summaries = run_many(configs, workers=8)

Falls back to in-process execution for ``workers=1`` (and transparently
in environments where process pools are unavailable), so callers never
need two code paths.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np


@dataclass
class RunSummary:
    """Picklable subset of a RunResult."""

    config: dict
    controller: str
    seed: int
    mean_throughput: float
    mean_violation_rate: float
    successful: int
    timeouts: int
    total_frames: int
    traces: Dict[str, np.ndarray] = field(default_factory=dict)


#: trace names a job may request (keep the IPC payload bounded)
TRACE_NAMES = (
    "throughput",
    "offload_target",
    "offload_rate",
    "timeout_rate",
    "local_rate",
    "capture_quality",
)


def execute_config(config: dict, trace_names: Sequence[str] = ()) -> RunSummary:
    """Run one serialized scenario (the worker entry point)."""
    from repro.experiments.scenario import run_scenario
    from repro.search.compiler import benign_spec, compile_scenario

    unknown = set(trace_names) - set(TRACE_NAMES)
    if unknown:
        raise ValueError(f"unknown trace names: {sorted(unknown)}")

    scenario = compile_scenario(benign_spec(config))
    result = run_scenario(scenario)
    traces = {
        name: np.asarray(getattr(result.traces, name).values)
        for name in trace_names
    }
    return RunSummary(
        config=config,
        controller=result.controller_name,
        seed=scenario.seed,
        mean_throughput=result.qos.mean_throughput,
        mean_violation_rate=result.qos.mean_violation_rate,
        successful=result.qos.successful,
        timeouts=result.qos.timeouts,
        total_frames=result.qos.total_frames,
        traces=traces,
    )


def map_jobs(fn, jobs: Sequence, workers: Optional[int] = None) -> List:
    """Ordered process-pool map with the sandboxed-environment fallback.

    ``fn`` must be a picklable module-level function of one picklable
    argument.  Results come back in the order of ``jobs`` regardless of
    completion order, so parallel sweeps stay deterministic; in
    fork-restricted environments (or for ``workers=1``) execution is
    transparently in-process.  Shared by the experiment sweeps here and
    the adversarial scenario search (:mod:`repro.search.runner`).
    """
    if not jobs:
        return []
    if workers is None:
        workers = min(len(jobs), os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    if workers == 1 or len(jobs) == 1:
        return [fn(job) for job in jobs]

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, job) for job in jobs]
            return [f.result() for f in futures]
    except (OSError, PermissionError):  # sandboxed / fork-restricted envs
        return [fn(job) for job in jobs]


def _execute_job(job: tuple) -> RunSummary:
    """Pool entry point for :func:`run_many` (picklable wrapper)."""
    config, trace_names = job
    return execute_config(config, trace_names)


def run_many(
    configs: Sequence[dict],
    workers: Optional[int] = None,
    trace_names: Sequence[str] = (),
) -> List[RunSummary]:
    """Execute many serialized scenarios, in parallel when possible.

    Results are returned in the order of ``configs`` regardless of
    completion order (determinism of the *sweep*, not just each run).
    """
    return map_jobs(
        _execute_job, [(c, tuple(trace_names)) for c in configs], workers=workers
    )


def seed_sweep_configs(base: dict, seeds: Iterable[int]) -> List[dict]:
    """The same scenario across seeds."""
    return [{**base, "seed": int(s)} for s in seeds]


def controller_sweep_configs(base: dict, controllers: Iterable[str]) -> List[dict]:
    """The same scenario across controllers (registry names)."""
    return [{**base, "controller": name} for name in controllers]
