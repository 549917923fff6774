"""Tests for the process-parallel experiment runner."""

import os
import time

import numpy as np
import pytest

from repro.experiments.parallel import (
    controller_sweep_configs,
    execute_config,
    map_jobs,
    run_many,
    seed_sweep_configs,
)

BASE = {
    "controller": "FrameFeedback",
    "seed": 0,
    "device": {"total_frames": 450},
    "network": [[0, 4, 0]],
}


def test_execute_config_runs_one_scenario():
    summary = execute_config(BASE)
    assert summary.controller == "FrameFeedback"
    assert summary.total_frames == 450
    assert summary.mean_throughput > 10.0
    assert summary.traces == {}


def test_execute_config_returns_requested_traces():
    summary = execute_config(BASE, trace_names=("throughput", "offload_target"))
    assert set(summary.traces) == {"throughput", "offload_target"}
    assert summary.traces["throughput"].size > 5


def test_execute_config_rejects_unknown_trace():
    with pytest.raises(ValueError):
        execute_config(BASE, trace_names=("nonsense",))


def test_seed_and_controller_sweep_builders():
    seeds = seed_sweep_configs(BASE, range(3))
    assert [c["seed"] for c in seeds] == [0, 1, 2]
    assert all(c["controller"] == "FrameFeedback" for c in seeds)
    ctrls = controller_sweep_configs(BASE, ["LocalOnly", "AIMD"])
    assert [c["controller"] for c in ctrls] == ["LocalOnly", "AIMD"]


def test_run_many_empty():
    assert run_many([]) == []


def test_run_many_validates_workers():
    with pytest.raises(ValueError):
        run_many([BASE], workers=0)


def test_run_many_serial_equals_parallel():
    configs = seed_sweep_configs(BASE, range(4))
    serial = run_many(configs, workers=1)
    parallel = run_many(configs, workers=2)
    assert [s.mean_throughput for s in serial] == [
        p.mean_throughput for p in parallel
    ]
    assert [s.seed for s in parallel] == [0, 1, 2, 3]  # input order kept


def test_map_jobs_preserves_submission_order():
    jobs = list(range(7))
    assert map_jobs(_double, jobs, workers=3) == [0, 2, 4, 6, 8, 10, 12]
    assert map_jobs(_double, jobs, workers=1) == [0, 2, 4, 6, 8, 10, 12]
    assert map_jobs(_double, []) == []
    with pytest.raises(ValueError):
        map_jobs(_double, jobs, workers=0)


def _double(x: int) -> int:
    return 2 * x


def _worker_pid(_job) -> int:
    # hold the worker long enough that the pool hands the next job to
    # its second process instead of queueing it behind this one
    time.sleep(0.2)
    return os.getpid()


def test_map_jobs_fans_out_over_worker_processes():
    pids = map_jobs(_worker_pid, range(4), workers=2)
    assert len(set(pids)) >= 2
    assert os.getpid() not in pids


def test_run_many_matches_direct_execution():
    configs = controller_sweep_configs(BASE, ["FrameFeedback", "LocalOnly"])
    results = run_many(configs, workers=2)
    by_name = {r.controller: r for r in results}
    assert by_name["LocalOnly"].mean_throughput == pytest.approx(13.0, abs=1.5)
    assert (
        by_name["FrameFeedback"].mean_throughput
        > by_name["LocalOnly"].mean_throughput
    )
