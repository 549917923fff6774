"""Property-based tests (hypothesis) for fleet failover.

Two families over random kill times, windows, and seeds:

* **exactly-once settlement** — every frame alive at a ServerKill
  reaches exactly one terminal state (success, timeout, or local drop);
  nothing double-settles, nothing is orphaned in flight, regardless of
  where the kill lands or how many frames it catches mid-air;
* **byte determinism** — identical fleet runs serialize byte-identically
  for any seed/kill combination, and on the kernel's fast and slow
  (accounted) timer paths alike.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.chaos import run_chaos
from repro.fleet.chaos import fleet_chaos_scenario, run_fleet_chaos
from repro.sim import core as sim_core

kill_times = st.floats(min_value=2.0, max_value=12.0)
windows = st.floats(min_value=0.5, max_value=6.0)
seeds = st.integers(min_value=0, max_value=50)
policies = st.sampled_from(["round_robin", "least_loaded", "latency_aware"])


def _run(seed, kill_at, window, policy="round_robin", failover=True):
    chaos = fleet_chaos_scenario(
        seed=seed,
        total_frames=600,
        kill=("edge0", float(kill_at), float(window)),
        policy=policy,
        failover=failover,
    )
    return run_chaos(chaos)


@settings(max_examples=12, deadline=None)
@given(seed=seeds, kill_at=kill_times, window=windows, policy=policies)
def test_every_frame_settles_exactly_once(seed, kill_at, window, policy):
    result = _run(seed, kill_at, window, policy)
    qos = result.run.qos
    # exactly-once: the three terminal states partition the frame set
    assert qos.successful + qos.timeouts + qos.dropped_local == qos.total_frames
    # no orphaned in-flight frames after the run drains
    assert qos.extras["fleet.outstanding"] == 0.0
    # failover flow conservation: every frame moved out of the killed
    # server landed in exactly one healthy one
    ex = qos.extras
    out = sum(v for k, v in ex.items() if k.endswith(".failed_over_out"))
    moved_in = sum(v for k, v in ex.items() if k.endswith(".failed_over_in"))
    assert out == moved_in == ex["fleet.failovers"]


@settings(max_examples=12, deadline=None)
@given(seed=seeds, kill_at=kill_times, window=windows)
def test_failover_never_loses_more_than_ablation(seed, kill_at, window):
    on = _run(seed, kill_at, window, failover=True).run.qos
    off = _run(seed, kill_at, window, failover=False).run.qos
    # both settle every frame...
    assert on.successful + on.timeouts + on.dropped_local == on.total_frames
    assert off.successful + off.timeouts + off.dropped_local == off.total_frames
    # ...and rescue can only help: never fewer successes with failover
    assert on.successful >= off.successful


@settings(max_examples=6, deadline=None)
@given(seed=seeds, kill_at=kill_times, window=windows)
def test_fleet_run_is_deterministic_same_kernel(seed, kill_at, window):
    docs = [
        json.dumps(_run(seed, kill_at, window).to_dict(), sort_keys=True)
        for _ in range(2)
    ]
    assert docs[0] == docs[1]


def _doc(seed):
    """Serialize one fleet twin run."""
    r = run_fleet_chaos(seed=seed, total_frames=300)
    return json.dumps(r.to_dict(), sort_keys=True)


def test_fleet_twin_byte_identical_across_kernels():
    """Seeds-equal fleet runs serialize byte-identically on the kernel's
    fast timer path and on its slow, accounted one (EnvStats on)."""
    for seed in (0, 7):
        fast = _doc(seed)
        sim_core.capture_env_stats([])
        try:
            slow = _doc(seed)
        finally:
            sim_core.capture_env_stats(None)
        assert fast == slow, f"kernel divergence at seed {seed}"
