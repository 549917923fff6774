"""The cost ledger: exact counts of what seeded runs do, in ``BENCH_counts.json``.

Wall time on a shared host drifts by tens of percent between runs, but
the kernel timers, random draws and ``schedule()`` events a seeded run
makes repeat exactly, on any host and any Python.  So each ledger entry
records them for one workload, and the test compares every field with
``==``: ``fig3`` is a warm ``run_fig3(seed=1, total_frames=4000)``, the
run people reproduce; ``tournament`` is the seed-0 tournament, whose
background load and lossy links draw most; ``round_trip`` and
``routed_round_trip`` send 2,000 frames device → server → device
directly and through a one-server fleet ``Router``, so their difference
is the router's cost.  A new per-frame timer or draw, or a renamed
``event_owner``, fails here, naming the field; a change that moves a
count on purpose pastes the fresh entry the failure prints.  Timers
and draws per captured frame also keep the bounds they had before the
ledger, so a change that moves an exact count can still be read as a
per-frame cost.

cProfile cannot see random draws: a ``numpy.random.Generator`` method is
a Cython builtin, neither listed nor counted in ``total_calls``, yet a
scalar draw costs about a dozen Python calls.  So they are counted
through wrapped generators; a block draw (``rng.random(7)``) counts
once, like the one call it is.

Python calls are counted with cProfile, and that count depends on the
interpreter (an Enum member read runs Python code on 3.11, not on
3.12), so the ledger keeps two bounds instead: fig3's calls per frame,
and the calls per frame the router adds to the round trip.  An untraced
run must also call no function of the tracing package.
"""

import cProfile
import json
import os
import pstats
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.fig3 import run_fig3
from repro.experiments.tournament import TournamentConfig, run_tournament
from repro.sim.core import Environment, capture_env_stats
from repro.sim.rng import RngRegistry

LEDGER = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCH_counts.json").read_text()
)

#: kernel timers allowed per captured frame of the warm fig3 run.  The
#: ledger holds the exact count (3.51 per frame: the camera tick, the
#: server's batches, one uplink and one downlink delivery per frame, and
#: the few that queues share; 4.53 with an end-of-frame link timer and a
#: deadline watchdog per frame); this bound says what a frame may cost.
MAX_TIMERS_PER_FRAME = 3.55

#: ``Generator`` method calls allowed per captured frame.  Exact counts
#: are in the ledger: 1.32 for fig3 (2.31 with a scalar draw per packet
#: attempt and per GPU batch) and 2.10 for the seed-0 tournament (5.58
#: with scalar packet fates, GPU jitter and background arrival gaps).
MAX_DRAWS_PER_FRAME = {"fig3": 1.4, "tournament": 2.2}


class _CountingStream:
    """A ``Generator`` stand-in that counts the method calls made on it."""

    def __init__(self, gen, counts):
        self._gen = gen
        self._counts = counts

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr
        counts = self._counts

        def counted(*args, **kwargs):
            counts["draws"] += 1
            return attr(*args, **kwargs)

        return counted


def _accounted(run):
    """The ledger entry of ``run(counted)``, which returns its frames.

    The run sees every registry stream wrapped in a draw counter (and
    wraps a ``Generator`` of its own with ``counted``), and every
    environment with ``EnvStats`` on; ``Environment.schedule`` is
    counted too, since the events it pushes (a succeeded event, the
    ``run(until=...)`` stop) have no timer callback to name an owner.
    """
    counts = {"draws": 0, "schedule": 0}
    stream = RngRegistry.stream
    schedule = Environment.schedule
    wrapped = {}

    def counted(gen):
        return _CountingStream(gen, counts)

    def counting_stream(self, name):
        key = (id(self), name)
        if key not in wrapped:
            # the registry is kept alive, so its id is not reused
            wrapped[key] = (self, counted(stream(self, name)))
        return wrapped[key][1]

    def counting_schedule(self, *args, **kwargs):
        counts["schedule"] += 1
        return schedule(self, *args, **kwargs)

    sink = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RngRegistry, "stream", counting_stream)
        mp.setattr(Environment, "schedule", counting_schedule)
        capture_env_stats(sink)
        try:
            frames = run(counted)
        finally:
            capture_env_stats(None)
    owners = Counter()
    for stats in sink:
        owners.update(stats.events_by_process)
    return {
        "frames": frames,
        "events_scheduled": sum(stats.events_scheduled for stats in sink),
        "events_processed": sum(stats.events_processed for stats in sink),
        "events_cancelled": sum(stats.events_cancelled for stats in sink),
        "schedule_events": counts["schedule"],
        "draws": counts["draws"],
        "timers_by_owner": dict(sorted(owners.items(), key=lambda kv: (-kv[1], kv[0]))),
    }


def _fig3(counted=None) -> int:
    result = run_fig3(seed=1, total_frames=4000)
    return sum(run.qos.total_frames for run in result.runs.values())


def _tournament(counted=None) -> int:
    result = run_tournament(TournamentConfig(seed=0, workers=1))
    return sum(cell.qos["total_frames"] for cell in result.cells) + sum(
        qos["total_frames"] for qos in result.oracle_qos.values()
    )


def _round_trip(router: bool, counted=lambda gen: gen) -> int:
    """Device → uplink → server → downlink → device for 2,000 frames.

    No controller and a lossless link, so every frame makes it and the
    counts are the substrate's own.  With ``router`` the frames go
    through a one-server fleet ``Router`` (health prober, token-bucket
    admission, per-attempt route selection) as well.
    """
    from repro.device.camera import Frame
    from repro.device.offload import OffloadClient
    from repro.fleet.config import FleetConfig
    from repro.fleet.pool import ServerPool
    from repro.fleet.router import Router
    from repro.netem.link import ConditionBox, Link, LinkConditions
    from repro.server.server import EdgeServer

    n = 2_000
    env = Environment()
    box = ConditionBox(LinkConditions(bandwidth=10.0, loss=0.0))
    uplink = Link(env, counted(np.random.default_rng(1)), box, queue_bytes_cap=1e9)
    downlink = Link(env, counted(np.random.default_rng(2)), box, name="downlink",
                    queue_bytes_cap=1e9)
    server = EdgeServer(env, counted(np.random.default_rng(3)), name="edge0")
    # admission generous enough to never throttle the 30 fps stream
    fleet = FleetConfig(admission_rate=1e9, admission_burst=1e9)
    delivered = []
    client = OffloadClient(
        env,
        uplink=uplink,
        downlink=downlink,
        server=server,
        tenant="bench",
        model_name="mobilenet_v3_small",
        deadline=0.25,
        response_bytes=256,
        on_success=lambda frame, rtt: delivered.append(frame),
        on_timeout=lambda frame, why: None,
        router=Router(ServerPool(env, [server], fleet)) if router else None,
    )

    def frame(event):
        i = event.value
        client.send(Frame(frame_id=i, captured_at=env.now, nbytes=11_700))
        if i + 1 < n:
            env.call_later(1.0 / 30.0, frame, i + 1)

    env.call_later(0.0, frame, 0)
    # the pool's health prober never exits, so bound the run instead
    # of draining the heap: stream length + one full deadline
    env.run(until=n / 30.0 + 1.0)
    assert len(delivered) == n
    return n


RUNS = {
    "fig3": _fig3,
    "tournament": _tournament,
    "round_trip": lambda counted: _round_trip(False, counted),
    "routed_round_trip": lambda counted: _round_trip(True, counted),
}


def _profiled(run):
    """``(pstats.Stats, frames)`` of one untraced run."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        frames = run()
    finally:
        profile.disable()
    return pstats.Stats(profile), frames


def _fields(entry):
    """An entry with ``timers_by_owner`` spread into one field per owner."""
    fields = {k: v for k, v in entry.items() if k != "timers_by_owner"}
    for owner, n in entry["timers_by_owner"].items():
        fields[f"timers_by_owner[{owner}]"] = n
    return fields


@pytest.fixture(scope="module")
def warm():
    # imports, memoized frame sizes and the MDP's policy cache are paid
    # once per process, not per frame
    run_fig3(seed=1, total_frames=400)
    _round_trip(router=True)


@pytest.fixture(scope="module")
def accounted(warm):
    """Workload name -> its fresh ledger entry, each run once."""
    cache = {}

    def get(workload):
        if workload not in cache:
            cache[workload] = _accounted(RUNS[workload])
        return cache[workload]

    return get


@pytest.fixture(scope="module")
def profiled(warm):
    """``(pstats.Stats, frames)`` of one untraced, warm fig3 run."""
    return _profiled(_fig3)


@pytest.mark.parametrize("workload", sorted(RUNS))
def test_counts_match_the_ledger(workload, accounted):
    fresh = accounted(workload)
    recorded, counted = _fields(LEDGER[workload]), _fields(fresh)
    changed = [
        f"{field}: ledger {recorded.get(field)}, fresh {counted.get(field)}"
        for field in sorted(set(recorded) | set(counted))
        if recorded.get(field) != counted.get(field)
    ]
    assert not changed, (
        f"{workload} counts differ from BENCH_counts.json:\n  "
        + "\n  ".join(changed)
        + f"\nfresh entry:\n{json.dumps({workload: fresh}, indent=2)}"
    )


def test_fig3_stays_within_its_per_frame_call_budget(profiled):
    stats, frames = profiled
    calls = stats.total_calls
    bound = LEDGER["bounds"]["fig3_calls_per_frame"]
    assert frames == LEDGER["fig3"]["frames"]
    assert calls / frames <= bound, (
        f"{calls} calls for {frames} frames = {calls / frames:.1f} per frame"
        f" (bound {bound})"
    )


def test_fig3_stays_within_its_per_frame_timer_budget(accounted):
    entry = accounted("fig3")
    timers, frames = entry["events_scheduled"], entry["frames"]
    assert frames == LEDGER["fig3"]["frames"]
    assert timers / frames <= MAX_TIMERS_PER_FRAME, (
        f"{timers} timers for {frames} frames = {timers / frames:.2f} per frame"
    )


@pytest.mark.parametrize("workload", ["fig3", "tournament"])
def test_random_draws_stay_within_their_per_frame_budget(workload, accounted):
    entry = accounted(workload)
    draws, frames = entry["draws"], entry["frames"]
    assert frames > 0
    assert draws / frames <= MAX_DRAWS_PER_FRAME[workload], (
        f"{draws} draws for {frames} frames = {draws / frames:.2f} per frame"
    )


def test_the_router_stays_within_its_per_frame_call_budget(warm):
    direct, frames = _profiled(lambda: _round_trip(router=False))
    routed, _frames = _profiled(lambda: _round_trip(router=True))
    extra = (routed.total_calls - direct.total_calls) / frames
    bound = LEDGER["bounds"]["router_extra_calls_per_frame"]
    assert extra <= bound, (
        f"the router adds {extra:.1f} calls per frame to the round trip"
        f" ({direct.total_calls} direct, {routed.total_calls} routed,"
        f" {frames} frames; bound {bound})"
    )


@pytest.mark.parametrize("workload", ["fig3", "tournament"])
def test_every_timer_has_an_owner(workload, accounted):
    """``events_by_process`` adds up to ``events_scheduled``: every
    ``call_at`` / ``call_later`` timer is counted under its component,
    and the events ``schedule()`` pushes are the only ones without."""
    entry = accounted(workload)
    owned = sum(entry["timers_by_owner"].values())
    total = entry["events_scheduled"]
    scheduled = entry["schedule_events"]
    assert owned + scheduled == total, f"{total - owned - scheduled} timers have no owner"
    for part in (":offload", ":local"):
        assert any(owner.endswith(part) for owner in entry["timers_by_owner"]), entry


def test_tracing_is_free_when_off(profiled):
    """An untraced run calls no function of the tracing package: every
    hook stops at its ``env.tracer is None`` check."""
    stats, _frames_seen = profiled
    package = os.path.join("repro", "trace", "")
    called = sorted(
        f"{os.path.basename(filename)}:{name}"
        for (filename, _line, name) in stats.stats
        if package in filename
    )
    assert called == []
