"""Standalone DES-kernel baseline runner: emits ``BENCH_kernel.json``.

Unlike the pytest-benchmark suites in this directory, this runner has
no dependencies beyond the repo itself, so CI's perf-smoke job (and
anyone bisecting a slowdown) can run it directly::

    PYTHONPATH=src python benchmarks/kernel_baseline.py --json BENCH_kernel.json
    PYTHONPATH=src python benchmarks/kernel_baseline.py --check BENCH_kernel.json

``--check`` compares a fresh run against the committed baseline and
exits non-zero when event throughput regresses more than
``--tolerance`` (default 25 %).  Raw events/sec are machine-dependent,
so the comparison is normalized by a pure-``heapq`` calibration loop
measured both at baseline-record time and at check time: the check
compares *kernel overhead relative to what this machine can do*, which
transfers across hosts far better than absolute rates.
"""

from __future__ import annotations

import argparse
import heapq
import json
import platform
import sys
import time
from typing import Callable, Dict, Optional

from repro.sim import Environment

#: benches whose throughput the --check gate enforces
GATED = ("event_throughput", "offload_round_trip", "routed_round_trip")

#: max fraction of round-trip throughput the fleet Router may cost at
#: N=1 (same substrate, one-server pool): routing must be a seam, not
#: a tax.  Checked from the same fresh run, so machine speed cancels.
ROUTER_OVERHEAD_MAX = 0.05


def _best_of(fn: Callable[[], float], reps: int = 3) -> float:
    """Run ``fn`` (returns an ops count) ``reps`` times; best ops/sec."""
    best = 0.0
    for _ in range(reps):
        t0 = time.perf_counter()
        ops = fn()
        wall = time.perf_counter() - t0
        if wall > 0:
            best = max(best, ops / wall)
    return best


def calibration_score(reps: int = 3) -> float:
    """Machine-speed reference: pure-python heapq push/pop ops/sec.

    Used to normalize kernel throughput across machines — the kernel is
    a Python loop around a heap, so this tracks the dominant costs
    (interpreter dispatch, allocation, heap ops) without touching any
    repo code that a PR could change.
    """
    n = 200_000

    def run() -> float:
        h: list = []
        push, pop = heapq.heappush, heapq.heappop
        for i in range(n):
            push(h, ((i * 2654435761) & 1023, i))
        while h:
            pop(h)
        return 2.0 * n

    return _best_of(run, reps)


# ----------------------------------------------------------------------
# benches — each returns "events of useful work per wall second"
# ----------------------------------------------------------------------
def _noop(event) -> None:
    pass


def bench_event_throughput() -> float:
    """A periodic timer chain ticking 50k times (camera/controller shape)."""
    n = 50_000

    def run() -> float:
        env = Environment()

        def tick(event):
            if event.value:
                env.call_later(0.001, tick, event.value - 1)

        env.call_later(0.001, tick, n - 1)
        env.run()
        assert env.now > 0.001 * (n - 1)
        return float(n)

    return _best_of(run)


def bench_timer_cancel() -> float:
    """20k armed-then-dead deadline timers (the offload watchdog shape).

    The timers are cancelled and lazily skipped, so the run never
    advances to their deadlines.
    """
    n = 20_000

    def run() -> float:
        env = Environment()
        timers = [env.call_later(10.0, _noop) for _ in range(n)]
        for t in timers:
            t.cancel()
        env.run()
        return float(n)

    return _best_of(run)


def bench_offload_round_trip() -> float:
    """Device->link->server->link->device for 2k frames, no controller.

    The §II-B pipelined path in isolation: token costs are frame
    serialization, the per-frame deadline watchdog, server batching and
    the response trip.  Good network, zero loss — every frame makes it,
    so the number is pure kernel + substrate overhead.
    """
    import numpy as np

    from repro.device.camera import Frame
    from repro.device.offload import OffloadClient
    from repro.netem.link import ConditionBox, Link, LinkConditions
    from repro.server.server import EdgeServer

    n = 2_000

    def run() -> float:
        env = Environment()
        box = ConditionBox(LinkConditions(bandwidth=10.0, loss=0.0))
        uplink = Link(env, np.random.default_rng(1), box, queue_bytes_cap=1e9)
        downlink = Link(env, np.random.default_rng(2), box, name="downlink",
                        queue_bytes_cap=1e9)
        server = EdgeServer(env, np.random.default_rng(3))
        done = {"ok": 0, "bad": 0}
        client = OffloadClient(
            env,
            uplink=uplink,
            downlink=downlink,
            server=server,
            tenant="bench",
            model_name="mobilenet_v3_small",
            deadline=0.25,
            response_bytes=256,
            on_success=lambda frame, rtt: done.__setitem__("ok", done["ok"] + 1),
            on_timeout=lambda frame, why: done.__setitem__("bad", done["bad"] + 1),
        )

        def frame(event):
            i = event.value
            client.send(Frame(frame_id=i, captured_at=env.now, nbytes=11_700))
            if i + 1 < n:
                env.call_later(1.0 / 30.0, frame, i + 1)

        env.call_later(0.0, frame, 0)
        env.run()
        assert done["ok"] + done["bad"] == n
        return float(n)

    return _best_of(run)


def bench_routed_round_trip() -> float:
    """The offload round trip through a one-server fleet Router.

    Identical substrate to :func:`bench_offload_round_trip` plus the
    fleet seam (ServerPool health tracking, token-bucket admission,
    per-attempt route selection).  The delta between the two benches is
    the router's per-frame cost, gated by :data:`ROUTER_OVERHEAD_MAX`.
    """
    import numpy as np

    from repro.device.camera import Frame
    from repro.device.offload import OffloadClient
    from repro.fleet.config import FleetConfig
    from repro.fleet.pool import ServerPool
    from repro.fleet.router import Router
    from repro.netem.link import ConditionBox, Link, LinkConditions
    from repro.server.server import EdgeServer

    n = 2_000

    def run() -> float:
        env = Environment()
        box = ConditionBox(LinkConditions(bandwidth=10.0, loss=0.0))
        uplink = Link(env, np.random.default_rng(1), box, queue_bytes_cap=1e9)
        downlink = Link(env, np.random.default_rng(2), box, name="downlink",
                        queue_bytes_cap=1e9)
        server = EdgeServer(env, np.random.default_rng(3), name="edge0")
        # admission generous enough to never throttle the 30 fps stream
        pool = ServerPool(
            env, [server], FleetConfig(admission_rate=1e9, admission_burst=1e9)
        )
        router = Router(pool)
        done = {"ok": 0, "bad": 0}
        client = OffloadClient(
            env,
            uplink=uplink,
            downlink=downlink,
            server=server,
            tenant="bench",
            model_name="mobilenet_v3_small",
            deadline=0.25,
            response_bytes=256,
            on_success=lambda frame, rtt: done.__setitem__("ok", done["ok"] + 1),
            on_timeout=lambda frame, why: done.__setitem__("bad", done["bad"] + 1),
            router=router,
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
        assert done["ok"] + done["bad"] == n
        return float(n)

    return _best_of(run)


BENCHES: Dict[str, Callable[[], float]] = {
    "event_throughput": bench_event_throughput,
    "timer_cancel": bench_timer_cancel,
    "offload_round_trip": bench_offload_round_trip,
    "routed_round_trip": bench_routed_round_trip,
}


def measured_router_overhead(pairs: int = 3) -> float:
    """Best paired estimate of the router's N=1 throughput cost.

    Direct and routed round trips are measured back-to-back ``pairs``
    times and the most favorable pairing wins: scheduler noise on a
    loaded host only ever slows one side of a pair, so the best pair
    is the cleanest look at the systematic cost — a router that truly
    taxes the hot path shows up in every pairing.
    """
    best = 1.0
    for _ in range(pairs):
        direct = bench_offload_round_trip()
        routed = bench_routed_round_trip()
        if direct > 0:
            best = min(best, max(0.0, 1.0 - routed / direct))
    return best


def run_all() -> Dict[str, object]:
    results: Dict[str, float] = {}
    for name, fn in BENCHES.items():
        results[name] = round(fn(), 1)
    return {
        "calibration_heapq_ops_per_sec": round(calibration_score(), 1),
        "benches_events_per_sec": results,
        "machine": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
        },
    }


def check(fresh: Dict[str, object], baseline: Dict[str, object],
          tolerance: float) -> int:
    """Gate: normalized throughput must be within ``tolerance`` of baseline."""
    base_cal = float(baseline["calibration_heapq_ops_per_sec"])
    fresh_cal = float(fresh["calibration_heapq_ops_per_sec"])
    scale = fresh_cal / base_cal  # how much faster this machine is
    failures = 0
    print(f"machine speed vs baseline host: {scale:.2f}x "
          f"(heapq {fresh_cal:,.0f} vs {base_cal:,.0f} ops/s)")
    baseline_benches = baseline["benches_events_per_sec"]
    for name in GATED:
        if name not in baseline_benches:
            continue  # older baseline predates this bench
        # the committed baseline stores before/after; gate on "after"
        recorded = baseline_benches[name]
        expected = float(recorded["after"] if isinstance(recorded, dict) else recorded)
        floor = expected * scale * (1.0 - tolerance)
        got = float(fresh["benches_events_per_sec"][name])
        verdict = "ok" if got >= floor else "REGRESSED"
        if got < floor:
            failures += 1
        print(f"  {name:22s} {got:12,.0f} ev/s  "
              f"(floor {floor:12,.0f} = {expected:,.0f} x {scale:.2f} "
              f"x {1 - tolerance:.2f})  {verdict}")
    # Router-overhead bound: routed vs direct round trip measured in
    # interleaved pairs on the same host, so machine speed cancels
    # exactly (no calibration needed).
    bound = float(baseline.get("router_overhead_max", ROUTER_OVERHEAD_MAX))
    overhead = measured_router_overhead()
    verdict = "ok" if overhead <= bound else "REGRESSED"
    if overhead > bound:
        failures += 1
    print(f"  router overhead (N=1)  {100 * overhead:10.2f} %    "
          f"(bound {100 * bound:.1f}%, best of 3 paired runs)  {verdict}")
    return 1 if failures else 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=str, default=None,
                        help="write results to this path")
    parser.add_argument("--check", type=str, default=None,
                        help="compare against a committed baseline JSON")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed normalized regression (default 0.25)")
    args = parser.parse_args(argv)

    fresh = run_all()
    text = json.dumps(fresh, indent=1, sort_keys=True)
    print(text)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        return check(fresh, baseline, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
