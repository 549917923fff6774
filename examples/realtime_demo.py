#!/usr/bin/env python
"""The same FrameFeedback controller, running in wall-clock time.

Everything else in this repository runs in simulated time; this demo
drives the identical controller object on an asyncio event loop with a
cooperative local pipeline and a fake remote whose conditions degrade
mid-run — a miniature of the paper's actual Pi deployment.

Takes ~10 real seconds.  Run:  python examples/realtime_demo.py
"""

import asyncio

from repro.control.framefeedback import FrameFeedbackController
from repro.realtime import AsyncFakeRemote, AsyncRealTimeLoop, RemoteConditions

DURATION, DEGRADE_AT = 10.0, 5.0
GOOD = RemoteConditions(latency=0.04, jitter=0.01, failure_probability=0.0)
BAD = RemoteConditions(latency=0.18, jitter=0.08, failure_probability=0.25)


async def run():
    remote = AsyncFakeRemote(seed=0, deadline=0.25)
    remote.conditions = GOOD

    async def degrade_later() -> None:
        await asyncio.sleep(DEGRADE_AT)
        print("--- injecting degradation (latency x4.5, 25% failures) ---")
        remote.conditions = BAD

    loop = AsyncRealTimeLoop(
        FrameFeedbackController(30.0),
        remote,
        frame_rate=30.0,
        local_latency=0.05,  # a fast local model: ~20 fps locally
    )
    print(
        f"running {DURATION:.0f} s wall-clock "
        f"(degradation at t={DEGRADE_AT:.0f} s)..."
    )
    degrade = asyncio.create_task(degrade_later())
    traces = await loop.run(duration=DURATION)
    await degrade
    return traces


def main() -> None:
    traces = asyncio.run(run())
    targets = traces.offload_target.values

    print(f"\n{'t':>4s}  {'P_o target':>10s}  {'P':>6s}  {'T':>5s}")
    for t, po, p, timeout in zip(
        traces.throughput.times, targets, traces.throughput.values,
        traces.timeout_rate.values,
    ):
        bar = "#" * int(po)
        print(f"{t:4.0f}  {po:10.1f}  {p:6.1f}  {timeout:5.1f}  {bar}")

    ramped = max(targets[: len(targets) // 2])
    settled = targets[-1]
    print(
        f"\nramped to {ramped:.1f} fps of offloading under good conditions, "
        f"then backed off to {settled:.1f} fps after the injected degradation."
    )


if __name__ == "__main__":
    main()
