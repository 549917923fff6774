#!/usr/bin/env python
"""End-to-end over real sockets: the paper's topology on localhost.

Starts an in-process asyncio inference gateway implementing the §IV-A
adaptive batching discipline (queue while the "GPU" runs, batch cap,
shed the overflow), then drives the *same* FrameFeedback controller
used by the simulator against it through the wall-clock device loop
and a resilient socket client — frames are real byte payloads over
real connections.

Midway, a rival tenant floods the gateway so the controller has to
shed load, then the flood stops and it recovers.

Takes ~11 real seconds.  Run:  python examples/socket_offload.py
"""

import asyncio

from repro.control.framefeedback import FrameFeedbackController
from repro.realtime import (
    AsyncRealTimeLoop,
    AsyncSocketRemote,
    GatewayConfig,
    InferenceGateway,
    ResilientSocketRemote,
    protocol,
)

DURATION = 11.0
FLOOD_START, FLOOD_END = 3.5, 7.0
FLOOD_RATE = 220  # req/s, beyond the toy gateway's capacity


async def flood(address) -> None:
    """Open-loop rival traffic: one request every 1/FLOOD_RATE s."""
    # one pooled connection per request in flight, reused across the flood
    rival = AsyncSocketRemote(
        address, tenant="rival", frame_bytes=4_000, pool_limit=FLOOD_RATE
    )
    loop = asyncio.get_running_loop()

    async def one() -> None:
        try:
            await asyncio.wait_for(rival.exchange(deadline=0.5), timeout=0.5)
        except (asyncio.TimeoutError, OSError, protocol.ProtocolError):
            pass  # the rival does not care how its frames fare

    pending = set()
    await asyncio.sleep(FLOOD_START)
    print(f"--- flood starts ({FLOOD_RATE} req/s from a rival tenant) ---")
    next_at, end_at = loop.time(), loop.time() + FLOOD_END - FLOOD_START
    while loop.time() < end_at:
        task = asyncio.create_task(one())
        pending.add(task)
        task.add_done_callback(pending.discard)
        next_at += 1.0 / FLOOD_RATE
        await asyncio.sleep(max(0.0, next_at - loop.time()))
    print("--- flood ends ---")
    if pending:
        await asyncio.wait(pending)
    await rival.close()


async def run():
    config = GatewayConfig(base_latency=0.022, per_item=0.0055)
    async with InferenceGateway(config) as gateway:
        print(
            f"inference gateway on {gateway.address}, "
            f"batch cap {config.batch_limit}"
        )
        remote = ResilientSocketRemote(
            gateway.address, deadline=0.25, frame_bytes=8_000
        )
        loop = AsyncRealTimeLoop(
            FrameFeedbackController(30.0),
            remote=remote,
            local_latency=0.077,  # Pi 4B MobileNetV3Small
            deadline=0.25,
        )
        print(f"running {DURATION:.0f} s wall-clock...")
        rival = asyncio.create_task(flood(gateway.address))
        result = await loop.run(duration=DURATION)
        await rival
        await remote.close()
    return result, gateway.stats


def main() -> None:
    result, stats = asyncio.run(run())

    print(f"\n{'t':>4s}  {'P_o':>6s}  {'P':>6s}  {'T':>5s}")
    for t, po, p, timeout in zip(
        result.times, result.offload_target, result.throughput, result.timeout_rate
    ):
        print(f"{t:4.0f}  {po:6.1f}  {p:6.1f}  {timeout:5.1f}  {'#' * int(po)}")
    print(
        f"\nserver totals: {stats.completed} completed, "
        f"{stats.overloaded} shed as overloaded, {stats.expired} expired, "
        f"{stats.rejected} rejected, {stats.batches} batches"
    )


if __name__ == "__main__":
    main()
