"""Wire-contract tests for the gateway and the resilient client.

These pin what the socket path promises regardless of how it is
plumbed: replies in request order per connection, the read timeout on
idle and half-sent frames, the client's hedged retransmission, and a
cancelled frame that still settles and never leaks its connection into
the pool.  Real sockets on localhost; each scenario stays well under a
second.
"""

import asyncio

from repro.metrics.taxonomy import FailureKind
from repro.realtime import protocol
from repro.realtime.client import FrameOutcome, ResilientSocketRemote
from repro.realtime.gateway import GatewayConfig, InferenceGateway
from repro.resilience.config import ResilienceConfig


def run(coro):
    return asyncio.run(coro)


async def _read_replies(reader, n):
    return [
        protocol.decode_reply(await reader.readexactly(protocol.REPLY_SIZE))
        for _ in range(n)
    ]


def test_back_to_back_requests_get_replies_in_order():
    async def scenario():
        # the first frame holds the GPU for 50 ms; the second is denied
        # by admission at once, yet its reply must come second
        config = GatewayConfig(
            tenant_rate=1.0, tenant_burst=1.0, base_latency=0.05, per_item=0.0
        )
        async with InferenceGateway(config) as gateway:
            reader, writer = await asyncio.open_connection(*gateway.address)
            frame = protocol.encode_request("dev", b"\x00" * 300, 1.0)
            writer.write(frame + frame)
            await writer.drain()
            replies = await asyncio.wait_for(_read_replies(reader, 2), 2.0)
            writer.close()
            assert [r.status for r in replies] == [
                protocol.STATUS_OK,
                protocol.STATUS_OVERLOADED,
            ]
            assert gateway.stats.received == 2
            assert gateway.stats.connections == 1
        assert gateway.stats.accounting_closed

    run(scenario())


def test_frame_shed_on_its_own_arrival_still_gets_its_reply():
    async def scenario():
        # one frame on the GPU, one hint-less frame filling the queue:
        # each deadline-carrying frame that arrives next is the shed
        # victim itself, and the pipelined one behind it must still be
        # served
        config = GatewayConfig(queue_limit=1, base_latency=0.2, per_item=0.0, batch_limit=1)
        async with InferenceGateway(config) as gateway:
            conns = [await asyncio.open_connection(*gateway.address) for _ in range(3)]
            (_, on_gpu), (_, queued), (reader, pipelined) = conns
            on_gpu.write(protocol.encode_request("a", b"\x00" * 10, None))
            await asyncio.sleep(0.05)
            queued.write(protocol.encode_request("b", b"\x00" * 10, None))
            await asyncio.sleep(0.05)
            frame = protocol.encode_request("c", b"\x00" * 10, 1.0)
            pipelined.write(frame + frame)
            replies = await asyncio.wait_for(_read_replies(reader, 2), 0.15)
            assert [r.status for r in replies] == [protocol.STATUS_OVERLOADED] * 2
            assert gateway.stats.shed_overflow == 2
            # and the connection serves on once the GPU has drained
            await asyncio.sleep(0.4)
            pipelined.write(frame)
            (reply,) = await asyncio.wait_for(_read_replies(reader, 1), 0.5)
            assert reply.ok
            for _reader, writer in conns:
                writer.close()
        assert gateway.stats.accounting_closed

    run(scenario())


def test_read_timeout_closes_idle_connection():
    async def scenario():
        async with InferenceGateway(GatewayConfig(read_timeout=0.1)) as gateway:
            reader, writer = await asyncio.open_connection(*gateway.address)
            # one served frame, then silence: the timeout counts from
            # the moment the gateway starts waiting for the next frame
            writer.write(protocol.encode_request("dev", b"\x00" * 64, 1.0))
            await writer.drain()
            (reply,) = await asyncio.wait_for(_read_replies(reader, 1), 1.0)
            assert reply.ok
            assert gateway.stats.read_timeouts == 0
            assert await asyncio.wait_for(reader.read(16), 1.0) == b""
            writer.close()
            assert gateway.stats.read_timeouts == 1
            assert gateway.stats.protocol_errors == 0

    run(scenario())


def test_read_timeout_closes_connection_stalled_mid_frame():
    async def scenario():
        async with InferenceGateway(GatewayConfig(read_timeout=0.1)) as gateway:
            reader, writer = await asyncio.open_connection(*gateway.address)
            frame = protocol.encode_request("dev", b"\x00" * 500, 1.0)
            writer.write(frame[:20])  # header, tenant and a few payload bytes
            await writer.drain()
            assert await asyncio.wait_for(reader.read(16), 1.0) == b""
            writer.close()
            assert gateway.stats.read_timeouts == 1
            assert gateway.stats.received == 0
            assert gateway.stats.protocol_errors == 0

    run(scenario())


def test_read_stall_delays_each_request_and_does_not_count_as_timeout():
    async def scenario():
        config = GatewayConfig(base_latency=0.0, per_item=0.0, read_timeout=0.05)
        async with InferenceGateway(config) as gateway:
            gateway.read_stall = 0.08  # longer than the read timeout
            reader, writer = await asyncio.open_connection(*gateway.address)
            frame = protocol.encode_request("dev", b"\x00" * 64, None)
            loop = asyncio.get_running_loop()
            start = loop.time()
            writer.write(frame + frame)
            replies = await asyncio.wait_for(_read_replies(reader, 2), 1.0)
            assert [r.ok for r in replies] == [True, True]
            assert loop.time() - start >= 2 * 0.08
            # the stall before the next read is already running; once it
            # ends, a cleared knob serves without delay
            gateway.read_stall = 0.0
            writer.write(frame)
            (reply,) = await asyncio.wait_for(_read_replies(reader, 1), 1.0)
            assert reply.ok
            start = loop.time()
            writer.write(frame)
            (reply,) = await asyncio.wait_for(_read_replies(reader, 1), 1.0)
            assert reply.ok and loop.time() - start < 0.08
            writer.close()
            assert gateway.stats.read_timeouts == 0
        assert gateway.stats.accounting_closed

    run(scenario())


def test_hedge_fires_when_gpu_is_slow():
    async def scenario():
        # the first attempt sits in the GPU past the hedge point (0.5 x
        # 0.4 s) but still completes inside the deadline
        config = GatewayConfig(base_latency=0.3, per_item=0.0)
        async with InferenceGateway(config) as gateway:
            remote = ResilientSocketRemote(
                gateway.address,
                deadline=0.4,
                config=ResilienceConfig.wallclock(),
                frame_bytes=64,
            )
            outcome = await remote.submit_frame()
            await remote.close()
            assert outcome is FrameOutcome.COMPLETED
            taxonomy = remote.taxonomy.as_dict()
            assert taxonomy[FailureKind.RETRY_SENT.value] == 1
            assert remote.submitted == 1
            assert remote.settled == 1
            assert remote.accounting_closed
            # the hedge went out on a second connection
            assert gateway.stats.connections == 2
            assert gateway.stats.received == 2
        assert gateway.stats.accounting_closed

    run(scenario())


def test_cancelled_submit_settles_as_timeout_and_drops_its_connection():
    async def scenario():
        config = GatewayConfig(base_latency=0.15, per_item=0.0)
        async with InferenceGateway(config) as gateway:
            remote = ResilientSocketRemote(gateway.address, deadline=1.0, frame_bytes=64)
            # warm the pool: one connection, idle after its reply
            assert await remote.submit_frame() is FrameOutcome.COMPLETED
            assert gateway.stats.connections == 1
            inflight = asyncio.ensure_future(remote.submit_frame())
            await asyncio.sleep(0.05)
            inflight.cancel()
            try:
                await inflight
            except asyncio.CancelledError:
                pass
            assert remote.counts[FrameOutcome.TIMEOUT] == 1
            assert remote.taxonomy.as_dict()[FailureKind.SILENT_TIMEOUT.value] == 1
            # the next frame must not be handed the connection whose
            # reply is still owed: it opens a fresh one and gets its own
            # reply
            assert await remote.submit_frame() is FrameOutcome.COMPLETED
            assert gateway.stats.connections == 2
            await remote.close()
            assert remote.submitted == 3
            assert remote.accounting_closed
        assert gateway.stats.accounting_closed

    run(scenario())


def test_pooled_connection_reset_mid_frame_settles_at_once():
    """A reset on the connection a frame is waiting on settles that frame
    when the reset is read, not at the next hedge point or deadline."""

    async def scenario():
        loop = asyncio.get_running_loop()
        config = GatewayConfig(base_latency=0.5, per_item=0.0)
        gateway = await InferenceGateway(config).start()
        remote = ResilientSocketRemote(gateway.address, deadline=2.0, frame_bytes=64)
        try:
            # warm the pool: the next frame goes out on a pooled connection
            assert await remote.submit_frame() is FrameOutcome.COMPLETED
            start = loop.time()
            inflight = asyncio.ensure_future(remote.submit_frame())
            settled_at = []
            inflight.add_done_callback(lambda _: settled_at.append(loop.time()))
            await asyncio.sleep(0.1)
            await gateway.stop(abort=True)
            outcome = await inflight
        finally:
            await remote.close()
            await gateway.stop()
        assert outcome is FrameOutcome.TIMEOUT
        # the hedge point is 1.0 s after the start
        assert settled_at[0] - start < 0.5
        assert remote.accounting_closed

    run(scenario())


def _two_frames_in_flight(cancel):
    """Two frames on one client, the second 0.1 s after the first, each
    still queued behind the GPU at its hedge point (0.5 x 0.4 s);
    ``cancel`` names the frame cancelled 0.12 s in, before any hedge."""

    async def scenario():
        config = GatewayConfig(base_latency=0.3, per_item=0.0)
        async with InferenceGateway(config) as gateway:
            remote = ResilientSocketRemote(
                gateway.address,
                deadline=0.4,
                config=ResilienceConfig.wallclock(),
                frame_bytes=64,
            )
            frames = {"first": asyncio.ensure_future(remote.submit_frame())}
            await asyncio.sleep(0.1)
            frames["second"] = asyncio.ensure_future(remote.submit_frame())
            await asyncio.sleep(0.02)
            if cancel is not None:
                frames[cancel].cancel()
            outcomes = {}
            for name, frame in frames.items():
                try:
                    outcomes[name] = await frame
                except asyncio.CancelledError:
                    outcomes[name] = "cancelled"
            await remote.close()
        assert remote.accounting_closed
        assert gateway.stats.accounting_closed
        return outcomes, remote

    return run(scenario())


def test_two_frames_in_flight_each_hedge_at_their_own_point():
    outcomes, remote = _two_frames_in_flight(cancel=None)
    # the first completes on its first attempt at 0.3 s; the second is
    # still in the GPU at its deadline (0.5 s)
    assert outcomes == {"first": FrameOutcome.COMPLETED, "second": FrameOutcome.TIMEOUT}
    assert remote.taxonomy.as_dict()[FailureKind.RETRY_SENT.value] == 2


def test_cancelling_one_of_two_frames_in_flight_keeps_the_others_hedge():
    for cancel, survivor, outcome in (
        ("first", "second", FrameOutcome.TIMEOUT),
        ("second", "first", FrameOutcome.COMPLETED),
    ):
        outcomes, remote = _two_frames_in_flight(cancel=cancel)
        assert outcomes == {cancel: "cancelled", survivor: outcome}
        assert remote.taxonomy.as_dict()[FailureKind.RETRY_SENT.value] == 1
        assert remote.counts[FrameOutcome.TIMEOUT] == (
            2 if outcome is FrameOutcome.TIMEOUT else 1
        )


def test_settled_and_cancelled_frames_leave_nothing_in_the_client_timer():
    async def scenario():
        config = GatewayConfig(base_latency=0.05, per_item=0.0)
        async with InferenceGateway(config) as gateway:
            remote = ResilientSocketRemote(gateway.address, deadline=1.0, frame_bytes=64)
            for _ in range(3):
                assert await remote.submit_frame() is FrameOutcome.COMPLETED
            inflight = asyncio.ensure_future(remote.submit_frame())
            await asyncio.sleep(0.02)
            assert len(remote._due) == 1
            inflight.cancel()
            await asyncio.gather(inflight, return_exceptions=True)
            assert remote._due == {}
            await remote.close()
            assert remote._timer is None
            assert remote.accounting_closed

    run(scenario())


def test_steady_state_frames_create_no_tasks():
    """A frame on a warm pooled connection is plain callbacks on both
    ends: a counting task factory sees no Task created."""

    async def scenario():
        loop = asyncio.get_running_loop()
        created = []

        def counting_factory(loop, coro, **kwargs):
            created.append(getattr(coro, "__qualname__", repr(coro)))
            return asyncio.Task(coro, loop=loop, **kwargs)

        config = GatewayConfig(base_latency=0.0, per_item=0.0, tenant_rate=1e7)
        async with InferenceGateway(config) as gateway:
            remote = ResilientSocketRemote(gateway.address, deadline=5.0, frame_bytes=11_700)
            for _ in range(20):  # warm-up: connect and fill the pool
                assert await remote.submit_frame() is FrameOutcome.COMPLETED
            loop.set_task_factory(counting_factory)
            try:
                for _ in range(200):
                    assert await remote.submit_frame() is FrameOutcome.COMPLETED
            finally:
                loop.set_task_factory(None)
            await remote.close()
        assert created == []
        assert gateway.stats.connections == 1
        assert gateway.stats.completed == 220

    run(scenario())


def test_warm_frame_costs_one_timer_and_two_call_soons():
    """A warm frame costs the loop no Task, one timer handle (the GPU's
    batch delay) and two ``call_soon`` handles (the gateway's batch
    start and the client's wake-up), counted on the running loop."""

    async def scenario():
        loop = asyncio.get_running_loop()
        tasks, timers, soon = [], {}, []

        def counting_factory(loop, coro, **kwargs):
            tasks.append(getattr(coro, "__qualname__", repr(coro)))
            return asyncio.Task(coro, loop=loop, **kwargs)

        def counted(method, sink):
            def wrapper(*args, **kwargs):
                handle = method(*args, **kwargs)
                sink(handle)
                return handle
            return wrapper

        def add_timer(handle):
            # call_later goes through call_at: count each handle once
            timers[id(handle)] = handle

        config = GatewayConfig(base_latency=0.0, per_item=0.0, tenant_rate=1e7)
        async with InferenceGateway(config) as gateway:
            remote = ResilientSocketRemote(gateway.address, deadline=5.0, frame_bytes=11_700)
            for _ in range(20):  # warm-up: connect and fill the pool
                assert await remote.submit_frame() is FrameOutcome.COMPLETED
            loop.set_task_factory(counting_factory)
            loop.call_soon = counted(loop.call_soon, soon.append)
            loop.call_at = counted(loop.call_at, add_timer)
            loop.call_later = counted(loop.call_later, add_timer)
            try:
                for _ in range(200):
                    assert await remote.submit_frame() is FrameOutcome.COMPLETED
            finally:
                del loop.call_soon, loop.call_at, loop.call_later
                loop.set_task_factory(None)
            await remote.close()
        assert tasks == []
        assert len(timers) <= 200
        assert len(soon) <= 400

    run(scenario())
