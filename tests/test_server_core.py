"""The clock-free server core, driven from scripted arrivals.

No ``Environment`` and no event loop: each test hands the core its
``now`` and reads the replies, the batch and the GPU seconds it
returns — the same calls the simulator's ``EdgeServer`` and the
wall-clock gateway make from their timers.
"""

import heapq

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models.latency import GpuBatchModel
from repro.models.zoo import get_model
from repro.realtime import protocol
from repro.realtime.gateway import GatewayConfig, InferenceGateway
from repro.server.batching import BatchPolicy
from repro.server.core import JITTER_BLOCK, ServerCore
from repro.server.requests import InferenceRequest, RequestOutcome

SMALL = "mobilenet_v3_small"
#: deterministic GPU: 20 ms + 5 ms per frame (MobileNetV3Small units)
GPU = GpuBatchModel(base_latency=0.02, per_item=0.005, jitter_sigma=0.0)


def core(**kwargs):
    kwargs.setdefault("cost_model", GPU)
    return ServerCore(**kwargs)


def arrive(c, now, tenant="t", model=SMALL, deadline_at=None):
    req = InferenceRequest(
        tenant=tenant, model_name=model, sent_at=now, payload_bytes=100,
        respond=None, arrived_at=now, deadline_at=deadline_at,
    )
    return req, c.submit(req, now)


def outcomes(replies):
    return [outcome for _, outcome, _ in replies]


# ----------------------------------------------------------------------
# the paper's policies (§IV-A)
# ----------------------------------------------------------------------
def test_fifo_drains_keeps_15_and_rejects_the_rest():
    c = core()
    reqs = [arrive(c, 0.001 * i)[0] for i in range(20)]
    assert c.queue_depth() == 20
    batch, shed, seconds = c.start_batch(0.02)
    assert batch == reqs[:15]
    assert [r for r, _, _ in shed] == reqs[15:]
    assert outcomes(shed) == [RequestOutcome.REJECTED] * 5
    assert all(hint is None for _, _, hint in shed)
    assert seconds == GPU.batch_latency(get_model(SMALL), 15)
    assert c.queue_depth() == 0 and c.busy
    assert c.finish() == reqs[:15]
    assert (c.batches_run, c.frames_run, c.busy_seconds) == (1, 15, seconds)
    assert c.accounting_closed


def test_requests_arriving_during_a_batch_form_the_next():
    c = core()
    first, _ = arrive(c, 0.0)
    assert c.start_batch(0.0)[0] == [first]
    later = [arrive(c, 0.01)[0] for _ in range(3)]
    assert c.accounting_closed  # 1 on the GPU, 3 queued
    c.finish()
    batch, shed, _ = c.start_batch(0.025)
    assert (batch, shed) == (later, [])
    c.finish()
    assert c.start_batch(0.05) is None


def test_fair_round_robins_tenants():
    c = core(policy=BatchPolicy.FAIR, batch_limit=4)
    flood = [arrive(c, 0.0, tenant="flood")[0] for _ in range(6)]
    polite = [arrive(c, 0.0, tenant="polite")[0] for _ in range(2)]
    batch, shed, _ = c.start_batch(0.0)
    assert batch == [flood[0], polite[0], flood[1], polite[1]]
    assert [r for r, _, _ in shed] == flood[2:]


def test_deadline_aware_sheds_lapsed_requests_before_the_cap():
    c = core(policy=BatchPolicy.DEADLINE_AWARE, batch_limit=2)
    lapsed, _ = arrive(c, 0.0, deadline_at=0.05)
    alive = [arrive(c, 0.0, deadline_at=1.0)[0] for _ in range(3)]
    batch, shed, _ = c.start_batch(0.1)
    assert batch == alive[:2]
    assert [r for r, _, _ in shed] == [lapsed, alive[2]]
    assert outcomes(shed) == [RequestOutcome.REJECTED] * 2


def test_deadline_aware_batch_may_be_empty():
    c = core(policy=BatchPolicy.DEADLINE_AWARE)
    arrive(c, 0.0, deadline_at=0.05)
    batch, shed, seconds = c.start_batch(0.1)
    assert (batch, outcomes(shed), seconds) == ([], [RequestOutcome.REJECTED], 0.0)
    assert not c.busy
    assert c.start_batch(0.1) is None
    assert c.accounting_closed


def test_pushback_admission_shed_with_its_hint():
    c = core(pushback=True, batch_limit=2)  # admission limit 4 * 2
    for _ in range(8):
        assert arrive(c, 0.0)[1] == ()
    newcomer, replies = arrive(c, 0.0)
    ((req, outcome, hint),) = replies
    assert (req, outcome) == (newcomer, RequestOutcome.OVERLOADED)
    # ceil((8 + 1) / 2) = 5 full batches ahead
    full = GPU.batch_latency(get_model(SMALL), 2)
    assert hint == pytest.approx(5 * full)
    # a pause adds what is left of it, a slowdown stretches each batch
    c.paused_until = 0.3
    c.set_slowdown(2.0)
    (_, _, hint), = arrive(c, 0.1)[1]
    assert hint == pytest.approx(0.2 + 5 * full * 2.0)
    assert c.queue_depth() == 8 and c.accounting_closed


def test_pushback_overflow_is_overloaded_with_the_running_batch_as_hint():
    c = core(pushback=True, batch_limit=2)
    reqs = [arrive(c, 0.0)[0] for _ in range(3)]
    lapsed, _ = arrive(c, 0.0, deadline_at=0.0)
    batch, shed, _ = c.start_batch(0.0)
    assert batch == reqs[:2]
    assert shed == [
        (reqs[2], RequestOutcome.OVERLOADED, GPU.batch_latency(get_model(SMALL), 2)),
        (lapsed, RequestOutcome.REJECTED, None),  # expired: the client's loss
    ]


def test_round_robin_sweep_and_pause_between_sweeps():
    c = core()
    small = arrive(c, 0.0)[0]
    big = arrive(c, 0.0, model="efficientnet_b0")[0]
    assert c.start_batch(0.0)[0] == [small]
    more_small = arrive(c, 0.01)[0]
    c.finish()
    # the sweep goes on to the other model before serving small again
    c.paused_until = 1.0  # a pause waits for the sweep to end
    assert c.start_batch(0.05)[0] == [big]
    c.finish()
    assert c.start_batch(0.1) is None  # a new sweep would begin paused
    assert c.start_batch(1.0)[0] == [more_small]


def test_a_model_first_seen_mid_sweep_waits_for_the_next_sweep():
    c = core()
    first = arrive(c, 0.0)[0]
    assert c.start_batch(0.0)[0] == [first]
    big = arrive(c, 0.01, model="efficientnet_b0")[0]
    small = arrive(c, 0.02)[0]
    c.finish()
    # the sweep under way knew only the small model: it ends, and the
    # next one visits the models in first-arrival order
    assert c.start_batch(0.05)[0] == [small]
    c.finish()
    assert c.start_batch(0.1)[0] == [big]


def test_drain_takes_back_the_gpu_batch_and_the_queue():
    c = core(batch_limit=2)
    reqs = [arrive(c, 0.0)[0] for _ in range(2)]
    c.start_batch(0.0)
    queued = [arrive(c, 0.01)[0] for _ in range(3)]
    assert c.drain() == reqs + queued
    assert (c.busy, c.queue_depth(), c.batches_run) == (False, 0, 0)
    assert c.accounting_closed
    assert c.start_batch(0.02) is None


def test_a_lost_request_opens_the_accounting():
    c = core()
    arrive(c, 0.0)
    c.start_batch(0.0)
    c._batch = []  # a batch that vanished without being settled
    assert not c.accounting_closed


# ----------------------------------------------------------------------
# the gateway's policy: a bounded queue with deadline-aware shedding
# ----------------------------------------------------------------------
def bounded(**kwargs):
    return core(policy=BatchPolicy.BOUNDED_QUEUE, **kwargs)


def test_bounded_queue_sheds_the_soonest_deadline():
    c = bounded(queue_limit=3, batch_limit=2)
    arrive(c, 0.0, deadline_at=0.9)
    soon = arrive(c, 0.0, deadline_at=0.2)[0]
    arrive(c, 0.0, deadline_at=0.5)
    ((victim, outcome, hint),) = arrive(c, 0.0, deadline_at=0.7)[1]
    assert (victim, outcome) == (soon, RequestOutcome.OVERLOADED)
    # drain hint: the queue left, in full batches, behind the one running
    assert hint == (3 / 2 + 1.0) * GPU.batch_latency(get_model(SMALL), 2)
    assert c.queue_depth() == 3
    # without deadlines the oldest goes; the victim may be the newcomer
    d = bounded(queue_limit=1)
    oldest = arrive(d, 0.0)[0]
    assert arrive(d, 0.1)[1][0][0] is oldest
    newcomer, replies = arrive(d, 0.2, deadline_at=0.3)
    assert replies[0][0] is newcomer


def test_bounded_queue_expires_heads_and_keeps_the_remainder():
    c = bounded(batch_limit=2)
    lapsed = arrive(c, 0.0, deadline_at=0.05)[0]
    reqs = [arrive(c, 0.0)[0] for _ in range(4)]
    batch, shed, seconds = c.start_batch(0.1)
    assert batch == reqs[:2]
    # a lapsed head is the only rejection (the gateway answers it expired)
    assert shed == [(lapsed, RequestOutcome.REJECTED, None)]
    assert seconds == GPU.batch_latency(get_model(SMALL), 2)
    # no rejection of the remainder: it waits for the next batch
    assert c.queue_depth() == 2
    c.finish()
    assert c.start_batch(0.2) == (reqs[2:], [], seconds)
    c.finish()
    assert c.accounting_closed


def test_gateway_gpu_seconds_are_the_affine_formula_bit_for_bit():
    """Jitter 0 and gpu_cost 1.0 reproduce ``base + per_item * n`` exactly."""
    base, per_item = 0.022, 0.0055
    c = bounded(cost_model=GpuBatchModel(base, per_item, jitter_sigma=0.0))
    for n in range(1, 16):
        for _ in range(n):
            arrive(c, 0.0)
        c.slowdown = 3.0
        _, _, seconds = c.start_batch(0.0)
        assert seconds == (base + per_item * n) * 3.0
        c.finish()


# ----------------------------------------------------------------------
# the gateway driving the core
# ----------------------------------------------------------------------
class _Timer:
    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _ScriptLoop:
    """Just enough of an event loop for the gateway's GPU callbacks."""

    def __init__(self):
        self.now, self._heap, self._seq = 0.0, [], 0

    def time(self):
        return self.now

    def call_at(self, when, fn, *args):
        timer = _Timer()
        heapq.heappush(self._heap, (when, self._seq, timer, fn, args))
        self._seq += 1
        return timer

    def call_later(self, delay, fn, *args):
        return self.call_at(self.now + delay, fn, *args)

    def call_soon(self, fn, *args):
        return self.call_at(self.now, fn, *args)

    def run(self):
        while self._heap:
            when, _, timer, fn, args = heapq.heappop(self._heap)
            if not timer.cancelled:
                self.now = when
                fn(*args)


def test_gateway_keeps_one_gpu_when_an_expiry_reply_resubmits():
    """A lapsed head's reply that lets its connection submit again at
    once must not start a second GPU timer for the batch being formed:
    the resubmitted frame waits for the next batch."""
    loop = _ScriptLoop()
    gateway = InferenceGateway(
        GatewayConfig(batch_limit=2, base_latency=0.01, per_item=0.0)
    )
    gateway._loop = loop
    replies = []

    class Conn:
        def __init__(self, name, follow_up=None):
            self.name, self.follow_up = name, follow_up

        def send(self, deadline=None):
            request = protocol.Request(tenant=self.name, payload_bytes=1, deadline=deadline)
            assert gateway._submit(request, self) is None

        def reply(self, status, hint):
            replies.append((round(loop.now, 6), self.name, status))
            if self.follow_up is not None:
                self.follow_up, follow_up = None, self.follow_up
                follow_up()  # pipelined: the next frame is served at once

    a, c = Conn("a"), Conn("c")
    b = Conn("b", follow_up=lambda: b.send())
    a.send()  # batch [a] on the GPU until 0.01
    loop.call_at(0.001, b.send, 0.002)  # lapses at 0.003, in the queue
    loop.call_at(0.001, c.send)
    loop.run()
    assert replies == [
        (0.01, "a", protocol.STATUS_OK),
        (0.01, "b", protocol.STATUS_EXPIRED),
        (0.02, "c", protocol.STATUS_OK),
        (0.03, "b", protocol.STATUS_OK),
    ]
    assert gateway.stats.batches == 3
    assert gateway.stats.accounting_closed


# ----------------------------------------------------------------------
# GPU jitter drawn in blocks
# ----------------------------------------------------------------------
_batches = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=15),
        st.sampled_from([SMALL, "efficientnet_b0", "efficientnet_b4"]),
        st.sampled_from([1.0, 1.0, 2.5]),
    ),
    min_size=1,
    max_size=30,
)


@given(
    batches=_batches,
    repeat=st.integers(min_value=1, max_value=30),
    sigma=st.sampled_from([0.0, 0.06, 0.5]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(batches=[(15, SMALL, 1.0), (3, "efficientnet_b4", 2.5)], repeat=JITTER_BLOCK, sigma=0.06, seed=0)
@settings(max_examples=40, deadline=None)
def test_core_jitter_equals_scalar_sample_on_a_twin_stream(batches, repeat, sigma, seed):
    """The core takes its lognormal factors from blocks; every batch's
    GPU seconds must equal ``GpuBatchModel.sample`` (one scalar draw per
    batch) on a twin generator, times the slowdown, across refills."""
    model = GpuBatchModel(jitter_sigma=sigma)
    c = ServerCore(cost_model=model, rng=np.random.default_rng(seed))
    twin = np.random.default_rng(seed)
    now = 0.0
    for size, name, slowdown in batches * repeat:
        c.set_slowdown(slowdown)
        for _ in range(size):
            arrive(c, now, model=name)
        batch, shed, seconds = c.start_batch(now)
        assert (len(batch), shed) == (size, [])
        assert seconds == model.sample(get_model(name), size, twin) * slowdown
        c.finish()
        now += seconds
