"""Integration tests for the EdgeServer in the simulator."""

import numpy as np
import pytest

from repro.models.latency import GpuBatchModel
from repro.server import EdgeServer, InferenceRequest, RequestOutcome
from repro.server.batching import BatchPolicy
from repro.sim import Environment
from tests.timers import every


def make_server(env, seed=0, **kwargs):
    return EdgeServer(env, np.random.default_rng(seed), **kwargs)


def submit(server, env, tenant="t", model="mobilenet_v3_small", collector=None):
    req = InferenceRequest(
        tenant=tenant,
        model_name=model,
        sent_at=env.now,
        payload_bytes=100,
        respond=(collector.append if collector is not None else (lambda r: None)),
    )
    server.submit(req)
    return req


def test_single_request_completes():
    env = Environment()
    server = make_server(env)
    responses = []
    submit(server, env, collector=responses)
    env.run(until=1.0)
    assert len(responses) == 1
    assert responses[0].ok
    assert responses[0].batch_size == 1
    assert server.stats.completed == 1


def test_responses_are_immutable():
    env = Environment()
    server = make_server(env)
    responses = []
    submit(server, env, collector=responses)
    env.run(until=1.0)
    (response,) = responses
    assert response.ok and not response.overloaded
    assert response.retry_after is None
    with pytest.raises(AttributeError):
        response.outcome = RequestOutcome.REJECTED


def test_response_time_matches_batch_model():
    env = Environment()
    gpu = GpuBatchModel(base_latency=0.02, per_item=0.005, jitter_sigma=0.0)
    server = make_server(env, cost_model=gpu)
    responses = []
    submit(server, env, collector=responses)
    env.run(until=1.0)
    assert responses[0].completed_at == pytest.approx(0.025, rel=1e-6)


def test_requests_during_execution_form_next_batch():
    env = Environment()
    gpu = GpuBatchModel(base_latency=0.1, per_item=0.0, jitter_sigma=0.0)
    server = make_server(env, cost_model=gpu)
    responses = []

    def during_batch_1(_ev):
        for _ in range(3):  # arrive during batch 1 execution
            submit(server, env, collector=responses)

    submit(server, env, collector=responses)  # starts batch 1 (size 1)
    env.call_later(0.01, during_batch_1)
    env.run(until=1.0)
    assert len(responses) == 4
    assert responses[0].batch_size == 1
    assert all(r.batch_size == 3 for r in responses[1:])


def test_next_batch_forms_inside_the_finishing_batch():
    """The next batch forms at the previous one's end, before a request
    arriving later in that same instant (which waits for the batch after)."""
    env = Environment()
    gpu = GpuBatchModel(base_latency=0.1, per_item=0.0, jitter_sigma=0.0)
    server = make_server(env, cost_model=gpu)
    responses = []
    submit(server, env, collector=responses)  # on the GPU until 0.1
    env.run(until=0.05)
    submit(server, env, collector=responses)  # queued: the next batch
    env.call_at(0.1, lambda _ev: submit(server, env, collector=responses))
    env.run(until=1.0)
    assert [(r.completed_at, r.batch_size) for r in responses] == [
        (0.1, 1), (0.2, 1), (pytest.approx(0.3), 1)
    ]


def test_overflow_rejected_at_batch_formation():
    env = Environment()
    gpu = GpuBatchModel(base_latency=0.1, per_item=0.0, jitter_sigma=0.0)
    server = make_server(env, cost_model=gpu, batch_limit=2)
    responses = []

    def overflow(_ev):
        for _ in range(5):
            submit(server, env, collector=responses)

    submit(server, env, collector=responses)
    env.call_later(0.01, overflow)
    env.run(until=1.0)
    outcomes = [r.outcome for r in responses]
    assert outcomes.count(RequestOutcome.REJECTED) == 3
    assert outcomes.count(RequestOutcome.COMPLETED) == 3
    assert server.stats.rejected == 3
    # rejections arrive *before* the batch completes (immediate NACK)
    rejected_at = [r.completed_at for r in responses if not r.ok]
    completed_second = [
        r.completed_at for r in responses if r.ok and r.batch_size == 2
    ]
    assert max(rejected_at) < min(completed_second)


def test_models_round_robin_share_gpu():
    env = Environment()
    gpu = GpuBatchModel(base_latency=0.05, per_item=0.0, jitter_sigma=0.0)
    server = make_server(env, cost_model=gpu)
    responses = []

    def both_models(_i):
        submit(server, env, model="mobilenet_v3_small", collector=responses)
        submit(server, env, model="efficientnet_b0", collector=responses)

    # keep both model queues non-empty for a while
    every(env, 0.05, both_models, count=6)
    env.run(until=2.0)
    assert server.stats.completed == 12
    # neither model starved: completions interleave
    assert {r.tenant for r in responses} == {"t"}


def test_per_tenant_stats():
    env = Environment()
    server = make_server(env)
    submit(server, env, tenant="a")
    submit(server, env, tenant="b")
    submit(server, env, tenant="a")
    env.run(until=1.0)
    assert server.stats.per_tenant_received == {"a": 2, "b": 1}
    assert server.stats.per_tenant_completed == {"a": 2, "b": 1}


def test_gpu_utilization_bounded():
    env = Environment()
    server = make_server(env)
    for _ in range(50):
        submit(server, env)
    env.run(until=2.0)
    util = server.gpu.utilization(2.0)
    assert 0.0 < util <= 1.0


def test_queue_depth_introspection():
    env = Environment()
    gpu = GpuBatchModel(base_latency=10.0, per_item=0.0, jitter_sigma=0.0)
    server = make_server(env, cost_model=gpu)
    submit(server, env)  # enters execution
    env.run(until=0.1)
    submit(server, env)  # queues behind the slow batch
    submit(server, env)
    assert server.queue_depth() == 2
    assert server.queue_depth("mobilenet_v3_small") == 2
    assert server.queue_depth("efficientnet_b0") == 0


def test_server_saturation_rejects_sustained_overload():
    """Offered load far above capacity must produce rejections (T_l)."""
    env = Environment()
    server = make_server(env)
    responses = []

    def flood(_i):
        for _ in range(3):
            submit(server, env, collector=responses)

    every(env, 1 / 100, flood, until=5.0)  # 300 req/s >> capacity
    env.run(until=6.0)
    rejected = sum(1 for r in responses if not r.ok)
    assert rejected > 0
    assert server.stats.completed + server.stats.rejected == server.stats.received


def _polite_tenant_served(policy, seed=0):
    """Share of a polite 30 fps tenant's requests served next to a
    300 req/s flooder over 30 s (the §II-A.3 fairness requirement)."""
    env = Environment()
    server = make_server(env, seed, cost_model=GpuBatchModel(), batch_policy=policy)
    outcomes = {"polite": [], "flood": []}

    def tenant(name, rate):
        def request(_i):
            server.submit(
                InferenceRequest(
                    tenant=name,
                    model_name="mobilenet_v3_small",
                    sent_at=env.now,
                    payload_bytes=11_700,
                    respond=lambda r: outcomes[name].append(r.ok),
                )
            )

        every(env, 1.0 / rate, request, until=30.0)

    tenant("polite", 30.0)
    tenant("flood", 300.0)
    env.run(until=31.0)
    polite = outcomes["polite"]
    return sum(polite) / max(len(polite), 1)


def test_fair_policy_protects_polite_tenant_from_flooder():
    fifo = _polite_tenant_served(BatchPolicy.FIFO)
    fair = _polite_tenant_served(BatchPolicy.FAIR)
    assert fair > fifo
    assert fair > 0.95


def test_crash_mid_batch_counts_the_batch_on_the_gpu():
    """The batch already taken off the queue is lost with the host, and
    counted: the counters close after a crash inside a batch."""
    env = Environment()
    server = make_server(env)
    responses = []
    for _ in range(5):
        submit(server, env, collector=responses)
    env.run(until=0.01)  # the 5 are on the GPU (~49 ms batch)
    assert server.queue_depth() == 0
    assert server.crash() == 5
    env.run(until=1.0)
    stats = server.stats
    assert responses == []
    assert (stats.received, stats.dropped_on_crash) == (5, 5)
    assert stats.completed + stats.rejected + stats.overloaded == 0
    assert server.accounting_closed
    assert server.gpu.batches_run == 0


def test_accounting_closes_through_queue_gpu_and_crash():
    env = Environment()
    gpu = GpuBatchModel(base_latency=0.1, per_item=0.0, jitter_sigma=0.0)
    server = make_server(env, cost_model=gpu, batch_limit=2)
    for _ in range(3):
        submit(server, env)
    env.run(until=0.05)  # 2 on the GPU, 1 rejected
    for _ in range(4):
        submit(server, env)
    assert server.accounting_closed  # 2 on the GPU, 4 queued
    env.run(until=0.15)  # 2 completed, 2 on the GPU, 2 more rejected
    assert server.accounting_closed
    assert server.crash() == 2
    server.restart()
    submit(server, env)
    env.run(until=1.0)
    stats = server.stats
    assert (stats.received, stats.completed, stats.rejected, stats.dropped_on_crash) == (
        8, 3, 3, 2
    )
    assert server.accounting_closed


def test_deadline_aware_batch_with_every_request_expired_runs_nothing():
    """A sweep whose batch is all shed moves on without a GPU batch."""
    env = Environment()
    gpu = GpuBatchModel(base_latency=0.1, per_item=0.0, jitter_sigma=0.0)
    server = make_server(env, cost_model=gpu, batch_policy=BatchPolicy.DEADLINE_AWARE)
    responses = []
    submit(server, env, collector=responses)  # occupies the GPU until 0.1
    env.run(until=0.01)
    for _ in range(3):
        req = submit(server, env, collector=responses)
        req.deadline_at = 0.05  # lapses while it waits
    env.run(until=1.0)
    assert [r.outcome for r in responses] == [RequestOutcome.COMPLETED] + [
        RequestOutcome.REJECTED
    ] * 3
    assert server.gpu.batches_run == 1
    assert server.accounting_closed
