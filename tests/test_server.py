"""Integration tests for the EdgeServer in the simulator."""

import numpy as np
import pytest

from repro.models.latency import GpuBatchModel
from repro.server import EdgeServer, InferenceRequest, RequestOutcome
from repro.server.batching import BatchPolicy
from repro.sim import Environment


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

    def feeder(env, server):
        submit(server, env, collector=responses)  # starts batch 1 (size 1)
        yield env.timeout(0.01)
        for _ in range(3):  # arrive during batch 1 execution
            submit(server, env, collector=responses)

    env.process(feeder(env, server))
    env.run(until=1.0)
    assert len(responses) == 4
    assert responses[0].batch_size == 1
    assert all(r.batch_size == 3 for r in responses[1:])


def test_overflow_rejected_at_batch_formation():
    env = Environment()
    gpu = GpuBatchModel(base_latency=0.1, per_item=0.0, jitter_sigma=0.0)
    server = make_server(env, cost_model=gpu, batch_limit=2)
    responses = []

    def feeder(env, server):
        submit(server, env, collector=responses)
        yield env.timeout(0.01)
        for _ in range(5):
            submit(server, env, collector=responses)

    env.process(feeder(env, server))
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

    def feeder(env, server):
        # keep both model queues non-empty for a while
        for _ in range(6):
            submit(server, env, model="mobilenet_v3_small", collector=responses)
            submit(server, env, model="efficientnet_b0", collector=responses)
            yield env.timeout(0.05)

    env.process(feeder(env, server))
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

    def flood(env, server):
        while env.now < 5.0:
            for _ in range(3):
                submit(server, env, collector=responses)
            yield env.timeout(1 / 100)  # 300 req/s >> capacity

    env.process(flood(env, server))
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
        while env.now < 30.0:
            req = InferenceRequest(
                tenant=name,
                model_name="mobilenet_v3_small",
                sent_at=env.now,
                payload_bytes=11_700,
                respond=lambda r, _name=name: outcomes[_name].append(r.ok),
            )
            server.submit(req)
            yield env.timeout(1.0 / rate)

    env.process(tenant("polite", 30.0))
    env.process(tenant("flood", 300.0))
    env.run(until=31.0)
    polite = outcomes["polite"]
    return sum(polite) / max(len(polite), 1)


def test_fair_policy_protects_polite_tenant_from_flooder():
    fifo = _polite_tenant_served(BatchPolicy.FIFO)
    fair = _polite_tenant_served(BatchPolicy.FAIR)
    assert fair > fifo
    assert fair > 0.95
