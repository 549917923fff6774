"""Unit tests for latency cost models (local CPU + GPU batch)."""

import numpy as np
import pytest

from repro.models import (
    EFFICIENTNET_B0,
    MOBILENET_V3_SMALL,
    PI_4B_1_2,
    GpuBatchModel,
    LocalLatencyModel,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_local_mean_latency_matches_table2_rate():
    model = LocalLatencyModel(PI_4B_1_2, MOBILENET_V3_SMALL)
    assert model.rate == pytest.approx(13.0)
    assert model.mean_latency == pytest.approx(1.0 / 13.0)


def test_local_samples_average_to_mean(rng):
    model = LocalLatencyModel(PI_4B_1_2, MOBILENET_V3_SMALL)
    samples = np.array([model.sample(rng) for _ in range(20_000)])
    assert samples.mean() == pytest.approx(model.mean_latency, rel=0.02)
    assert (samples > 0).all()


def test_local_zero_jitter_is_deterministic(rng):
    model = LocalLatencyModel(PI_4B_1_2, MOBILENET_V3_SMALL, jitter_sigma=0.0)
    assert model.sample(rng) == model.mean_latency


def test_gpu_batch_latency_is_affine():
    gpu = GpuBatchModel(base_latency=0.02, per_item=0.005, jitter_sigma=0.0)
    t1 = gpu.batch_latency(MOBILENET_V3_SMALL, 1)
    t10 = gpu.batch_latency(MOBILENET_V3_SMALL, 10)
    assert t1 == pytest.approx(0.025)
    assert t10 == pytest.approx(0.07)
    # slope equals per_item for a gpu_cost == 1 model
    assert (t10 - t1) / 9 == pytest.approx(0.005)


def test_gpu_cost_scales_per_item_only():
    gpu = GpuBatchModel(base_latency=0.02, per_item=0.005, jitter_sigma=0.0)
    light = gpu.batch_latency(MOBILENET_V3_SMALL, 10)
    heavy = gpu.batch_latency(EFFICIENTNET_B0, 10)
    assert heavy > light
    assert heavy - 0.02 == pytest.approx((light - 0.02) * EFFICIENTNET_B0.gpu_cost)


def test_gpu_batch_size_must_be_positive():
    gpu = GpuBatchModel()
    with pytest.raises(ValueError):
        gpu.batch_latency(MOBILENET_V3_SMALL, 0)


def test_gpu_batching_raises_throughput():
    """The whole point of §IV-A: bigger batches -> more frames/s."""
    gpu = GpuBatchModel(jitter_sigma=0.0)
    r1 = gpu.saturation_rate(MOBILENET_V3_SMALL, 1)
    r15 = gpu.saturation_rate(MOBILENET_V3_SMALL, 15)
    assert r15 > 2 * r1


def test_table_vi_peak_saturates_default_server():
    """The mixed Table VI workload must be able to saturate the GPU.

    §IV-E's narrative needs the 150 req/s peak (plus the device's
    offered load) to exceed capacity for the background's half
    MobileNet / half EfficientNetB0 mix.
    """
    gpu = GpuBatchModel(jitter_sigma=0.0)
    pair_time = gpu.batch_latency(MOBILENET_V3_SMALL, 15) + gpu.batch_latency(
        EFFICIENTNET_B0, 15
    )
    mixed_capacity = 30 / pair_time
    assert mixed_capacity < 150 + 30
    # ...but a lone device must comfortably fit (Fig 3 bw=10 regime)
    assert gpu.saturation_rate(MOBILENET_V3_SMALL, 15) > 30


def test_gpu_sample_jitter_averages_out(rng):
    gpu = GpuBatchModel()
    mean = gpu.batch_latency(MOBILENET_V3_SMALL, 15)
    samples = [gpu.sample(MOBILENET_V3_SMALL, 15, rng) for _ in range(10_000)]
    assert np.mean(samples) == pytest.approx(mean, rel=0.02)


@pytest.mark.parametrize("sigma", [0.0, -0.5])
def test_gpu_sample_without_jitter_is_the_batch_latency_bit_for_bit(rng, sigma):
    from repro.models.latency import _lognormal_factor
    from repro.models.zoo import MODEL_ZOO

    gpu = GpuBatchModel(base_latency=0.0173, per_item=0.00491, jitter_sigma=sigma)
    state = rng.bit_generator.state
    for model in MODEL_ZOO.values():
        for batch_size in (1, 2, 7, 15, 64):
            jittered = gpu.batch_latency(model, batch_size) * _lognormal_factor(rng, sigma)
            assert gpu.sample(model, batch_size, rng).hex() == jittered.hex()
    assert rng.bit_generator.state == state  # neither path draws
