"""Latency samplers: local CPU inference and server GPU batches.

Both are calibrated stochastic cost models:

* **Local** — the paper's Table II gives steady-state local rates
  ``P_l``; per-frame latency is ``1 / P_l`` with multiplicative
  log-normal jitter (CPU inference on a busy SoC shows ~5-15 % spread).

* **GPU batch** — the standard abstraction for GPU CNN inference is an
  affine batch-latency curve ``t(n) = t0 + k * n``: a fixed launch /
  transfer overhead plus a near-linear per-item term, which is why
  batching raises throughput (§IV-A, and [35] in the paper).  The
  defaults are calibrated so a full 15-frame MobileNetV3 batch takes
  ~105 ms and the Table VI background mix (half MobileNetV3Small,
  half EfficientNetB0) saturates the server at ~120 req/s of mixed
  load — which puts the knee of the §IV-E narrative ("up until about
  150 additional requests, our Pi can fit in some offloading") where
  the paper reports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.models.device_profiles import DeviceProfile, local_rate
from repro.models.zoo import ModelSpec

if TYPE_CHECKING:  # annotations only: the gateway imports this without numpy
    import numpy as np


def _lognormal_factor(rng: np.random.Generator, sigma: float) -> float:
    """Multiplicative jitter with mean 1."""
    if sigma <= 0:
        return 1.0
    return float(rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma))


@dataclass
class LocalLatencyModel:
    """Per-frame local inference latency for a device/model pair."""

    device: DeviceProfile
    model: ModelSpec
    jitter_sigma: float = 0.08

    def __post_init__(self) -> None:
        self.rate = local_rate(self.device, self.model)
        self.mean_latency = 1.0 / self.rate

    def sample(self, rng: np.random.Generator) -> float:
        """One inference's wall-clock seconds."""
        return self.mean_latency * _lognormal_factor(rng, self.jitter_sigma)


@dataclass(frozen=True)
class GpuBatchModel:
    """Affine GPU batch latency ``t(n) = base + per_item_cost(model) * n``.

    ``per_item`` is the per-frame cost for a ``gpu_cost == 1`` model
    (MobileNetV3Small); heavier models scale it by their
    :attr:`~repro.models.zoo.ModelSpec.gpu_cost`.  Frozen: the server
    core draws its jitter factors ahead with this σ.
    """

    base_latency: float = 0.022
    per_item: float = 0.0055
    jitter_sigma: float = 0.06

    def batch_latency(self, model: ModelSpec, batch_size: int) -> float:
        """Deterministic mean latency for a batch."""
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        return self.base_latency + self.per_item * model.gpu_cost * batch_size

    def sample(
        self, model: ModelSpec, batch_size: int, rng: np.random.Generator
    ) -> float:
        """One batch execution's wall-clock seconds."""
        if self.jitter_sigma <= 0:
            return self.batch_latency(model, batch_size)  # no draw either way
        return self.batch_latency(model, batch_size) * _lognormal_factor(
            rng, self.jitter_sigma
        )

    def jitter_factors(self, rng: np.random.Generator, size: int) -> List[float]:
        """The next ``size`` jitter factors :meth:`sample` would draw from
        ``rng``, in order, in one call (``jitter_sigma`` must be > 0)."""
        sigma = self.jitter_sigma
        return rng.lognormal(-0.5 * sigma * sigma, sigma, size).tolist()

    def saturation_rate(self, model: ModelSpec, batch_limit: int) -> float:
        """Max sustainable throughput (frames/s) at the batch cap."""
        return batch_limit / self.batch_latency(model, batch_limit)
