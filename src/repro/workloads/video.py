"""Video content model: realistic frame-size variation.

The core experiments use fixed-size frames (the paper streams ImageNet
images at one resolution/quality, §IV-A).  Real camera feeds are not
that polite: JPEG bytes track scene complexity, drift with lighting,
and jump at scene cuts.  :class:`VideoContentModel` generates a
correlated log-size process around the configured mean:

* AR(1) log-size: ``x_{k+1} = rho * x_k + sqrt(1-rho^2) * sigma * z``
  so the *stationary* spread is ``sigma`` regardless of correlation;
* Poisson scene cuts multiply the next frames' sizes while a short
  burst of high-entropy content passes.

Size variation matters to the controller because the link budget is in
*bytes*: a size burst behaves exactly like a bandwidth dip.
The ``video-content`` claim of ``framefeedback validate`` checks that
FrameFeedback stays the best policy under content variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class VideoContentModel:
    """Stationary lognormal AR(1) frame-size process with scene cuts."""

    mean_bytes: int
    #: stationary std-dev of log-size (0.25 ~ +/-28% typical swing)
    sigma: float = 0.25
    #: AR(1) coefficient of log-size between consecutive frames
    correlation: float = 0.9
    #: scene cuts per second (at 30 fps, 0.1/s ~ every 10 s)
    scene_cut_rate: float = 0.1
    #: size multiplier immediately after a cut
    scene_cut_multiplier: float = 1.8
    #: frames over which a cut's inflation decays away
    scene_cut_decay_frames: int = 15
    frame_rate: float = 30.0

    def __post_init__(self) -> None:
        if self.mean_bytes <= 0:
            raise ValueError(f"mean bytes must be positive, got {self.mean_bytes}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if not 0.0 <= self.correlation < 1.0:
            raise ValueError(
                f"correlation must be in [0, 1), got {self.correlation}"
            )
        if self.scene_cut_rate < 0:
            raise ValueError("scene cut rate must be >= 0")
        if self.scene_cut_multiplier < 1.0:
            raise ValueError("scene cut multiplier must be >= 1")
        if self.frame_rate <= 0:
            raise ValueError("frame rate must be positive")

    def sampler(self, rng: np.random.Generator) -> Callable[[], int]:
        """A stateful per-frame byte sampler.

        The returned callable produces one frame size per call; state
        (AR level, cut decay) lives in the closure, keeping the model
        itself immutable and shareable.
        """
        # mean-1 lognormal: shift so E[size] == mean_bytes
        log_mean = -0.5 * self.sigma * self.sigma
        state = {"x": 0.0, "cut_decay": 0}
        innovation_scale = self.sigma * np.sqrt(1.0 - self.correlation**2)
        cut_prob = self.scene_cut_rate / self.frame_rate

        def sample() -> int:
            state["x"] = self.correlation * state["x"] + innovation_scale * rng.normal()
            size = self.mean_bytes * float(np.exp(log_mean + state["x"]))
            if rng.random() < cut_prob:
                state["cut_decay"] = self.scene_cut_decay_frames
            if state["cut_decay"] > 0:
                frac = state["cut_decay"] / self.scene_cut_decay_frames
                size *= 1.0 + (self.scene_cut_multiplier - 1.0) * frac
                state["cut_decay"] -= 1
            return max(int(round(size)), 200)

        return sample
