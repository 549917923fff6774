"""Latency-headroom control: a predictive FrameFeedback variant.

FrameFeedback reacts to *violations* — by the time `T > 0`, frames
have already been lost.  A natural future-work question: can the same
loop act on the tail latency of frames that *succeeded*, backing off
while there is still headroom under the deadline?

This controller drives the bucket's p95 RTT toward a target fraction
of the deadline with a PD law in normalized-deadline units, falling
back to FrameFeedback-style behaviour when a bucket has no successful
offloads to measure (total failure: violations are then the only
signal, so the `T`-threshold branch applies):

```
headroom e(t) = (target_frac * L - rtt_p95) / L        (per bucket)
u = (K_P e + K_D de/dt) * F_s,  clamped like Table IV
```

What the experiments show (the ``headroom`` claim of ``framefeedback
validate``): the latency signal cuts the violation rate roughly in half
on the Table V network schedule at *equal* throughput, and by >3x on
the Table VI load schedule at a ~7 % throughput cost — anticipating congestion beats reacting to it,
at the price of leaving a little capacity unused near the cliff.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.control.base import Controller, Measurement
from repro.control.pid import DiscretePid, PidGains
from repro.control.validity import sanitize_timeout_rate


@dataclass(frozen=True)
class HeadroomSettings:
    """Gains and limits of the latency-headroom law."""

    kp: float = 0.35
    kd: float = 0.2
    #: p95 target as a fraction of the deadline
    target_frac: float = 0.75
    #: Table IV-style asymmetric update clamps (fractions of F_s)
    update_min_frac: float = -0.5
    update_max_frac: float = 0.1
    #: violations/s treated as total-failure signal when blind
    t_threshold_frac: float = 0.1
    measure_period: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.target_frac < 1.0:
            raise ValueError(f"target fraction must be in (0,1), got {self.target_frac}")
        if self.update_min_frac > 0 or self.update_max_frac < 0:
            raise ValueError("update clamp must bracket zero")


class HeadroomController(Controller):
    """Drives successful-offload p95 RTT toward a deadline fraction."""

    name = "Headroom"

    def __init__(
        self,
        frame_rate: float,
        deadline: float,
        settings: HeadroomSettings = HeadroomSettings(),
    ) -> None:
        if frame_rate <= 0 or deadline <= 0:
            raise ValueError("frame rate and deadline must be positive")
        self.frame_rate = frame_rate
        self.deadline = deadline
        self.settings = settings
        self._pid = DiscretePid(
            PidGains(kp=settings.kp, kd=settings.kd),
            output_min=settings.update_min_frac,  # in F_s fractions
            output_max=settings.update_max_frac,
        )
        self._target = 0.0
        self.last_error = 0.0

    def reset(self) -> None:
        self._pid.reset()
        self._target = 0.0
        self.last_error = 0.0

    @property
    def target(self) -> float:
        return self._target

    def update(self, measurement: Measurement) -> float:
        s = self.settings
        fs = self.frame_rate
        # degraded telemetry (NaN/±inf/negative T) must not poison the
        # PD arithmetic; repair exactly like the measurement guard does
        t_rate, _ = sanitize_timeout_rate(measurement.timeout_rate, fs)

        if measurement.rtt_p95 is not None:
            # normalized headroom error: +target_frac when instant,
            # negative when the tail pushes past the target
            e = (s.target_frac * self.deadline - measurement.rtt_p95) / self.deadline
            # violations eat into headroom too: each violated frame is
            # a sample at (beyond) the deadline the p95 cannot see
            if t_rate > 0:
                e -= t_rate / fs
        else:
            # blind bucket: no successes to measure.  Same piecewise
            # fallback as FrameFeedback, in normalized units.
            if t_rate > 0:
                e = (s.t_threshold_frac * fs - t_rate) / fs
            else:
                e = (fs - self._target) / fs

        u = self._pid.step(e, s.measure_period) * fs
        # the PID clamps in F_s fractions; u is already bounded in fps
        self.last_error = e
        self._target = min(max(self._target + u, 0.0), fs)
        return self._target
