"""AIMD offload controller (extension baseline).

Additive-Increase / Multiplicative-Decrease is the classic congestion-
control response and the natural "obvious alternative" to a PD law:
raise ``P_o`` by a fixed step while violations stay under a tolerance,
cut it by a factor when they don't.  Comparing it against FrameFeedback
(``framefeedback controllers``) quantifies what the piecewise PD
error function buys: AIMD's sawtooth keeps *re-testing* the violation
boundary, so under steady impairment it oscillates around the cliff
instead of settling just below it.
"""

from __future__ import annotations

from repro.control.base import Controller, Measurement


class AimdController(Controller):
    """TCP-style additive-increase / multiplicative-decrease."""

    name = "AIMD"

    def __init__(
        self,
        frame_rate: float,
        increase: float = 2.0,
        decrease_factor: float = 0.5,
        t_tolerance: float = 0.5,
        floor: float = 1.0,
    ) -> None:
        """
        Args:
            frame_rate: source rate ``F_s`` (frames/s).
            increase: additive step per clean period (frames/s).
            decrease_factor: multiplicative cut on violation.
            t_tolerance: violations/s treated as noise-free "clean".
            floor: minimum target kept as a standing probe (frames/s),
                serving the same recovery role as FrameFeedback's
                ``0.1 F_s`` fixed point.
        """
        if frame_rate <= 0:
            raise ValueError(f"frame rate must be positive, got {frame_rate}")
        if increase <= 0:
            raise ValueError(f"increase must be positive, got {increase}")
        if not 0.0 < decrease_factor < 1.0:
            raise ValueError(
                f"decrease factor must be in (0, 1), got {decrease_factor}"
            )
        if floor < 0 or floor > frame_rate:
            raise ValueError(f"floor must be in [0, F_s], got {floor}")
        self.frame_rate = frame_rate
        self.increase = increase
        self.decrease_factor = decrease_factor
        self.t_tolerance = t_tolerance
        self.floor = floor
        self._target = floor

    def reset(self) -> None:
        self._target = self.floor

    def initial_target(self, frame_rate: float) -> float:
        return self.floor

    @property
    def target(self) -> float:
        return self._target

    def update(self, measurement: Measurement) -> float:
        if measurement.timeout_rate <= self.t_tolerance:
            self._target = min(self._target + self.increase, self.frame_rate)
        else:
            self._target = max(self._target * self.decrease_factor, self.floor)
        return self._target
