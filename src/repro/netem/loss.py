"""Packet-loss processes: i.i.d. (NetEm's default) and Gilbert–Elliott.

NetEm's plain ``loss X%`` drops packets independently — that is what
the paper injects and what :class:`~repro.netem.link.Link` does by
default.  Real wireless loss, however, is *bursty* (the paper itself
cites [37]: wireless paths see loss "in the tens of percentage
points", typically clustered).  NetEm models this with a
Gilbert–Elliott chain, and so do we:

* **Good** state: no loss;
* **Bad** state: every packet lost;
* transitions chosen so the stationary loss rate equals the configured
  average and the mean bad-state sojourn is ``burst_length`` packets.

With ``burst_length = 1`` the chain's per-packet loss *given the
configured average* reduces to near-i.i.d. behaviour; larger values
concentrate the same average loss into outage bursts, which stresses
controllers very differently (see the ``bursty-loss`` claim of
``framefeedback validate``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GilbertElliottParams:
    """Transition probabilities of the two-state loss chain."""

    p_good_to_bad: float
    p_bad_to_good: float

    def __post_init__(self) -> None:
        for name, p in (
            ("p_good_to_bad", self.p_good_to_bad),
            ("p_bad_to_good", self.p_bad_to_good),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")

    @property
    def stationary_loss(self) -> float:
        """Long-run fraction of packets lost."""
        denom = self.p_good_to_bad + self.p_bad_to_good
        if denom == 0.0:
            return 0.0
        return self.p_good_to_bad / denom

    @property
    def mean_burst_length(self) -> float:
        """Expected consecutive losses once in the bad state."""
        if self.p_bad_to_good == 0.0:
            return float("inf")
        return 1.0 / self.p_bad_to_good

    @classmethod
    def from_average(
        cls, average_loss: float, burst_length: float
    ) -> "GilbertElliottParams":
        """Parametrize by observable quantities.

        Args:
            average_loss: stationary loss fraction in [0, 1).
            burst_length: mean consecutive losses (>= 1).
        """
        if not 0.0 <= average_loss < 1.0:
            raise ValueError(f"average loss must be in [0, 1), got {average_loss}")
        if burst_length < 1.0:
            raise ValueError(f"burst length must be >= 1, got {burst_length}")
        if average_loss == 0.0:
            return cls(0.0, 1.0)
        p_bg = 1.0 / burst_length
        p_gb = average_loss * p_bg / (1.0 - average_loss)
        return cls(p_good_to_bad=min(p_gb, 1.0), p_bad_to_good=p_bg)


class GilbertElliottChain:
    """Stateful per-link loss chain.

    The chain is stepped once per packet *transmission attempt* with
    the parameters derived from the link's current conditions, so a
    schedule change re-parametrizes it without resetting the state.
    """

    def __init__(self) -> None:
        self._bad = False

    @property
    def in_bad_state(self) -> bool:
        return self._bad

    def reset(self) -> None:
        self._bad = False

    def step(self, params: GilbertElliottParams, rng: np.random.Generator) -> bool:
        """Advance one packet; returns True if this packet is lost."""
        if self._bad:
            if rng.random() < params.p_bad_to_good:
                self._bad = False
        else:
            if rng.random() < params.p_good_to_bad:
                self._bad = True
        return self._bad
