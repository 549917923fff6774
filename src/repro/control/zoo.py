"""The controller zoo: rate-limited offloading policies + the registry.

Two genuinely different policies from the offloading literature join
the FrameFeedback lineup, both built against the same
:class:`~repro.control.base.Controller` seam:

* :class:`TokenBucketOptimalController` — the threshold structure of
  the *optimal* offloading policy under a token-bucket rate constraint
  (Chakrabarti et al., arXiv:2010.13737).  The device pays for
  offloads from a ``(fill_rate, burst)`` bucket; the policy spends
  burst only above an occupancy threshold and conserves tokens when
  recent offloads are timing out (spending on frames that miss the
  deadline wastes the budget the policy is optimizing).
* :class:`RateLimitedMDPController` — the rate-limited MDP variant
  (Qiu et al., arXiv:2208.00485): value iteration over a discretized
  ``(bucket occupancy, feedback staleness)`` state space, solved
  *offline* once per distinct parameter set per process (the model is
  a pure function of the parameters, no RNG), with a table lookup
  online.

Neither policy closes the loop on the timeout rate the way the PD law
does — the token bucket enforces an average-rate budget and the MDP
plans against a fixed offline model — which is exactly what makes them
worth racing in the tournament (:mod:`repro.experiments.tournament`).

:func:`zoo_controllers` is the **device-local registry**: every member
is a one-argument factory (``factory(DeviceConfig) -> Controller``),
so the whole zoo is constructible without testbed wiring.  The fuzz
suite and the conformance battery (``tests/test_controller_conformance
.py``) iterate this registry — a controller added here is automatically
fuzzed, conformance-tested, and tournament-eligible; context-needing
controllers (Oracle, Reservation) stay outside it by design.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.control.base import Controller, Measurement
from repro.control.validity import sanitize_timeout_rate


def _finite(value: float, lo: float, hi: float, default: float = 0.0) -> float:
    """Clamp a possibly-degraded measured quantity into ``[lo, hi]``."""
    if value is None or not math.isfinite(value):
        return default
    return min(max(value, lo), hi)


# ----------------------------------------------------------------------
# Chakrabarti et al. (2010.13737): token-bucket threshold policy
# ----------------------------------------------------------------------
class TokenBucketOptimalController(Controller):
    """Threshold policy on bucket occupancy under a token-bucket budget.

    The bucket fills at ``fill_rate`` tokens/s (one token = one
    offloaded frame) up to ``burst`` tokens; measured offload attempts
    debit it.  The paper's optimal policy is a *threshold* on bucket
    state — spend liberally when tokens are plentiful, conserve when
    they are scarce — which the rate seam expresses as:

    * occupancy >= ``threshold_frac``: pay the fill rate plus enough of
      the surplus above the threshold to drain it within one period
      (``spend_frac`` of it);
    * occupancy < threshold: taper linearly below the fill rate so the
      bucket refills toward the threshold;
    * windowed timeout rate above ``t_tolerance``: withhold burst
      spending entirely — a token spent on a frame that misses its
      deadline is a token wasted, so the budget waits out the
      impairment (this is the only feedback the policy consumes).
    """

    name = "TokenBucket"

    def __init__(
        self,
        frame_rate: float,
        fill_rate: Optional[float] = None,
        burst: Optional[float] = None,
        threshold_frac: float = 0.5,
        spend_frac: float = 1.0,
        t_tolerance: float = 0.5,
        period: float = 1.0,
    ) -> None:
        if frame_rate <= 0:
            raise ValueError(f"frame rate must be positive, got {frame_rate}")
        self.frame_rate = frame_rate
        self.fill_rate = 0.4 * frame_rate if fill_rate is None else fill_rate
        if self.fill_rate <= 0:
            raise ValueError(f"fill rate must be positive, got {self.fill_rate}")
        self.burst = 2.0 * self.fill_rate if burst is None else burst
        if self.burst <= 0:
            raise ValueError(f"burst must be positive, got {self.burst}")
        if not 0.0 < threshold_frac <= 1.0:
            raise ValueError(
                f"threshold fraction must be in (0, 1], got {threshold_frac}"
            )
        if not 0.0 < spend_frac <= 1.0:
            raise ValueError(f"spend fraction must be in (0, 1], got {spend_frac}")
        if t_tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {t_tolerance}")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.threshold_frac = threshold_frac
        self.spend_frac = spend_frac
        self.t_tolerance = t_tolerance
        self.period = period
        self._tokens = self.burst  # start with a full budget

    # ------------------------------------------------------------------
    @property
    def tokens(self) -> float:
        """Current bucket occupancy (observability)."""
        return self._tokens

    def reset(self) -> None:
        self._tokens = self.burst

    def _policy(self, tokens: float, t_rate: float) -> float:
        """The threshold policy's rate for a bucket state + T reading."""
        threshold = self.threshold_frac * self.burst
        conserve = self.fill_rate * min(tokens / threshold, 1.0)
        if t_rate > self.t_tolerance:
            # impaired: never spend burst, at most the sustainable rate
            return min(conserve, self.fill_rate)
        if tokens >= threshold:
            surplus = (tokens - threshold) * self.spend_frac / self.period
            return self.fill_rate + surplus
        return conserve

    def initial_target(self, frame_rate: float) -> float:
        return min(max(self._policy(self._tokens, 0.0), 0.0), self.frame_rate)

    def update(self, measurement: Measurement) -> float:
        dt = self.period
        t_rate, _ = sanitize_timeout_rate(measurement.timeout_rate, self.frame_rate)
        spent = _finite(measurement.offload_rate, 0.0, self.frame_rate) * dt
        self._tokens = min(
            max(self._tokens + self.fill_rate * dt - spent, 0.0), self.burst
        )
        target = self._policy(self._tokens, t_rate)
        return min(max(target, 0.0), self.frame_rate)

    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {"tokens": self._tokens}

    def restore_state(self, state: dict) -> None:
        self._tokens = min(max(float(state["tokens"]), 0.0), self.burst)


# ----------------------------------------------------------------------
# Qiu et al. (2208.00485): rate-limited MDP, value-iterated offline
# ----------------------------------------------------------------------
#: offline value-iteration stop criteria
_VI_TOL = 1e-10
_VI_MAX_ITERS = 500


def _bucket_level(tokens: float, burst: float, bucket_levels: int) -> int:
    """Nearest quantized bucket level for an occupancy."""
    frac = min(max(tokens / burst, 0.0), 1.0)
    return int(round(frac * (bucket_levels - 1)))


@functools.lru_cache(maxsize=64, typed=True)
def _solve_policy(
    fill_rate: float,
    burst: float,
    bucket_levels: int,
    staleness_levels: int,
    action_fracs: Tuple[float, ...],
    overdraft_penalty: float,
    staleness_cost: float,
    fail_cost: float,
    p_floor: float,
    stale_reset_rate: float,
    discount: float,
    period: float,
) -> Tuple[Tuple[int, ...], ...]:
    """Value-iterate the rate-limited MDP; ``policy[bucket][staleness]``.

    A pure function of the model parameters (no RNG), memoized so each
    distinct parameter set is solved once per process — the tournament
    builds a controller per cell.  Callers validate the parameters
    first; an exception is never cached, so bad input raises every time.

    The table holds action *indices* into ``action_fracs``, so it
    carries none of the caller's numeric types (``12`` vs ``12.0``,
    ``-0.0`` vs ``0.0``); each controller maps them to its own rates.
    ``-1`` marks a state where no action's Q beats ``-inf`` (a
    degenerate model with infinite or NaN costs), which maps to 0.0.
    """
    nb, ns = bucket_levels, staleness_levels
    dt = period
    levels = [burst * i / (nb - 1) for i in range(nb)]
    actions = [f * fill_rate for f in action_fracs]

    # the (reward, next bucket index, branches with p > 0) table, once;
    # the sweeps below then do only the float work
    table = []
    for i in range(nb):
        row = []
        for j in range(ns):
            stale_frac = j / (ns - 1)
            p_ok = 1.0 - (1.0 - p_floor) * stale_frac
            staler = min(j + 1, ns - 1)
            entries = []
            available = levels[i] + fill_rate * dt
            for rate in actions:
                paid = min(rate * dt, available)
                overdraft = max(rate * dt - available, 0.0)
                reward = (
                    paid * (p_ok - fail_cost * (1.0 - p_ok))
                    - overdraft_penalty * overdraft
                    - staleness_cost * fill_rate * dt * stale_frac
                )
                next_tokens = min(max(available - paid, 0.0), burst)
                if paid >= stale_reset_rate * dt:
                    branches = [(p_ok, 0), (1.0 - p_ok, staler)]
                else:
                    branches = [(1.0, staler)]
                entries.append((
                    reward,
                    _bucket_level(next_tokens, burst, nb),
                    tuple((p, nj) for p, nj in branches if p > 0.0),
                ))
            row.append(tuple(entries))
        table.append(row)

    def q_value(entry, value) -> float:
        reward, ni, branches = entry
        next_row = value[ni]
        future = 0
        for p, nj in branches:
            future += p * next_row[nj]
        return reward + discount * future

    # in-place (Gauss-Seidel) sweeps; q_value is inlined in this hot loop
    value = [[0.0] * ns for _ in range(nb)]
    for _ in range(_VI_MAX_ITERS):
        delta = 0.0
        for i in range(nb):
            value_row, table_row = value[i], table[i]
            for j in range(ns):
                best = None
                for reward, ni, branches in table_row[j]:
                    next_row = value[ni]
                    future = 0
                    for p, nj in branches:
                        future += p * next_row[nj]
                    q = reward + discount * future
                    if best is None or q > best:  # first maximizer wins
                        best = q
                delta = max(delta, abs(best - value_row[j]))
                value_row[j] = best
        if delta < _VI_TOL:
            break

    policy = []
    for i in range(nb):
        row = []
        for j in range(ns):
            best_q, best_k = -math.inf, -1
            for k, entry in enumerate(table[i][j]):
                q = q_value(entry, value)
                if q > best_q + 1e-12:  # first maximizer wins ties
                    best_q, best_k = q, k
            row.append(best_k)
        policy.append(tuple(row))
    return tuple(policy)


class RateLimitedMDPController(Controller):
    """Table-lookup policy from offline value iteration.

    State space: ``bucket_levels`` quantized token levels x
    ``staleness_levels`` counts of consecutive periods without fresh
    successful-offload feedback.  Actions: offload rates as multiples
    of the fill rate.  The offline model (a pure function of the
    constructor parameters — no RNG; the stochasticity lives in the
    transition *probabilities* value iteration sums over):

    * offloads succeed with probability ``p_ok(staleness)``, linearly
      decaying from 1 toward ``p_floor`` — the Qiu et al. framing where
      stale edge feedback makes offloading risky;
    * reward = expected successful payments minus ``fail_cost`` per
      expected failed one, minus ``overdraft_penalty`` per attempted
      frame beyond the budget (those would violate the rate limit),
      minus a staleness carrying cost — so at high staleness the
      optimal action is a *cheap probe* (small spend, big reset value)
      rather than a full burst, and at staleness 0 it is to spend;
    * bucket transition: refill minus payment (tokens are spent whether
      or not the offload succeeds), clamped and re-quantized;
    * staleness transition: a payment of at least ``stale_reset_rate``
      frames/s resets staleness with probability ``p_ok``; otherwise
      staleness increments (saturating).

    Online, the controller tracks the same two state variables from
    measurements and looks the action up; the emitted target is
    additionally capped by the tokens actually available so the policy
    can never ask for more than the budget covers.
    """

    name = "RateLimitedMDP"

    def __init__(
        self,
        frame_rate: float,
        fill_rate: Optional[float] = None,
        burst: Optional[float] = None,
        bucket_levels: int = 9,
        staleness_levels: int = 6,
        action_fracs: Tuple[float, ...] = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0),
        overdraft_penalty: float = 2.0,
        staleness_cost: float = 0.25,
        fail_cost: float = 1.0,
        p_floor: float = 0.2,
        stale_reset_rate: float = 1.0,
        t_tolerance: float = 0.5,
        discount: float = 0.9,
        period: float = 1.0,
    ) -> None:
        if frame_rate <= 0:
            raise ValueError(f"frame rate must be positive, got {frame_rate}")
        self.frame_rate = frame_rate
        self.fill_rate = 0.4 * frame_rate if fill_rate is None else fill_rate
        if self.fill_rate <= 0:
            raise ValueError(f"fill rate must be positive, got {self.fill_rate}")
        self.burst = 2.0 * self.fill_rate if burst is None else burst
        if self.burst <= 0:
            raise ValueError(f"burst must be positive, got {self.burst}")
        if bucket_levels < 2 or staleness_levels < 2:
            raise ValueError("need >= 2 bucket and staleness levels")
        if not action_fracs or any(f < 0 for f in action_fracs):
            raise ValueError(f"action fractions must be >= 0, got {action_fracs}")
        if not 0.0 < discount < 1.0:
            raise ValueError(f"discount must be in (0, 1), got {discount}")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if not 0.0 < p_floor <= 1.0:
            raise ValueError(f"p_floor must be in (0, 1], got {p_floor}")
        self.bucket_levels = bucket_levels
        self.staleness_levels = staleness_levels
        self.action_fracs = tuple(action_fracs)
        self.overdraft_penalty = overdraft_penalty
        self.staleness_cost = staleness_cost
        self.fail_cost = fail_cost
        self.p_floor = p_floor
        self.stale_reset_rate = stale_reset_rate
        self.t_tolerance = t_tolerance
        self.discount = discount
        self.period = period

        self._tokens = self.burst
        self._staleness = 0
        #: policy table, ``_policy[bucket_index][staleness_index]`` ->
        #: offload rate (frames/s), from the memoized offline solve; the
        #: trailing 0.0 is what the solve's ``-1`` (no action won) reads
        rates = tuple(f * self.fill_rate for f in self.action_fracs) + (0.0,)
        self._policy: Tuple[Tuple[float, ...], ...] = tuple(
            tuple(rates[k] for k in row)
            for row in _solve_policy(
                self.fill_rate, self.burst, bucket_levels, staleness_levels,
                self.action_fracs, overdraft_penalty, staleness_cost,
                fail_cost, p_floor, stale_reset_rate, discount, period,
            )
        )

    # ------------------------------------------------------------------
    @property
    def tokens(self) -> float:
        return self._tokens

    @property
    def staleness(self) -> int:
        return self._staleness

    def reset(self) -> None:
        self._tokens = self.burst
        self._staleness = 0

    def _lookup(self) -> float:
        level = _bucket_level(self._tokens, self.burst, self.bucket_levels)
        rate = self._policy[level][self._staleness]
        # never ask for more than the budget covers this period
        cap = self._tokens / self.period + self.fill_rate
        return min(max(min(rate, cap), 0.0), self.frame_rate)

    def initial_target(self, frame_rate: float) -> float:
        return self._lookup()

    def update(self, measurement: Measurement) -> float:
        dt = self.period
        spent = _finite(measurement.offload_rate, 0.0, self.frame_rate) * dt
        self._tokens = min(
            max(self._tokens + self.fill_rate * dt - spent, 0.0), self.burst
        )
        t_rate, _ = sanitize_timeout_rate(measurement.timeout_rate, self.frame_rate)
        success = _finite(measurement.offload_success_rate, 0.0, self.frame_rate)
        fresh = success * dt >= self.stale_reset_rate * dt and t_rate <= self.t_tolerance
        if fresh:
            self._staleness = 0
        else:
            self._staleness = min(self._staleness + 1, self.staleness_levels - 1)
        return self._lookup()

    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {"tokens": self._tokens, "staleness": self._staleness}

    def restore_state(self, state: dict) -> None:
        self._tokens = min(max(float(state["tokens"]), 0.0), self.burst)
        self._staleness = min(
            max(int(state["staleness"]), 0), self.staleness_levels - 1
        )


# ----------------------------------------------------------------------
# the device-local zoo registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ZooEntry:
    """One registered controller: factory + report/doc metadata."""

    #: registry name — must match the scenario-config controller name
    name: str
    #: one-argument factory (DeviceConfig -> Controller)
    factory: Callable
    #: one-line policy description (docs/controllers.md zoo table)
    policy: str
    #: what internal state the controller carries
    state: str
    #: paper citation, or the section of the source paper
    citation: str


def _zoo_entries() -> Tuple[ZooEntry, ...]:
    # imports are local so the registry never drags testbed wiring in
    from repro.control.aimd import AimdController
    from repro.control.baselines import (
        AllOrNothingController,
        AlwaysOffloadController,
        FixedRateController,
        LocalOnlyController,
    )
    from repro.control.framefeedback import FrameFeedbackController
    from repro.control.headroom import HeadroomController
    from repro.control.quality import AdaptiveQualityController

    return (
        ZooEntry(
            "FrameFeedback",
            lambda config: FrameFeedbackController(config.frame_rate),
            "piecewise PD law on the windowed timeout rate",
            "P_o target + PID history",
            "source paper §III (ipps 2024)",
        ),
        ZooEntry(
            "LocalOnly",
            lambda config: LocalOnlyController(),
            "never offload",
            "stateless",
            "source paper §IV-B.1",
        ),
        ZooEntry(
            "AlwaysOffload",
            lambda config: AlwaysOffloadController(),
            "offload every frame, ignore all feedback",
            "stateless",
            "source paper §IV-B.2",
        ),
        ZooEntry(
            "AllOrNothing",
            lambda config: AllOrNothingController(),
            "heartbeat-gated total offloading",
            "last probe outcome",
            "DeepDecision-style, source paper §IV-B.3",
        ),
        ZooEntry(
            "FixedRate",
            lambda config: FixedRateController(min(11.0, config.frame_rate)),
            "open-loop constant offload rate",
            "stateless",
            "characterization baseline (docs/controller.md)",
        ),
        ZooEntry(
            "AIMD",
            lambda config: AimdController(config.frame_rate),
            "additive increase / multiplicative decrease on violations",
            "current target",
            "TCP congestion-control analogue",
        ),
        ZooEntry(
            "Headroom",
            lambda config: HeadroomController(config.frame_rate, config.deadline),
            "latency-headroom-predictive FrameFeedback variant",
            "P_o target + PID history + RTT estimate",
            "extension (docs/controller.md)",
        ),
        ZooEntry(
            "FrameFeedback+Q",
            lambda config: AdaptiveQualityController(config.frame_rate),
            "FrameFeedback + JPEG-quality ladder",
            "P_o target + PID history + quality step",
            "source paper §II-D",
        ),
        ZooEntry(
            "TokenBucket",
            lambda config: TokenBucketOptimalController(config.frame_rate),
            "occupancy-threshold spending under a token-bucket budget",
            "bucket occupancy",
            "Chakrabarti et al., arXiv:2010.13737",
        ),
        ZooEntry(
            "RateLimitedMDP",
            lambda config: RateLimitedMDPController(config.frame_rate),
            "offline value iteration over (bucket, staleness); table lookup",
            "bucket occupancy + staleness counter",
            "Qiu et al., arXiv:2208.00485",
        ),
    )


def zoo_entries() -> Tuple[ZooEntry, ...]:
    """Every registered zoo member with its metadata."""
    return _zoo_entries()


def zoo_controllers() -> Dict[str, Callable]:
    """Device-local registry: name -> one-argument factory.

    Everything here is fuzzed (``tests/test_controller_fuzz.py``) and
    conformance-tested (``tests/test_controller_conformance.py``); the
    names resolve through :func:`repro.experiments.standard
    .extended_controllers`, so every member is also addressable from
    scenario configs and the tournament.
    """
    return {entry.name: entry.factory for entry in _zoo_entries()}
