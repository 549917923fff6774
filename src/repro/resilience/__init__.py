"""Resilient offload path: active defenses under the control loop.

The paper leans on the controller alone to absorb failures — every
timeout folds into ``T`` and the control law backs ``P_o`` off one
period later.  That leaves three gaps this package closes:

* a frame lost to the network stalls the pipeline for the full 250 ms
  deadline before anyone reacts → **deadline-budgeted retransmission**
  (:class:`RetryBudget` gating hedged re-sends while a useful reply is
  still possible);
* during a total outage *every* offloaded frame pays that stall →
  a **circuit breaker** (:class:`CircuitBreaker`) that trips after a
  few consecutive failures, routes frames to the local pipeline, and
  re-probes with exponential backoff;
* a bare rejection is indistinguishable from a dead link → **server
  overload pushback** (``RequestOutcome.OVERLOADED`` + retry-after,
  see :mod:`repro.server.requests`), classified by the
  :class:`~repro.metrics.taxonomy.FailureTaxonomy`.

Enable it per device via
``DeviceConfig(resilience=ResilienceConfig())``; chaos runs flip it on
with ``ChaosScenario(resilience=...)`` or ``repro chaos --resilience``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.resilience.breaker": ("BreakerState", "CircuitBreaker"),
        "repro.resilience.budget": ("RetryBudget",),
        "repro.resilience.config": ("ResilienceConfig",),
        "repro.resilience.layer": ("ResilienceLayer",),
    },
)
