"""Sim-twin validation: one spec, two executions, one tolerance band.

The simulator and the asyncio gateway share their server model by
construction — the same affine batch latency ``base + per_item * n``,
the same deadline semantics, the same breaker/retry discipline on the
client side.  This module turns that shared calibration into a tested
claim: run the *same* :class:`~repro.search.language.ScenarioSpec`
through

* the deterministic simulator (:func:`repro.search.compiler.compile_chaos`
  → :func:`repro.experiments.chaos.run_chaos`), and
* the wall-clock gateway (:func:`repro.realtime.chaos.run_realtime_chaos_async`),

and assert the two deadline-violation *fractions* agree within a
calibrated margin, using the paired bootstrap equivalence test
:func:`repro.analysis.significance.equivalent_within` (this twin check
is its only user).

Absolute wall-clock magnitudes are noisy on shared CI hardware, so the
twin contract is deliberately two-sided-but-modest:

* **healthy equivalence** — on a benign spec both executions sit near
  zero violations, and the paired per-seed difference must stay inside
  ``±margin`` (default 8 percentage points);
* **directional agreement** — degrading the spec (a server slowdown
  past the deadline budget) must raise the violation fraction on
  *both* sides.  Direction is robust where magnitude is not.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.significance import equivalent_within
from repro.search.language import ScenarioSpec

#: default equivalence margin on the violation fraction (8 points)
DEFAULT_MARGIN = 0.08

#: GPU slowdown factor used by the directional check: pushes one batch
#: past the 250 ms deadline budget on both executions
#: (``(0.022 + 0.0055) * 12 = 0.33 s`` for even a single-frame batch)
DEGRADED_FACTOR = 12.0


def default_twin_spec(seed: int = 0, duration: float = 4.0) -> ScenarioSpec:
    """A benign spec both executions can run comfortably.

    The network row is effectively infinite bandwidth so the sim's
    uplink delay matches what localhost sockets see (~nothing), leaving
    the shared GPU model as the only latency term on both sides.
    """
    return ScenarioSpec.from_dict(
        {
            "seed": seed,
            "duration": duration,
            "device": {"frame_rate": 10.0, "deadline": 0.25},
            "gpu": {"base_latency": 0.022, "per_item": 0.0055, "jitter_sigma": 0.0},
            "network": [[0.0, 1000.0, 0.0]],
            "population": {"size": 4, "name_prefix": "dev"},
        }
    )


def degraded_twin_spec(spec: ScenarioSpec) -> ScenarioSpec:
    """The same spec with a deadline-busting server slowdown attached."""
    duration = float(spec.data.get("duration", 4.0))
    return spec.replace(
        faults=[
            {
                "kind": "server_slowdown",
                "factor": DEGRADED_FACTOR,
                "windows": [[0.5, max(duration - 0.6, 0.5)]],
            }
        ]
    )


# ----------------------------------------------------------------------
# the two executions
# ----------------------------------------------------------------------


def sim_violation_fraction(spec: ScenarioSpec) -> Tuple[float, Dict[str, Any]]:
    """Run the spec in the simulator; violation fraction + QoS detail."""
    from repro.experiments.chaos import run_chaos
    from repro.search.compiler import compile_chaos

    result = run_chaos(compile_chaos(spec))
    qos = result.run.qos
    fraction = qos.timeouts / qos.total_frames if qos.total_frames else 0.0
    return fraction, {
        "total_frames": qos.total_frames,
        "successful": qos.successful,
        "timeouts": qos.timeouts,
        "rejected": qos.rejected,
    }


async def wallclock_violation_fraction_async(
    spec: ScenarioSpec,
) -> Tuple[float, Dict[str, Any]]:
    """Run the spec against a live gateway; fraction + loadgen detail."""
    from repro.realtime.chaos import run_realtime_chaos_async

    result = await run_realtime_chaos_async(spec)
    report = result.report
    return report.violation_fraction, {
        "submitted": report.submitted,
        "outcomes": dict(report.outcomes),
        "accounting_closed": report.accounting_closed,
    }


# ----------------------------------------------------------------------
# the twin report
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TwinPair:
    """One seed executed on both sides."""

    seed: int
    sim_fraction: float
    real_fraction: float
    sim_detail: Dict[str, Any] = field(default_factory=dict)
    real_detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def gap(self) -> float:
        return self.sim_fraction - self.real_fraction


@dataclass
class TwinReport:
    """The twin verdict: paired fractions plus the equivalence call."""

    spec: ScenarioSpec
    margin: float
    pairs: List[TwinPair]
    equivalent: bool
    #: directional check (None when not run): both sides' degraded
    #: fraction minus their healthy mean
    degraded_rise: Optional[Tuple[float, float]] = None

    @property
    def mean_gap(self) -> float:
        return sum(p.gap for p in self.pairs) / len(self.pairs)

    @property
    def directional_holds(self) -> Optional[bool]:
        if self.degraded_rise is None:
            return None
        sim_rise, real_rise = self.degraded_rise
        return sim_rise > 0.0 and real_rise > 0.0

    @property
    def verdict(self) -> bool:
        directional = self.directional_holds
        return self.equivalent and (directional is None or directional)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "margin": self.margin,
            "pairs": [
                {
                    "seed": p.seed,
                    "sim_fraction": p.sim_fraction,
                    "real_fraction": p.real_fraction,
                    "sim": p.sim_detail,
                    "real": p.real_detail,
                }
                for p in self.pairs
            ],
            "mean_gap": self.mean_gap,
            "equivalent": self.equivalent,
            "degraded_rise": (
                list(self.degraded_rise) if self.degraded_rise else None
            ),
            "verdict": "PASS" if self.verdict else "FAIL",
        }


async def run_twin_async(
    spec: Optional[ScenarioSpec] = None,
    seeds: Sequence[int] = (0, 1, 2),
    margin: float = DEFAULT_MARGIN,
    directional: bool = True,
) -> TwinReport:
    """Execute the twin comparison across ``seeds``.

    The simulator side is deterministic per seed; the wall-clock side
    is a real run, so the equivalence is asserted on the *paired*
    per-seed fractions via the bootstrap band rather than any single
    noisy sample.
    """
    spec = spec or default_twin_spec()
    if not seeds:
        raise ValueError("need at least one seed")
    pairs: List[TwinPair] = []
    for seed in seeds:
        seeded = spec.replace(seed=int(seed))
        sim_frac, sim_detail = sim_violation_fraction(seeded)
        real_frac, real_detail = await wallclock_violation_fraction_async(seeded)
        pairs.append(
            TwinPair(
                seed=int(seed),
                sim_fraction=sim_frac,
                real_fraction=real_frac,
                sim_detail=sim_detail,
                real_detail=real_detail,
            )
        )
    if len(pairs) >= 2:
        equivalent = equivalent_within(
            [p.sim_fraction for p in pairs],
            [p.real_fraction for p in pairs],
            margin=margin,
        )
    else:
        # one pair: no distribution to bootstrap, fall back to the raw gap
        equivalent = abs(pairs[0].gap) <= margin
    degraded_rise: Optional[Tuple[float, float]] = None
    if directional:
        degraded = degraded_twin_spec(spec.replace(seed=int(seeds[0])))
        sim_deg, _ = sim_violation_fraction(degraded)
        real_deg, _ = await wallclock_violation_fraction_async(degraded)
        sim_healthy = sum(p.sim_fraction for p in pairs) / len(pairs)
        real_healthy = sum(p.real_fraction for p in pairs) / len(pairs)
        degraded_rise = (sim_deg - sim_healthy, real_deg - real_healthy)
    return TwinReport(
        spec=spec,
        margin=margin,
        pairs=pairs,
        equivalent=equivalent,
        degraded_rise=degraded_rise,
    )


def run_twin(
    spec: Optional[ScenarioSpec] = None,
    seeds: Sequence[int] = (0, 1, 2),
    margin: float = DEFAULT_MARGIN,
    directional: bool = True,
) -> TwinReport:
    """Synchronous entry point (owns its event loop)."""
    return asyncio.run(
        run_twin_async(spec, seeds=seeds, margin=margin, directional=directional)
    )
