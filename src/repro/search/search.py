"""Coverage-driven adversarial scenario search.

A deterministic random-restart hill climb over the declarative
scenario space: sample feasible candidates, score each by the
controller's deadline-violation rate (:mod:`repro.search.runner`),
then spend the remaining budget mutating the elite — perturbing fault
windows and magnitudes, schedule shapes, load spikes — while rejection
sampling keeps every submitted candidate analytically winnable.

Determinism contract: the whole search is a pure function of
``SearchConfig``.  All randomness flows from one
``np.random.default_rng(seed)`` whose draw order depends only on
sampled content (never on wall-clock or worker scheduling), and
:func:`repro.search.runner.evaluate_many` returns results in
submission order — so ``repro search --seed N --budget K`` twice
yields byte-identical best-scenario JSON and identical scores
(``tests/test_search_determinism.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.search.feasibility import analyze_feasibility
from repro.search.language import ScenarioSpec
from repro.search.runner import EvalParams, EvalResult, evaluate_many

#: fault kinds the sampler draws from (process kills are excluded: the
#: analytic feasibility model refuses to certify them, so they could
#: never become findings — see repro.search.feasibility)
SEARCH_FAULT_KINDS = (
    "bandwidth_collapse",
    "burst_loss",
    "latency_spike",
    "server_crash",
    "server_slowdown",
    "gpu_contention",
    "cpu_throttle",
)

#: bandwidth levels (paper units) abrupt network phases step between
BANDWIDTH_LEVELS = (10.0, 6.0, 4.0, 2.0, 1.0, 0.7, 0.5)

#: shortest candidate stream: the periodic network and load generators
#: draw their period from [20 s, horizon], so the horizon must reach
#: 20 s (600 frames at 30 fps)
MIN_FRAMES = 600


@dataclass(frozen=True)
class SearchConfig:
    """Everything that determines one search run."""

    seed: int = 0
    #: total candidate evaluations (each is a controller + oracle run)
    budget: int = 24
    #: candidates per round (one pool fan-out)
    round_size: int = 8
    #: stream length of every candidate (short: search wants many runs)
    frames: int = 900
    controller: str = "FrameFeedback"
    params: EvalParams = field(default_factory=EvalParams)
    #: elites kept as mutation parents
    elite: int = 3
    #: probability a slot is a fresh random restart (vs a mutation)
    restart_prob: float = 0.3
    #: relative scale of numeric perturbations
    mutation_scale: float = 0.25
    workers: Optional[int] = None
    #: rejection-sampling attempts before giving up on a slot
    max_attempts: int = 64

    def __post_init__(self) -> None:
        if self.frames < MIN_FRAMES:
            raise ValueError(
                f"frames must be at least {MIN_FRAMES} (a 20 s horizon at "
                f"30 fps), got {self.frames}"
            )


@dataclass
class SearchResult:
    """Everything a search run produced, in evaluation order."""

    config: SearchConfig
    evaluations: List[EvalResult] = field(default_factory=list)

    @property
    def best(self) -> List[EvalResult]:
        """Feasible candidates, highest violation score first (stable)."""
        feasible = [e for e in self.evaluations if e.feasible]
        return sorted(feasible, key=lambda e: -e.score)

    @property
    def failures(self) -> List[EvalResult]:
        """Feasible candidates at or above the failure threshold."""
        return [e for e in self.best if e.failing(self.config.params)]

    def distinct_failures(self, limit: int = 3) -> List[EvalResult]:
        """Top failures deduplicated by structural signature.

        Mutation lineages produce near-clones; goldens want *different*
        controller-breaking mechanisms, so only the best exemplar per
        (fault kinds, schedule kinds) signature survives.
        """
        seen = set()
        out: List[EvalResult] = []
        for e in self.failures:
            sig = spec_signature(e.spec)
            if sig in seen:
                continue
            seen.add(sig)
            out.append(e)
            if len(out) >= limit:
                break
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.config.seed,
            "budget": self.config.budget,
            "controller": self.config.controller,
            "params": self.config.params.as_dict(),
            "evaluated": len(self.evaluations),
            "feasible": sum(1 for e in self.evaluations if e.feasible),
            "failures": len(self.failures),
            "best": [e.as_dict() for e in self.best[:5]],
        }


def spec_signature(spec: ScenarioSpec) -> Tuple:
    """The structural (fault kinds, network kind, load kind) signature.

    Two specs with the same signature break the controller through the
    same *mechanism*; golden selection dedups on it, both before and
    after minimization (near-clone mutation lineages often collapse to
    the same minimal scenario).
    """
    net = spec.data.get("network")
    load = spec.data.get("load")
    return (
        tuple(sorted(f["kind"] for f in spec.faults)),
        net["kind"] if isinstance(net, dict) else ("phases" if net else None),
        load["kind"] if isinstance(load, dict) else ("phases" if load else None),
    )




# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------
def _sample_network(rng: np.random.Generator, horizon: float) -> Optional[Any]:
    """One random network field (rows, generator dict, or None)."""
    choice = rng.integers(0, 4)
    if choice == 0:
        return None
    if choice == 1:  # abrupt piecewise phases
        n = int(rng.integers(2, 6))
        starts = np.sort(rng.uniform(2.0, horizon - 2.0, size=n - 1))
        rows = [[0.0, 10.0, 0.0]]
        for s in starts:
            bw = float(rng.choice(BANDWIDTH_LEVELS))
            loss = float(rng.choice((0.0, 0.0, 3.0, 7.0, 10.0)))
            rows.append([round(float(s), 3), bw, loss])
        return rows
    if choice == 2:
        return {
            "kind": "diurnal",
            "period": round(float(rng.uniform(20.0, horizon)), 3),
            "base_bandwidth": 10.0,
            "dip": round(float(rng.uniform(4.0, 9.5)), 3),
            "loss_peak": round(float(rng.choice((0.0, 3.0, 7.0))), 3),
            "step": 2.0,
        }
    return {
        "kind": "mobility",
        "radius_near": 5.0,
        "radius_far": round(float(rng.uniform(30.0, 60.0)), 3),
        "lap_seconds": round(float(rng.uniform(15.0, max(20.0, horizon))), 3),
        "step": 2.0,
    }


def _sample_load(rng: np.random.Generator, horizon: float) -> Optional[Any]:
    choice = rng.integers(0, 4)
    if choice == 0:
        return None
    if choice == 1:  # abrupt piecewise phases
        n = int(rng.integers(2, 5))
        starts = np.sort(rng.uniform(2.0, horizon - 2.0, size=n - 1))
        rows = [[0.0, 0.0]]
        for s in starts:
            rows.append([round(float(s), 3), round(float(rng.uniform(0.0, 150.0)), 3)])
        return rows
    if choice == 2:
        return {
            "kind": "flash_crowd",
            "base_rate": round(float(rng.uniform(0.0, 40.0)), 3),
            "peak_rate": round(float(rng.uniform(100.0, 160.0)), 3),
            "at": round(float(rng.uniform(2.0, horizon * 0.6)), 3),
            "ramp": round(float(rng.uniform(1.0, 6.0)), 3),
            "hold": round(float(rng.uniform(3.0, 12.0)), 3),
            "decay": round(float(rng.uniform(1.0, 8.0)), 3),
        }
    return {
        "kind": "diurnal",
        "period": round(float(rng.uniform(20.0, horizon)), 3),
        "base_rate": 0.0,
        "peak_rate": round(float(rng.uniform(80.0, 150.0)), 3),
        "step": 2.0,
    }


def _sample_fault(rng: np.random.Generator, horizon: float) -> Dict[str, Any]:
    kind = str(rng.choice(SEARCH_FAULT_KINDS))
    start = round(float(rng.uniform(2.0, horizon * 0.7)), 3)
    dur = round(float(rng.uniform(2.0, min(12.0, horizon - start - 1.0))), 3)
    out: Dict[str, Any] = {"kind": kind, "windows": [[start, max(dur, 2.0)]]}
    if kind == "bandwidth_collapse":
        out["factor"] = round(float(rng.uniform(0.01, 0.3)), 4)
    elif kind == "burst_loss":
        out["loss"] = round(float(rng.uniform(0.1, 0.5)), 4)
        out["burst"] = round(float(rng.uniform(2.0, 10.0)), 3)
    elif kind == "latency_spike":
        out["extra_delay"] = round(float(rng.uniform(0.03, 0.3)), 4)
    elif kind == "server_slowdown":
        out["factor"] = round(float(rng.uniform(2.0, 8.0)), 3)
    elif kind == "gpu_contention":
        out["mean_factor"] = round(float(rng.uniform(2.0, 5.0)), 3)
        out["sigma"] = round(float(rng.uniform(0.1, 0.4)), 4)
    elif kind == "cpu_throttle":
        out["factor"] = round(float(rng.uniform(1.5, 4.0)), 3)
    return out


def sample_spec(rng: np.random.Generator, config: SearchConfig) -> ScenarioSpec:
    """One random candidate (may be infeasible; caller filters)."""
    frame_rate = 30.0
    horizon = config.frames / frame_rate
    data: Dict[str, Any] = {
        "controller": config.controller,
        "seed": int(rng.integers(0, 2**16)),
        "device": {"total_frames": int(config.frames)},
    }
    if rng.random() < 0.15:  # heterogeneous hardware occasionally
        data["device"]["profile"] = "pi3b_r1_2"
    net = _sample_network(rng, horizon)
    if net is not None:
        data["network"] = net
    load = _sample_load(rng, horizon)
    if load is not None:
        data["load"] = load
    n_faults = int(rng.integers(0, 4))
    faults = []
    for _ in range(n_faults):
        faults.append(_sample_fault(rng, horizon))
    if faults:
        data["faults"] = faults
    try:
        return ScenarioSpec.from_dict(data)
    except ValueError:
        # overlapping same-resource windows etc.: resample via caller
        return sample_spec(rng, config)


# ----------------------------------------------------------------------
# mutation
# ----------------------------------------------------------------------
def _perturb(rng: np.random.Generator, value: float, scale: float,
             lo: float, hi: float) -> float:
    span = max(abs(value), (hi - lo) * 0.1)
    return round(float(np.clip(value + rng.normal(0.0, scale * span), lo, hi)), 4)


def mutate_spec(
    rng: np.random.Generator, spec: ScenarioSpec, config: SearchConfig
) -> ScenarioSpec:
    """A locally perturbed neighbour of ``spec`` (validated)."""
    horizon = config.frames / 30.0
    data = spec.to_dict()
    scale = config.mutation_scale
    ops = 1 + int(rng.integers(0, 2))
    for _ in range(ops):
        op = rng.integers(0, 5)
        if op == 0 and data.get("faults"):
            # perturb one fault's window placement/length
            entry = data["faults"][int(rng.integers(0, len(data["faults"])))]
            w = entry["windows"][int(rng.integers(0, len(entry["windows"])))]
            w[0] = _perturb(rng, w[0], scale, 0.5, horizon - 2.0)
            w[1] = _perturb(rng, w[1], scale, 1.0, 15.0)
        elif op == 1 and data.get("faults"):
            # perturb one fault's magnitude parameter
            entry = data["faults"][int(rng.integers(0, len(data["faults"])))]
            numeric = [k for k, v in entry.items()
                       if k not in ("kind", "windows") and isinstance(v, float)]
            if numeric:
                key = numeric[int(rng.integers(0, len(numeric)))]
                lo, hi = (0.01, 0.9) if key in ("factor", "loss", "sigma") else (0.01, 12.0)
                if entry["kind"] in ("server_slowdown", "cpu_throttle",
                                     "gpu_contention") and key != "sigma":
                    lo, hi = 1.2, 10.0
                entry[key] = _perturb(rng, entry[key], scale, lo, hi)
        elif op == 2 and isinstance(data.get("network"), list):
            row = data["network"][int(rng.integers(0, len(data["network"])))]
            row[1] = _perturb(rng, row[1], scale, 0.3, 10.0)
            row[2] = _perturb(rng, row[2], scale, 0.0, 15.0)
        elif op == 3 and data.get("load") is not None:
            load = data["load"]
            if isinstance(load, list):
                row = load[int(rng.integers(0, len(load)))]
                row[1] = _perturb(rng, row[1], scale, 0.0, 170.0)
            elif load.get("kind") == "flash_crowd":
                load["peak_rate"] = _perturb(
                    rng, load.get("peak_rate", 150.0), scale, 60.0, 170.0
                )
        else:
            # structural: add or drop a fault
            faults = data.setdefault("faults", [])
            if faults and rng.random() < 0.5:
                faults.pop(int(rng.integers(0, len(faults))))
                if not faults:
                    del data["faults"]
            else:
                faults.append(_sample_fault(rng, horizon))
    try:
        return ScenarioSpec.from_dict(data)
    except ValueError:
        return sample_spec(rng, config)


# ----------------------------------------------------------------------
# the loop
# ----------------------------------------------------------------------
def _next_candidate(
    rng: np.random.Generator,
    config: SearchConfig,
    elites: List[EvalResult],
    seen: set,
) -> Optional[ScenarioSpec]:
    """One analytically-feasible, not-yet-evaluated candidate."""
    for _ in range(config.max_attempts):
        if not elites or rng.random() < config.restart_prob:
            cand = sample_spec(rng, config)
        else:
            parent = elites[int(rng.integers(0, len(elites)))]
            cand = mutate_spec(rng, parent.spec, config)
        key = cand.to_json()
        if key in seen:
            continue
        try:
            report = analyze_feasibility(
                cand,
                feasible_frac=config.params.feasible_frac,
                blackout_limit=config.params.blackout_limit,
            )
        except ValueError:
            # uncompilable draw (same-resource fault overlap, duplicate
            # phase starts): reject like any infeasible candidate
            continue
        if report.feasible:
            seen.add(key)
            return cand
    return None


def run_search(config: SearchConfig) -> SearchResult:
    """The deterministic adversarial search loop."""
    rng = np.random.default_rng(config.seed)
    result = SearchResult(config=config)
    seen: set = set()
    while len(result.evaluations) < config.budget:
        want = min(config.round_size, config.budget - len(result.evaluations))
        elites = result.best[: config.elite]
        batch: List[ScenarioSpec] = []
        for _ in range(want):
            cand = _next_candidate(rng, config, elites, seen)
            if cand is None:
                break
            batch.append(cand)
        if not batch:
            break  # sampling space exhausted under the budget
        result.evaluations.extend(
            evaluate_many(batch, params=config.params, workers=config.workers)
        )
    return result
