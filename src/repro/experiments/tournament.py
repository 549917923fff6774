"""Controller tournament: the whole zoo raced across the scenario matrix.

Every cell of the matrix is one deterministic chaos run — a
:class:`~repro.search.language.ScenarioSpec` with the cell's
controller substituted — scored as **deadline-violation regret**
against the clairvoyant oracle (:mod:`repro.control.oracle`) on the
*same spec at the same seed*:

    ``regret = mean_violation_rate(controller) - mean_violation_rate(Oracle)``

Regret can go negative: the oracle is clairvoyant about *schedules*
(bandwidth, load), not about injected faults, so a defensive policy
may beat it inside an outage window.  The report ranks controllers by
mean regret across the matrix.

The matrix fans out through :func:`repro.experiments.parallel.map_jobs`
(cells travel as dicts, the same pool discipline the adversarial
search uses), and the report is **byte-deterministic**: two runs of
:func:`run_tournament` with the same config serialize to identical
bytes via :func:`dumps_report`, and the committed tournament golden
replays byte-identically, with ``EnvStats`` on or off.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.search.language import ScenarioSpec
from repro.search.runner import QOS_DECIMALS, qos_summary, run_spec

#: bump on any change to the report document structure
TOURNAMENT_VERSION = 1

#: the scoring reference; always run once per scenario, never ranked
ORACLE = "Oracle"


def default_lineup() -> List[str]:
    """The full zoo, in registry order (the default contestants)."""
    from repro.control.zoo import zoo_entries

    return [entry.name for entry in zoo_entries()]


# ----------------------------------------------------------------------
# the built-in scenario matrix
# ----------------------------------------------------------------------
def builtin_scenarios(frames: int = 900, seed: int = 0) -> Dict[str, ScenarioSpec]:
    """The canonical matrix: fig3-style sweep, chaos, fleet — 6 specs.

    Phase edges and fault windows sit at fixed quarters of the stream
    horizon so the matrix scales with ``frames`` without any window
    falling off the end.  Every spec carries >= 0.5 % link loss in
    every phase (or a two-server topology).
    """
    horizon = frames / 30.0
    q = horizon / 4.0
    device = {"total_frames": frames}

    def spec(**data: Any) -> ScenarioSpec:
        return ScenarioSpec.from_dict(
            {"device": dict(device), "seed": seed, **data}
        )

    return {
        # Table-V-style bandwidth staircase, slightly lossy throughout
        "degraded_bandwidth": spec(
            network=[[0.0, 10.0, 1.0], [q, 4.0, 1.0], [2 * q, 1.5, 1.0],
                     [3 * q, 10.0, 1.0]],
        ),
        # steady bandwidth, loss ramps up and back down
        "lossy_link": spec(
            network=[[0.0, 10.0, 2.0], [q, 10.0, 7.0], [3 * q, 10.0, 3.0]],
        ),
        # Table-VI-style background-load wave on a lossy baseline
        "server_load": spec(
            network=[[0.0, 10.0, 0.5]],
            load=[[0.0, 0.0], [q, 90.0], [2 * q, 150.0], [3 * q, 90.0]],
        ),
        # bandwidth dip and load spike overlapping mid-stream
        "combined_stress": spec(
            network=[[0.0, 10.0, 1.0], [q, 3.0, 2.0], [3 * q, 10.0, 1.0]],
            load=[[0.0, 30.0], [2 * q, 120.0], [3 * q, 30.0]],
        ),
        # chaos: a link collapse then a server crash, lossy throughout
        "chaos_outage": spec(
            network=[[0.0, 10.0, 1.0]],
            faults=[
                {"kind": "bandwidth_collapse", "factor": 0.15,
                 "windows": [[q, 0.5 * q]]},
                {"kind": "server_crash", "windows": [[2.5 * q, 0.5 * q]]},
            ],
        ),
        # two-server fleet losing a member mid-stream (failover on)
        "fleet_failover": spec(
            topology={"servers": ["alpha", "beta"], "failover": True},
            faults=[
                {"kind": "server_kill", "server": "alpha",
                 "windows": [[q, q]]},
            ],
        ),
    }


def load_scenario_dir(directory) -> Dict[str, ScenarioSpec]:
    """Extra matrix columns from committed golden scenario files.

    Accepts both bare spec files and search-golden documents (which
    nest the spec under ``"scenario"``).  Files are taken in sorted
    order; each keeps its own embedded seed/frames so replays match
    the committed search outcome's conditions exactly.
    """
    out: Dict[str, ScenarioSpec] = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as fh:
            doc = json.load(fh)
        data = doc.get("scenario", doc) if isinstance(doc, dict) else doc
        out[path.stem] = ScenarioSpec.from_dict(data)
    return out


# ----------------------------------------------------------------------
# configuration and results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TournamentConfig:
    """One tournament: lineup x matrix at a seed."""

    seed: int = 0
    frames: int = 900
    #: contestants; empty means the full zoo (:func:`default_lineup`)
    controllers: Tuple[str, ...] = ()
    #: restrict the built-in matrix to these names (empty = all)
    scenarios: Tuple[str, ...] = ()
    #: directory of extra golden scenario files to include
    scenario_dir: Optional[str] = None
    workers: Optional[int] = None

    def lineup(self) -> List[str]:
        names = list(self.controllers) or default_lineup()
        return [n for n in names if n != ORACLE]

    def matrix(self) -> Dict[str, ScenarioSpec]:
        specs = builtin_scenarios(frames=self.frames, seed=self.seed)
        if self.scenarios:
            unknown = sorted(set(self.scenarios) - set(specs))
            if unknown:
                raise ValueError(
                    f"unknown scenario(s) {unknown}; "
                    f"built-ins: {sorted(specs)}"
                )
            specs = {k: v for k, v in specs.items() if k in self.scenarios}
        if self.scenario_dir:
            for name, spec in load_scenario_dir(self.scenario_dir).items():
                specs.setdefault(name, spec)
        return specs


@dataclass
class CellResult:
    """One (scenario, controller) run, scored against the oracle."""

    scenario: str
    controller: str
    seed: int
    regret: float
    qos: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "controller": self.controller,
            "seed": self.seed,
            "regret": self.regret,
            "qos": self.qos,
        }


@dataclass
class Standing:
    """One controller's aggregate across the matrix."""

    controller: str
    mean_regret: float
    max_regret: float
    wins: int
    mean_violation_rate: float
    mean_throughput: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "controller": self.controller,
            "mean_regret": self.mean_regret,
            "max_regret": self.max_regret,
            "wins": self.wins,
            "mean_violation_rate": self.mean_violation_rate,
            "mean_throughput": self.mean_throughput,
        }


@dataclass
class TournamentResult:
    """The scored matrix plus the ranking (the report's substance)."""

    config: TournamentConfig
    scenarios: Dict[str, ScenarioSpec]
    oracle_qos: Dict[str, Dict[str, Any]]
    cells: List[CellResult] = field(default_factory=list)
    ranking: List[Standing] = field(default_factory=list)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _run_cell_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Pool entry point: one cell run, dicts in and out (picklable)."""
    spec = ScenarioSpec.from_dict(payload["spec"])
    result = run_spec(spec, controller=payload["controller"])
    return {
        "scenario": payload["scenario"],
        "controller": payload["controller"],
        "seed": spec.seed,
        "qos": qos_summary(result.run.qos),
    }


def run_tournament(config: TournamentConfig = TournamentConfig()) -> TournamentResult:
    """Race the lineup across the matrix; deterministic in the config."""
    from repro.experiments.parallel import map_jobs

    lineup = config.lineup()
    if not lineup:
        raise ValueError("tournament needs at least one non-oracle controller")
    scenarios = config.matrix()
    if not scenarios:
        raise ValueError("tournament needs at least one scenario")

    names = sorted(scenarios)
    payloads = [
        {"scenario": name, "spec": scenarios[name].data, "controller": controller}
        for name in names
        for controller in [ORACLE, *lineup]
    ]
    raw = map_jobs(_run_cell_payload, payloads, workers=config.workers)

    oracle_qos = {
        r["scenario"]: r["qos"] for r in raw if r["controller"] == ORACLE
    }
    cells = [
        CellResult(
            scenario=r["scenario"],
            controller=r["controller"],
            seed=r["seed"],
            regret=round(
                r["qos"]["mean_violation_rate"]
                - oracle_qos[r["scenario"]]["mean_violation_rate"],
                QOS_DECIMALS,
            ),
            qos=r["qos"],
        )
        for r in raw
        if r["controller"] != ORACLE
    ]
    return TournamentResult(
        config=config,
        scenarios=scenarios,
        oracle_qos=oracle_qos,
        cells=cells,
        ranking=_rank(cells, lineup, names),
    )


def _rank(cells: List[CellResult], lineup: Sequence[str],
          scenario_names: Sequence[str]) -> List[Standing]:
    """Mean-regret ranking (ties broken by name, so order is total)."""
    by_controller: Dict[str, List[CellResult]] = {name: [] for name in lineup}
    for cell in cells:
        by_controller[cell.controller].append(cell)
    best_per_scenario = {
        name: min(c.regret for c in cells if c.scenario == name)
        for name in scenario_names
    }
    standings = []
    for name, own in by_controller.items():
        n = len(own)
        standings.append(
            Standing(
                controller=name,
                mean_regret=round(sum(c.regret for c in own) / n, QOS_DECIMALS),
                max_regret=round(max(c.regret for c in own), QOS_DECIMALS),
                wins=sum(
                    1 for c in own if c.regret == best_per_scenario[c.scenario]
                ),
                mean_violation_rate=round(
                    sum(c.qos["mean_violation_rate"] for c in own) / n,
                    QOS_DECIMALS,
                ),
                mean_throughput=round(
                    sum(c.qos["mean_throughput"] for c in own) / n, QOS_DECIMALS
                ),
            )
        )
    standings.sort(key=lambda s: (s.mean_regret, s.controller))
    return standings


# ----------------------------------------------------------------------
# the report artifact
# ----------------------------------------------------------------------
def report_document(result: TournamentResult) -> Dict[str, Any]:
    """The JSON-ready report (sorted, rounded, version-stamped)."""
    return {
        "version": TOURNAMENT_VERSION,
        "seed": result.config.seed,
        "frames": result.config.frames,
        "controllers": list(result.config.lineup()),
        "scenarios": {
            name: {
                "spec": result.scenarios[name].data,
                "oracle_qos": result.oracle_qos[name],
            }
            for name in sorted(result.scenarios)
        },
        "cells": [
            c.as_dict()
            for c in sorted(result.cells, key=lambda c: (c.scenario, c.controller))
        ],
        "ranking": [s.as_dict() for s in result.ranking],
    }


def dumps_report(doc: Dict[str, Any]) -> str:
    """Canonical byte-stable report serialization (newline-terminated)."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def render_report(result: TournamentResult) -> str:
    """The human-readable markdown ranking table."""
    lines = [
        f"# Controller tournament (seed={result.config.seed}, "
        f"{len(result.config.lineup())} controllers x "
        f"{len(result.scenarios)} scenarios)",
        "",
        "Regret = mean deadline-violation rate minus the clairvoyant "
        "oracle's, same spec and seed (violations/s; lower is better).",
        "",
        "| rank | controller | mean regret | max regret | wins | mean T | mean P |",
        "|---:|---|---:|---:|---:|---:|---:|",
    ]
    for i, s in enumerate(result.ranking, start=1):
        lines.append(
            f"| {i} | {s.controller} | {s.mean_regret:.3f} | "
            f"{s.max_regret:.3f} | {s.wins} | "
            f"{s.mean_violation_rate:.3f} | {s.mean_throughput:.2f} |"
        )
    lines += ["", "## Matrix (regret per cell)", ""]
    names = sorted(result.scenarios)
    header = "| controller | " + " | ".join(names) + " |"
    lines += [header, "|---|" + "---:|" * len(names)]
    regrets = {(c.scenario, c.controller): c.regret for c in result.cells}
    for s in result.ranking:
        row = " | ".join(f"{regrets[(n, s.controller)]:.3f}" for n in names)
        lines.append(f"| {s.controller} | {row} |")
    lines += [
        "",
        "Oracle mean violation rate per scenario: "
        + ", ".join(
            f"{n}={result.oracle_qos[n]['mean_violation_rate']:.3f}/s"
            for n in names
        ),
    ]
    return "\n".join(lines)
