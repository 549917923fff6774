"""Scenario compiler + adversarial scenario search.

The subsystem that turns "scenarios we imagined" into "scenarios the
search imagined for us":

* :mod:`repro.search.language` — the declarative scenario language
  (schedule generators, fault timelines, populations) with a
  canonical byte-stable JSON form;
* :mod:`repro.search.compiler` — lowering: generators to phase rows,
  specs to runnable :class:`~repro.experiments.scenario.Scenario`s and
  :class:`~repro.experiments.chaos.ChaosScenario`s, populations to
  per-device configs;
* :mod:`repro.search.feasibility` — the analytic oracle winnability
  check that keeps the search honest;
* :mod:`repro.search.runner` — deterministic scoring (controller run +
  oracle witness) fanned out over the experiment process pool;
* :mod:`repro.search.search` — the coverage-driven adversarial loop;
* :mod:`repro.search.minimize` — delta-debugging shrinker;
* :mod:`repro.search.golden` — minimized findings as byte-replayable
  chaos regression goldens (``tests/goldens/scenarios/``).

CLI: ``repro compile`` (validate/lower a spec) and ``repro search``
(find, minimize and emit goldens).  See ``docs/scenarios.md``.
"""

from repro.search.compiler import (
    build_injectors,
    compile_chaos,
    compile_flat,
    compile_scenario,
    expand_population,
)
from repro.search.feasibility import FeasibilityReport, analyze_feasibility
from repro.search.golden import (
    GOLDEN_VERSION,
    dumps_golden,
    golden_document,
    load_golden,
    replay_golden,
    write_goldens,
)
from repro.search.language import (
    FAULT_KINDS,
    LOAD_KINDS,
    NETWORK_KINDS,
    ScenarioSpec,
    SpecError,
    load_spec,
)
from repro.search.minimize import MinimizeResult, minimize
from repro.search.runner import EvalParams, EvalResult, evaluate_many, evaluate_spec
from repro.search.search import (
    SearchConfig,
    SearchResult,
    run_search,
    spec_signature,
)

__all__ = [
    "FAULT_KINDS",
    "GOLDEN_VERSION",
    "LOAD_KINDS",
    "NETWORK_KINDS",
    "EvalParams",
    "EvalResult",
    "FeasibilityReport",
    "MinimizeResult",
    "ScenarioSpec",
    "SearchConfig",
    "SearchResult",
    "SpecError",
    "analyze_feasibility",
    "build_injectors",
    "compile_chaos",
    "compile_flat",
    "compile_scenario",
    "dumps_golden",
    "evaluate_many",
    "evaluate_spec",
    "expand_population",
    "golden_document",
    "load_golden",
    "load_spec",
    "minimize",
    "replay_golden",
    "run_search",
    "spec_signature",
    "write_goldens",
]
