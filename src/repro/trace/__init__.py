"""Per-frame causal tracing (spans + golden-trace regression harness).

The observability layer the aggregate metrics cannot provide: one
causally-linked span tree per captured frame, following it through
capture -> routing -> local inference or offload (attempts, retries,
link traversals, server admission/batching/GPU) -> terminal
classification, plus a global event stream for control-plane decisions
(``P_o`` updates, degraded-input repairs, breaker transitions,
supervision restarts).

Tracing is **off by default and free when off**: every hook in the hot
path is guarded by a single ``env.tracer is None`` check (see
``docs/observability.md`` for the measured overhead budget).  Enable it
by attaching a :class:`Tracer` to a built runtime's environment::

    runtime = build_runtime(scenario)
    runtime.env.tracer = Tracer()
    result = runtime.run()
    doc = trace_document(runtime.env.tracer, meta={...})

Canonical serialization (:func:`trace_document` / :func:`dumps_trace`)
is byte-deterministic for a given seed — independent of callback
interleaving and of whether ``EnvStats`` is on — so
serialized traces double as golden regression artifacts
(``tests/goldens/``), compared structurally with :func:`diff_traces`.
"""

from repro.trace.diff import diff_traces, first_divergence
from repro.trace.golden import (
    TRACE_VERSION,
    dumps_trace,
    load_trace,
    terminal_counts,
    trace_document,
)
from repro.trace.scenarios import (
    TRACE_SCENARIOS,
    run_trace_scenario,
    trace_chaos,
    trace_fig3,
    trace_supervision,
)
from repro.trace.spans import TERMINAL_STATUSES, Span
from repro.trace.tracer import Tracer

__all__ = [
    "Span",
    "TERMINAL_STATUSES",
    "TRACE_SCENARIOS",
    "TRACE_VERSION",
    "Tracer",
    "diff_traces",
    "dumps_trace",
    "first_divergence",
    "load_trace",
    "run_trace_scenario",
    "terminal_counts",
    "trace_chaos",
    "trace_document",
    "trace_fig3",
    "trace_supervision",
]
