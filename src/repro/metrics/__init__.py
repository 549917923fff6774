"""Measurement substrate: counters, time series, QoS summaries.

The FrameFeedback controller consumes *windowed rates* (its input is
"the average of T from the last few seconds", §III-A.1); experiments
consume *time series* of per-second rates; EXPERIMENTS.md consumes
*QoS summaries*.  Each has a dedicated module here.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.metrics.breakdown": (
            "BreakdownCollector", "LatencySample", "TimeoutCause",
        ),
        "repro.metrics.counters": ("EventCounter", "WindowedRate"),
        "repro.metrics.qos": (
            "PhaseSummary", "QosReport", "fleet_extras", "summarize_phases",
        ),
        "repro.metrics.streaming": ("StreamingHistogram",),
        "repro.metrics.taxonomy": ("FailureKind", "FailureTaxonomy"),
        "repro.metrics.timeseries": ("TimeSeries",),
        "repro.metrics.tracestats": ("span_duration_stats", "trace_latency_summary"),
    },
)
