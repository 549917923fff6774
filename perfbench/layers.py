"""The per-layer split: which entry points are spanned, and what each metric is.

``PER_LAYER`` is the single list of per-layer metrics (name, unit); a
traced run reports every one of them on every workload, and a layer the
workload never enters reads 0 there.  ``*_s`` metrics are *self*
seconds per traced repetition; counts and ratios come from the counters
the program already keeps (``EnvStats``, ``LinkStats``, ``ServerStats``,
``gpu.batches_run``, ``GatewayStats``) plus the span call counts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from tracing import Tracer

PER_LAYER: List[Tuple[str, str]] = [
    ("sim.events_processed", "count"),
    ("sim.events_scheduled", "count"),
    ("sim.peak_heap", "count"),
    ("sim.cancel_ratio", "ratio"),
    ("sim.run_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("netem.uplink_events", "count"),
    ("netem.downlink_events", "count"),
    ("netem.packets_per_frame", "ratio"),
    ("netem.retransmit_ratio", "ratio"),
    ("netem.delivered_ratio", "ratio"),
    ("netem.send_calls", "count"),
    ("netem.send_s", "s"),
    ("device.camera_events", "count"),
    ("device.offload_sends", "count"),
    ("device.offload_send_s", "s"),
    ("device.local_offers", "count"),
    ("server.submit_calls", "count"),
    ("server.submit_s", "s"),
    ("server.service_events", "count"),
    ("server.batch_mean", "frames/batch"),
    ("server.completed_ratio", "ratio"),
    ("workloads.background_events", "count"),
    ("control.build_s", "s"),
    ("control.update_calls", "count"),
    ("control.update_s", "s"),
    ("experiments.build_runtime_calls", "count"),
    ("experiments.build_runtime_s", "s"),
    ("search.compile_s", "s"),
    ("faults.install_s", "s"),
    ("fleet.route_calls", "count"),
    ("fleet.route_s", "s"),
    ("resilience.breaker_failures", "count"),
    ("realtime.exchange_s", "s"),
    ("realtime.client_overhead_us", "us"),
    ("realtime.codec_us", "us"),
    ("realtime.batch_mean", "frames/batch"),
    ("realtime.frames_per_connection", "frames"),
    ("trace.overhead_ratio", "ratio"),
]

UNITS: Dict[str, str] = dict(PER_LAYER)


def is_exact_count(name: str) -> bool:
    """True for the metrics that must repeat exactly at one seed.

    Every DES-side count and ratio is a function of the seed alone; the
    wall-clock ``realtime`` figures and all times are not.
    """
    return UNITS[name] not in ("s", "ns", "us") and name.split(".")[0] not in (
        "realtime", "trace"
    )


# ----------------------------------------------------------------------
# discrete-event workloads (fig3, tournament)
# ----------------------------------------------------------------------
class SimCounters:
    """Program counters summed over every runtime one repetition ran."""

    def __init__(self) -> None:
        self.env_stats: List[Any] = []
        self.link = {"frames_sent": 0, "frames_delivered": 0,
                     "packets_sent": 0, "retransmissions": 0}
        self.server = {"received": 0, "completed": 0, "batches": 0}

    def absorb_runtime(self, runtime: Any) -> None:
        for link in (runtime.uplink, runtime.downlink):
            for key in self.link:
                self.link[key] += getattr(link.stats, key)
        servers = runtime.pool.servers if runtime.pool is not None else [runtime.server]
        for server in servers:
            self.server["received"] += server.stats.received
            self.server["completed"] += server.stats.completed
            self.server["batches"] += server.gpu.batches_run


def install_sim(tracer: Tracer, counters: SimCounters) -> None:
    """Span the DES-side entry points and hook the counter collection."""
    from repro.control.base import Controller
    from repro.device.local import LocalPipeline
    from repro.device.offload import OffloadClient
    from repro.experiments import scenario
    from repro.faults.base import FaultInjector
    from repro.fleet.router import Router
    from repro.netem.link import Link
    from repro.resilience.breaker import CircuitBreaker
    from repro.search import compiler
    from repro.server.server import EdgeServer
    from repro.sim.core import Environment

    tracer.method(Environment, "run", "sim.run")
    tracer.method(Link, "send", "netem.send")
    tracer.method(OffloadClient, "send", "device.offload_send")
    tracer.method(LocalPipeline, "offer", "device.local_offer")
    tracer.method(EdgeServer, "submit", "server.submit")
    tracer.method(Controller, "__init__", "control.build")
    tracer.method(Controller, "update", "control.update")
    tracer.function(scenario, "build_runtime", "experiments.build_runtime")
    tracer.function(compiler, "compile_chaos", "search.compile")
    tracer.method(FaultInjector, "install", "faults.install")
    tracer.method(Router, "route", "fleet.route")
    tracer.method(CircuitBreaker, "record_failure", "resilience.breaker_failure")
    tracer.after(scenario.ScenarioRuntime, "run", counters.absorb_runtime)


def install_realtime(tracer: Tracer) -> None:
    """Span the wall-clock client path and the wire codec."""
    from repro.realtime import protocol
    from repro.realtime.client import AsyncSocketRemote, ResilientSocketRemote
    from repro.resilience.breaker import CircuitBreaker

    tracer.method(ResilientSocketRemote, "submit_frame", "realtime.submit_frame",
                  is_async=True)
    tracer.method(AsyncSocketRemote, "exchange", "realtime.exchange", is_async=True)
    for codec in ("encode_request", "encode_reply", "decode_reply"):
        tracer.function(protocol, codec, "realtime." + codec)
    tracer.method(CircuitBreaker, "record_failure", "resilience.breaker_failure")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def zero_metrics() -> Dict[str, float]:
    return {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER}


def _span(table: Dict[str, Dict[str, float]], name: str, key: str) -> float:
    return table.get(name, {}).get(key, 0 if key == "calls" else 0.0)


def sim_metrics(table: Dict[str, Dict[str, float]], counters: SimCounters) -> Dict[str, float]:
    """Per-layer metrics of one traced DES repetition."""
    stats = counters.env_stats
    by_process: Dict[str, int] = {}
    for block in stats:
        for proc, n in block.events_by_process.items():
            by_process[proc] = by_process.get(proc, 0) + n

    def events(suffix: str) -> int:
        return sum(n for proc, n in by_process.items() if proc.endswith(suffix))

    processed = sum(s.events_processed for s in stats)
    scheduled = sum(s.events_scheduled for s in stats)
    link, server = counters.link, counters.server
    run_s = _span(table, "sim.run", "self_s")
    out = zero_metrics()
    out.update({
        "sim.events_processed": processed,
        "sim.events_scheduled": scheduled,
        "sim.peak_heap": max((s.peak_heap_size for s in stats), default=0),
        "sim.cancel_ratio": _ratio(sum(s.events_cancelled for s in stats), scheduled),
        "sim.run_s": run_s,
        "sim.ns_per_event": _ratio(run_s * 1e9, processed),
        "netem.uplink_events": by_process.get("link:uplink", 0),
        "netem.downlink_events": by_process.get("link:downlink", 0),
        "netem.packets_per_frame": _ratio(link["packets_sent"], link["frames_sent"]),
        "netem.retransmit_ratio": _ratio(link["retransmissions"], link["packets_sent"]),
        "netem.delivered_ratio": _ratio(link["frames_delivered"], link["frames_sent"]),
        "netem.send_calls": _span(table, "netem.send", "calls"),
        "netem.send_s": _span(table, "netem.send", "self_s"),
        "device.camera_events": events(":camera"),
        "device.offload_sends": _span(table, "device.offload_send", "calls"),
        "device.offload_send_s": _span(table, "device.offload_send", "self_s"),
        "device.local_offers": _span(table, "device.local_offer", "calls"),
        "server.submit_calls": _span(table, "server.submit", "calls"),
        "server.submit_s": _span(table, "server.submit", "self_s"),
        "server.service_events": events(":service"),
        "server.batch_mean": _ratio(server["completed"], server["batches"]),
        "server.completed_ratio": _ratio(server["completed"], server["received"]),
        "workloads.background_events": by_process.get("background-load", 0),
        "control.build_s": _span(table, "control.build", "self_s"),
        "control.update_calls": _span(table, "control.update", "calls"),
        "control.update_s": _span(table, "control.update", "self_s"),
        "experiments.build_runtime_calls": _span(table, "experiments.build_runtime", "calls"),
        "experiments.build_runtime_s": _span(table, "experiments.build_runtime", "self_s"),
        "search.compile_s": _span(table, "search.compile", "self_s"),
        "faults.install_s": _span(table, "faults.install", "self_s"),
        "fleet.route_calls": _span(table, "fleet.route", "calls"),
        "fleet.route_s": _span(table, "fleet.route", "self_s"),
        "resilience.breaker_failures": _span(table, "resilience.breaker_failure", "calls"),
    })
    return out


def realtime_metrics(table: Dict[str, Dict[str, float]], frames: int,
                     completed: int, batches: int) -> Dict[str, float]:
    """Per-layer metrics of one traced gateway chunk of ``frames`` frames."""
    codec_s = sum(
        _span(table, "realtime." + codec, "total_s")
        for codec in ("encode_request", "encode_reply", "decode_reply")
    )
    overhead_s = (_span(table, "realtime.submit_frame", "total_s")
                  - _span(table, "realtime.exchange", "total_s"))
    out = zero_metrics()
    out.update({
        "resilience.breaker_failures": _span(table, "resilience.breaker_failure", "calls"),
        "realtime.exchange_s": _span(table, "realtime.exchange", "self_s"),
        "realtime.client_overhead_us": _ratio(overhead_s * 1e6, frames),
        "realtime.codec_us": _ratio(codec_s * 1e6, frames),
        "realtime.batch_mean": _ratio(completed, batches),
    })
    return out
