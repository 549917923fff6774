"""Command-line entry point: regenerate any paper table or figure.

Installed as ``framefeedback`` (see pyproject).  Examples::

    framefeedback fig3                # Table V network comparison
    framefeedback fig4 --frames 2000  # shorter server-load run
    framefeedback table2              # P_l calibration round-trip
    framefeedback all                 # everything, in paper order
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_fig2(args: argparse.Namespace) -> str:
    from repro.experiments.fig2 import run_fig2
    from repro.experiments.report import render_fig2

    return render_fig2(run_fig2(seed=args.seed, duration=args.duration))


def _cmd_fig3(args: argparse.Namespace) -> str:
    from repro.experiments.fig3 import run_fig3
    from repro.experiments.report import render_fig3

    return render_fig3(run_fig3(seed=args.seed, total_frames=args.frames))


def _cmd_fig4(args: argparse.Namespace) -> str:
    from repro.experiments.fig4 import run_fig4
    from repro.experiments.report import render_fig4

    return render_fig4(run_fig4(seed=args.seed, total_frames=args.frames))


def _cmd_table2(args: argparse.Namespace) -> str:
    from repro.experiments.report import render_table2
    from repro.experiments.table2 import run_table2

    return render_table2(run_table2(seed=args.seed))


def _cmd_table3(args: argparse.Namespace) -> str:
    from repro.experiments.report import render_table3
    from repro.experiments.table3 import run_table3, run_tradeoff_sweep

    return render_table3(run_table3(), run_tradeoff_sweep())


def _cmd_table4(args: argparse.Namespace) -> str:
    from repro.experiments.report import render_table4
    from repro.experiments.table4 import paper_settings_rows, run_table4_ablation

    return render_table4(paper_settings_rows(), run_table4_ablation(seed=args.seed))


def _cmd_energy(args: argparse.Namespace) -> str:
    from repro.experiments.energy import (
        PAPER_LOCAL_CPU,
        PAPER_OFFLOAD_CPU,
        run_energy,
    )

    res = run_energy(seed=args.seed)
    return (
        "Sec II-A.5 CPU usage, local vs offloading (paper vs measured)\n"
        f"local:     paper {100 * PAPER_LOCAL_CPU:.1f}%   "
        f"measured {100 * res.local_cpu:.1f}%\n"
        f"offload:   paper {100 * PAPER_OFFLOAD_CPU:.1f}%   "
        f"measured {100 * res.offload_cpu:.1f}%"
    )


def _cmd_controllers(args: argparse.Namespace) -> str:
    from repro.experiments.fig3 import run_fig3
    from repro.experiments.fig4 import run_fig4
    from repro.experiments.report import ascii_table
    from repro.experiments.standard import extended_controllers

    fig3 = run_fig3(seed=args.seed, total_frames=args.frames,
                    controllers=extended_controllers())
    fig4 = run_fig4(seed=args.seed, total_frames=args.frames,
                    controllers=extended_controllers())
    rows = [
        [
            name,
            f"{fig3.runs[name].qos.mean_throughput:6.2f}",
            f"{fig4.runs[name].qos.mean_throughput:6.2f}",
        ]
        for name in extended_controllers()
    ]
    return (
        "Extended controller lineup, whole-run mean P (fps):\n"
        + ascii_table(["controller", "Table V net", "Table VI load"], rows)
    )


def _cmd_breakdown(args: argparse.Namespace) -> str:
    from repro.device.config import DeviceConfig
    from repro.experiments.report import ascii_table
    from repro.experiments.scenario import Scenario, run_scenario
    from repro.experiments.standard import framefeedback_factory
    from repro.workloads.schedules import table_v_schedule, table_vi_schedule

    device = DeviceConfig(total_frames=args.frames)
    rows = []
    for label, net, load in (
        ("Table V (network)", table_v_schedule(), None),
        ("Table VI (load)", None, table_vi_schedule()),
    ):
        result = run_scenario(
            Scenario(
                controller_factory=framefeedback_factory(),
                device=device,
                network=net,
                load=load,
                duration=device.stream_duration + 2.0,
                seed=args.seed,
            )
        )
        rates = result.breakdown.cause_rates(0.0, result.elapsed)
        rows.append([label, f"{rates['T_n']:5.2f}", f"{rates['T_l']:5.2f}"])
    return "Timeout attribution (violations/s):\n" + ascii_table(
        ["scenario", "T_n", "T_l"], rows
    )


def _cmd_fleet(args: argparse.Namespace) -> str:
    from repro.control.framefeedback import FrameFeedbackController
    from repro.experiments.report import ascii_table
    from repro.experiments.scenario import Scenario, homogeneous_fleet, run_scenario

    rows = []
    for n in (1, 2, 4, 8, 12):
        result = run_scenario(
            Scenario(
                members=homogeneous_fleet(n, total_frames=args.frames),
                controller_factory=lambda c: FrameFeedbackController(c.frame_rate),
                seed=args.seed,
            )
        )
        total = sum(result.throughputs().values())
        rows.append(
            [
                n,
                f"{total:7.1f}",
                f"{total / n:6.2f}",
                f"{result.gpu_utilization:5.2f}",
                f"{result.mean_batch_size:5.1f}",
                f"{result.jain_fairness():5.3f}",
            ]
        )
    return "Fleet scaling (FrameFeedback per device):\n" + ascii_table(
        ["devices", "aggregate P", "per-device", "GPU util", "batch", "Jain"], rows
    )


def _cmd_validate(args: argparse.Namespace):
    """Run every reproduction claim; any failing claim exits non-zero."""
    from repro.experiments.validation import render_results, validate_all

    results = validate_all(frames=args.frames)
    return render_results(results), 0 if all(r.passed for r in results) else 1


def _cmd_netem(args: argparse.Namespace) -> str:
    """Emit the tc/NetEm script replaying a schedule on real hardware."""
    from repro.netem.commands import schedule_script, unit_equivalence_note
    from repro.workloads.schedules import fig2_schedule, table_v_schedule

    schedules = {"tablev": table_v_schedule, "fig2": fig2_schedule}
    name = args.schedule
    if name not in schedules:
        raise SystemExit(f"unknown schedule {name!r}; choose from {sorted(schedules)}")
    script = schedule_script(schedules[name](), interface=args.iface)
    return unit_equivalence_note() + "\n" + script


def _cmd_sweep(args: argparse.Namespace) -> str:
    import json as _json

    from repro.experiments.parallel import run_many, seed_sweep_configs
    from repro.experiments.report import ascii_table
    from repro.experiments.seeds import MetricSummary

    if not args.config:
        raise SystemExit("sweep requires --config <file.json>")
    with open(args.config) as fh:
        base = _json.load(fh)
    configs = seed_sweep_configs(base, range(args.seeds))
    summaries = run_many(configs, workers=args.workers)
    throughput = MetricSummary.from_values(
        "mean P", [s.mean_throughput for s in summaries]
    )
    violations = MetricSummary.from_values(
        "mean T", [s.mean_violation_rate for s in summaries]
    )
    rows = [
        [s.seed, f"{s.mean_throughput:6.2f}", f"{s.mean_violation_rate:5.2f}",
         f"{s.successful}/{s.total_frames}"]
        for s in summaries
    ]
    return (
        f"{args.seeds}-seed sweep of {base.get('controller', 'FrameFeedback')} "
        f"({args.workers or 'auto'} workers):\n"
        + ascii_table(["seed", "mean P", "mean T", "ok/total"], rows)
        + f"\n{throughput}\n{violations}"
    )


def _cmd_run(args: argparse.Namespace) -> str:
    import json as _json

    from repro.experiments.report import series_panel
    from repro.experiments.scenario import run_scenario
    from repro.io import export_run, scenario_from_dict

    if not args.config:
        raise SystemExit("run requires --config <file.json>")
    with open(args.config) as fh:
        scenario = scenario_from_dict(_json.load(fh))
    result = run_scenario(scenario)
    lines = [result.qos.row()]
    lines.append(
        series_panel(
            {
                "P": result.traces.throughput,
                "P_o": result.traces.offload_target,
                "T": result.traces.timeout_rate,
            },
            vmax=scenario.device.frame_rate,
        )
    )
    if args.export:
        paths = export_run(result, args.export)
        lines.append(f"exported: {paths['traces']}, {paths['qos']}")
    return "\n".join(lines)


def _cmd_chaos(args: argparse.Namespace):
    """Composed link+server+device fault run with recovery validation.

    Returns ``(text, exit_code)``: a failed recovery invariant exits
    non-zero so CI gates can consume the command directly.
    """
    import json as _json

    if args.realtime:
        return _chaos_realtime(args)

    from repro.control.aimd import AimdController
    from repro.control.headroom import HeadroomController
    from repro.device.config import DeviceConfig
    from repro.experiments.chaos import (
        ChaosScenario,
        default_chaos_injectors,
        run_chaos,
        run_supervision_chaos,
    )
    from repro.experiments.report import ascii_table, series_panel
    from repro.experiments.scenario import Scenario
    from repro.experiments.standard import framefeedback_factory
    from repro.resilience.config import ResilienceConfig

    factories = {
        "framefeedback": framefeedback_factory(),
        # floor = 0.1 F_s so AIMD keeps the paper's standing-probe role
        "aimd": lambda cfg: AimdController(cfg.frame_rate, floor=0.1 * cfg.frame_rate),
        "headroom": lambda cfg: HeadroomController(cfg.frame_rate, cfg.deadline),
    }
    if args.controller not in factories:
        raise SystemExit(
            f"unknown controller {args.controller!r}; choose from {sorted(factories)}"
        )
    if args.fleet:
        from repro.fleet.chaos import DEFAULT_KILL, DEFAULT_SERVERS, run_fleet_chaos
        from repro.metrics.qos import fleet_extras

        result = run_fleet_chaos(seed=args.seed, total_frames=args.frames)
        code = 0 if result.all_invariants_hold else 1
        if args.json:
            return _json.dumps(result.to_dict(), indent=1, sort_keys=True), code
        name, start, duration = DEFAULT_KILL
        lines = [
            f"Fleet chaos run (seed={args.seed}, {args.frames} frames, "
            f"servers={','.join(DEFAULT_SERVERS)}): ServerKill {name} "
            f"@{start}s for {duration}s, failover on vs off",
        ]
        for label, child in (("failover", result.failover),
                             ("no-failover", result.no_failover)):
            qos = child.run.qos
            fleet = fleet_extras(qos.extras)
            lines += [
                "",
                f"{label}: ok={qos.successful}/{qos.total_frames}  "
                f"timeouts={qos.timeouts}  dropped_local={qos.dropped_local}  "
                f"failovers={fleet.get('fleet.failovers', 0.0):.0f}  "
                f"crash_drops={fleet.get('fleet.crash_drops', 0.0):.0f}  "
                f"mttr={fleet.get('fleet.mttr_mean', 0.0):.2f}s",
                ascii_table(
                    ["server", "routed", "ok", "fail", "fo_out", "fo_in", "eject"],
                    [
                        [
                            srv,
                            f"{fleet.get(f'fleet.{srv}.routed', 0.0):.0f}",
                            f"{fleet.get(f'fleet.{srv}.successes', 0.0):.0f}",
                            f"{fleet.get(f'fleet.{srv}.failures', 0.0):.0f}",
                            f"{fleet.get(f'fleet.{srv}.failed_over_out', 0.0):.0f}",
                            f"{fleet.get(f'fleet.{srv}.failed_over_in', 0.0):.0f}",
                            f"{fleet.get(f'fleet.{srv}.ejections', 0.0):.0f}",
                        ]
                        for srv in DEFAULT_SERVERS
                    ],
                ),
            ]
        lines += [
            "",
            "Fleet invariants (kill catches in-flight work; failover must pay off):",
            ascii_table(
                ["invariant", "window", "observed", "expected", "verdict"],
                [c.row() for c in result.fleet_invariants],
            ),
            "",
            f"verdict: {'PASS' if result.all_invariants_hold else 'FAIL'}",
        ]
        return "\n".join(lines), code
    if args.supervision:
        result = run_supervision_chaos(
            seed=args.seed,
            total_frames=args.frames,
            controller_factory=factories[args.controller],
            resilience=ResilienceConfig() if args.resilience else None,
        )
        code = 0 if result.all_invariants_hold else 1
        if args.json:
            return _json.dumps(result.to_dict(), indent=1, sort_keys=True), code
        lines = [
            f"Supervision chaos run ({args.controller}, seed={args.seed}, "
            f"{args.frames} frames): kill/restart schedule, warm vs cold",
        ]
        for label, child in (("warm (checkpointed)", result.warm),
                             ("cold (no checkpoint)", result.cold)):
            sup = child.supervision or {}
            lines += [
                "",
                f"{label}: crashes={sup.get('crashes')}  "
                f"restarts={sup.get('restarts')}  "
                f"missed_windows={sup.get('missed_windows')}  "
                f"mttr={ {k: [round(s, 2) for s in v] for k, v in (sup.get('mttr') or {}).items()} }",
                ascii_table(
                    ["invariant", "window", "observed", "expected", "verdict"],
                    [c.row() for c in child.invariants],
                ),
            ]
        lines += [
            "",
            "Cross-run ordering (same crash schedule, warm vs cold):",
            ascii_table(
                ["invariant", "window", "warm", "cold", "verdict"],
                [c.row() for c in result.cross_invariants],
            ),
            "",
            f"verdict: {'PASS' if result.all_invariants_hold else 'FAIL'}",
        ]
        return "\n".join(lines), code
    chaos = ChaosScenario(
        base=Scenario(
            controller_factory=factories[args.controller],
            device=DeviceConfig(total_frames=args.frames),
            seed=args.seed,
        ),
        injectors=default_chaos_injectors(),
        resilience=ResilienceConfig() if args.resilience else None,
    )
    result = run_chaos(chaos)
    code = 0 if result.all_invariants_hold else 1
    if args.json:
        return _json.dumps(result.to_dict(), indent=1, sort_keys=True), code
    stack = "resilience stack on" if args.resilience else "bare client"
    lines = [
        f"Cross-layer chaos run ({args.controller}, seed={args.seed}, "
        f"{args.frames} frames, {stack})",
        "",
        series_panel(
            {
                "P": result.run.traces.throughput,
                "P_o": result.run.traces.offload_target,
                "T": result.run.traces.timeout_rate,
            },
            vmax=chaos.base.device.frame_rate,
        ),
        "",
        "Per-window QoS (means over each fault window):",
        ascii_table(
            ["injector", "layer", "window", "P", "T", "P_o"],
            [w.row() for w in result.window_qos],
        ),
        "",
        "Recovery invariants (paper §II-A.3 / Table IV):",
        ascii_table(
            ["invariant", "window", "observed", "expected", "verdict"],
            [c.row() for c in result.invariants],
        ),
    ]
    if args.resilience:
        taxonomy = {k: v for k, v in result.failure_taxonomy.items() if v}
        lines += [
            "",
            f"Breaker transitions: {len(result.breaker_transitions)} "
            f"(opened {sum(1 for _, s in result.breaker_transitions if s.value == 'open')}x)",
            "Failure taxonomy: "
            + (
                ", ".join(f"{k}={v}" for k, v in sorted(taxonomy.items()))
                or "(clean)"
            ),
        ]
    lines += ["", f"verdict: {'PASS' if result.all_invariants_hold else 'FAIL'}"]
    return "\n".join(lines), code


def _chaos_realtime(args: argparse.Namespace):
    """Wall-clock chaos: kill/restart a live asyncio gateway under load.

    The same ScenarioSpec fault language as the simulated chaos run,
    replayed against real sockets (:mod:`repro.realtime.chaos`), judged
    by the wall-clock invariants: breaker opens during the outage,
    local fallback is served, the breaker re-closes after the restart,
    completions resume, and accounting is closed on both wire ends.
    """
    import json as _json

    from repro.experiments.report import ascii_table
    from repro.realtime.chaos import default_realtime_spec, run_realtime_chaos

    spec = default_realtime_spec(seed=args.seed)
    if args.clients:
        spec = spec.replace(
            population={"size": args.clients, "name_prefix": "dev"}
        )
    result = run_realtime_chaos(spec)
    code = 0 if result.all_invariants_hold else 1
    if args.json:
        return _json.dumps(result.to_dict(), indent=1, sort_keys=True), code
    report = result.report
    gw = result.gateway_stats
    outcomes = ", ".join(f"{k}={v}" for k, v in sorted(report.outcomes.items()) if v)
    lines = [
        f"Wall-clock chaos run (seed={args.seed}, {report.clients} clients, "
        f"{report.duration:g}s, {result.incarnations} gateway incarnation(s))",
        "",
        f"client outcomes: {outcomes}",
        f"tick jitter: p50={report.jitter_p50 * 1e3:.1f}ms  "
        f"p99={report.jitter_p99 * 1e3:.1f}ms  max={report.jitter_max * 1e3:.1f}ms",
        f"gateway: received={gw.get('received', 0)}  "
        f"completed={gw.get('completed', 0)}  "
        f"overloaded={gw.get('overloaded', 0)}  expired={gw.get('expired', 0)}  "
        f"resets={gw.get('resets', 0)}  batches={gw.get('batches', 0)}",
        "",
        "Wall-clock invariants:",
        ascii_table(
            ["invariant", "window", "observed", "expected", "verdict"],
            [c.row() for c in result.invariants],
        ),
        "",
        f"verdict: {'PASS' if result.all_invariants_hold else 'FAIL'}",
    ]
    return "\n".join(lines), code


def _cmd_loadgen(args: argparse.Namespace):
    """Async load burst against an in-process gateway.

    ``repro loadgen --clients 200 --duration 3`` boots the asyncio
    gateway, drives N resilient clients at a fixed cadence, and prints
    the QoS/taxonomy rollup plus the event-loop health canary (p99 tick
    jitter).  Exits non-zero when accounting fails to close.
    """
    import asyncio
    import json as _json

    from repro.realtime.gateway import GatewayConfig, InferenceGateway
    from repro.realtime.loadgen import LoadgenConfig, run_loadgen

    clients = args.clients or 40
    duration = args.duration if args.duration != 60.0 else 3.0
    config = LoadgenConfig(clients=clients, duration=duration, seed=args.seed)

    async def _run():
        gateway = InferenceGateway(GatewayConfig())
        await gateway.start()
        try:
            report = await run_loadgen(config, gateway.address)
        finally:
            await gateway.stop()
        return report, gateway.stats.as_dict()

    report, gw = asyncio.run(_run())
    closed = report.accounting_closed and (
        gw["received"]
        == gw["completed"] + gw["rejected"] + gw["overloaded"] + gw["expired"]
    )
    code = 0 if closed else 1
    if args.json:
        doc = {"report": report.to_dict(), "gateway": gw,
               "accounting_closed": closed}
        return _json.dumps(doc, indent=1, sort_keys=True), code
    outcomes = ", ".join(f"{k}={v}" for k, v in sorted(report.outcomes.items()) if v)
    taxonomy = ", ".join(f"{k}={v}" for k, v in sorted(report.taxonomy.items()) if v)
    lines = [
        f"loadgen burst: {clients} clients x {config.frame_rate:g} fps "
        f"for {duration:g}s (seed={args.seed})",
        report.qos().row(),
        f"outcomes: {outcomes or '(none)'}",
        f"taxonomy: {taxonomy or '(clean)'}",
        f"tick jitter: p50={report.jitter_p50 * 1e3:.1f}ms  "
        f"p99={report.jitter_p99 * 1e3:.1f}ms  max={report.jitter_max * 1e3:.1f}ms",
        f"gateway: received={gw['received']}  completed={gw['completed']}  "
        f"overloaded={gw['overloaded']}  expired={gw['expired']}  "
        f"batches={gw['batches']}",
        f"accounting: {'closed' if closed else 'LEAK DETECTED'}",
    ]
    return "\n".join(lines), code


def _cmd_profile(args: argparse.Namespace) -> str:
    """Profile one scenario: cProfile hot spots + kernel EnvStats.

    ``framefeedback profile fig3`` answers two questions at once: where
    the wall-clock goes (cProfile, cumulative) and what the kernel did
    to earn it (events scheduled/cancelled/skipped, peak heap, which
    processes flood the heap).  See docs/performance.md for how to read
    the output.

    ``--json`` skips cProfile and emits one diffable document instead:
    ``{"scenario", "seed", "frames", "envs": [EnvStats.as_dict(), ...]}``.
    """
    import cProfile
    import io
    import json as _json
    import pstats

    from repro.sim import core as sim_core

    def _fig3() -> None:
        from repro.experiments.fig3 import run_fig3

        run_fig3(seed=args.seed, total_frames=args.frames)

    def _fig4() -> None:
        from repro.experiments.fig4 import run_fig4

        run_fig4(seed=args.seed, total_frames=args.frames)

    def _chaos() -> None:
        from repro.device.config import DeviceConfig
        from repro.experiments.chaos import (
            ChaosScenario,
            default_chaos_injectors,
            run_chaos,
        )
        from repro.experiments.scenario import Scenario
        from repro.experiments.standard import framefeedback_factory

        run_chaos(
            ChaosScenario(
                base=Scenario(
                    controller_factory=framefeedback_factory(),
                    device=DeviceConfig(total_frames=args.frames),
                    seed=args.seed,
                ),
                injectors=default_chaos_injectors(),
            )
        )

    runners = {"fig3": _fig3, "fig4": _fig4, "chaos": _chaos}
    name = args.scenario or "fig3"
    if name not in runners:
        raise SystemExit(
            f"unknown profile scenario {name!r}; choose from {sorted(runners)}"
        )

    sink: list = []
    sim_core.capture_env_stats(sink)
    profiler = cProfile.Profile()
    try:
        if args.json:
            runners[name]()
        else:
            profiler.runcall(runners[name])
    finally:
        sim_core.capture_env_stats(None)

    if args.json:
        doc = {
            "scenario": name,
            "seed": args.seed,
            "frames": args.frames,
            "envs": [env_stats.as_dict() for env_stats in sink],
        }
        return _json.dumps(doc, indent=1, sort_keys=True)
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats("cumulative").print_stats(15)
    lines = [
        f"profile: {name} (seed={args.seed}, frames={args.frames})",
        "",
        f"kernel stats ({len(sink)} environment(s)):",
    ]
    for i, env_stats in enumerate(sink):
        lines.append(f"  env[{i}]: {env_stats.summary()}")
    lines += ["", "cProfile, top 15 by cumulative time:", buf.getvalue().rstrip()]
    return "\n".join(lines)


def _cmd_trace(args: argparse.Namespace):
    """Run one canned scenario with per-frame tracing on.

    ``--json`` emits the canonical golden serialization (byte-identical
    across runs and across the ``REPRO_SIM_SLOWPATH`` kernels), which
    is exactly what ``tests/goldens/trace_*.json`` hold::

        framefeedback trace fig3 --json > tests/goldens/trace_fig3.json

    Scenario stream lengths are fixed (see
    ``repro.trace.scenarios.DEFAULT_FRAMES``) so golden files stay
    reviewable; ``--frames`` is deliberately ignored here.
    """
    from repro.metrics import trace_latency_summary
    from repro.trace import (
        TRACE_SCENARIOS,
        dumps_trace,
        run_trace_scenario,
        terminal_counts,
    )

    name = args.scenario or "fig3"
    if name not in TRACE_SCENARIOS:
        raise SystemExit(
            f"unknown trace scenario {name!r}; choose from {sorted(TRACE_SCENARIOS)}"
        )
    doc = run_trace_scenario(name, seed=args.seed)
    if args.json:
        # main() prints with one trailing newline, matching dumps_trace
        return dumps_trace(doc)[:-1]
    counts = terminal_counts(doc)
    lines = [
        f"trace: {name} (seed={args.seed}, {len(doc['frames'])} frames, "
        f"{len(doc['events'])} control-plane events)",
        "terminal states:",
    ]
    lines += [f"  {status:18s} {n:5d}" for status, n in counts.items()]
    summary = trace_latency_summary(doc)
    lines.append("latency attribution (total / mean / p95 seconds per span):")
    for span_name, s in summary["spans"].items():
        lines.append(
            f"  {span_name:18s} {s['total']:8.3f} / {s['mean']:.4f} / "
            f"{s['p95']:.4f}  (n={s['count']})"
        )
    fs = summary["frame_seconds"]
    lines.append(
        f"completed frames: {fs['count']}  capture->settled "
        f"mean {fs['mean']:.4f}s  p95 {fs['p95']:.4f}s"
    )
    lines.append("use --json for the canonical golden serialization")
    return "\n".join(lines)


def _cmd_trace_diff(args: argparse.Namespace):
    """Structurally compare two trace files; non-zero exit on divergence."""
    from repro.trace import diff_traces, load_trace

    if not args.scenario or not args.scenario2:
        raise SystemExit("trace-diff requires two trace files: trace-diff a.json b.json")
    report = diff_traces(load_trace(args.scenario), load_trace(args.scenario2))
    if report is None:
        return f"traces identical: {args.scenario} == {args.scenario2}", 0
    return report, 1


def _cmd_combined(args: argparse.Namespace) -> str:
    from repro.experiments.combined import run_additivity_check, run_combined

    combined = run_combined(seed=args.seed, total_frames=args.frames)
    additivity = run_additivity_check(seed=args.seed)
    lines = ["Sec IV-C combined network + server-load stress (extension)"]
    for name, run in combined.runs.items():
        lines.append(f"  {run.qos.row()}")
    lines.append(
        "  FrameFeedback mean T: "
        f"network-only={additivity['network']:.2f}/s  "
        f"load-only={additivity['load']:.2f}/s  "
        f"both={additivity['both']:.2f}/s"
    )
    return "\n".join(lines)


def _cmd_compile(args: argparse.Namespace):
    """Validate a scenario spec and emit its compiled base-format JSON.

    ``repro compile spec.json`` lowers every schedule generator to flat
    phase rows (what ``repro run --config`` and the sweep pool accept);
    ``--expand`` emits one config per population member instead.  A
    spec error exits non-zero with the offending field named.
    """
    import json as _json

    from repro.search import compile_flat, expand_population, load_spec
    from repro.search.language import SpecError

    if not args.scenario:
        raise SystemExit("compile requires a spec file: repro compile spec.json")
    try:
        spec = load_spec(args.scenario)
        if args.expand:
            doc = expand_population(spec)
        else:
            doc = compile_flat(spec)
    except SpecError as exc:
        return f"spec error: {exc}", 1
    return _json.dumps(doc, indent=1, sort_keys=True)


def _cmd_search(args: argparse.Namespace):
    """Adversarial scenario search: find, minimize, emit chaos goldens.

    Deterministic in ``--seed``/``--budget``: the same invocation twice
    prints byte-identical output.  ``--out DIR`` writes each minimized
    distinct failure as a golden scenario file (the workflow that
    produced ``tests/goldens/scenarios/``); ``--json`` emits the
    machine-readable search summary.  Exits non-zero when the budget
    produced no oracle-feasible failure.
    """
    import json as _json

    from repro.experiments.report import ascii_table
    from repro.search import (
        SearchConfig,
        minimize,
        run_search,
        spec_signature,
        write_goldens,
    )

    config = SearchConfig(
        seed=args.seed, budget=args.budget, frames=args.frames, workers=args.workers
    )
    result = run_search(config)
    # minimization often collapses near-clone lineages onto the same
    # mechanism, so dedupe by structural signature AFTER minimizing
    minimized = []
    seen_sigs = set()
    for finding in result.distinct_failures(limit=max(2 * args.goldens, 8)):
        if len(minimized) >= args.goldens:
            break
        mr = minimize(finding, config.params)
        sig = spec_signature(mr.minimized.spec)
        if sig in seen_sigs:
            continue
        seen_sigs.add(sig)
        minimized.append(mr.minimized)
    code = 0 if minimized else 1

    written = []
    if args.out:
        written = write_goldens(args.out, minimized, config.params)

    if args.json:
        doc = result.to_dict()
        doc["minimized"] = [m.as_dict() for m in minimized]
        return _json.dumps(doc, indent=1, sort_keys=True), code

    lines = [
        f"adversarial search: seed={config.seed} budget={config.budget} "
        f"frames={config.frames} controller={config.controller}",
        f"evaluated {len(result.evaluations)} candidates, "
        f"{sum(1 for e in result.evaluations if e.feasible)} oracle-feasible, "
        f"{len(result.failures)} failing (threshold "
        f"{config.params.fail_threshold}/s)",
    ]
    if result.best:
        rows = [
            [
                f"{e.score:7.3f}",
                "yes" if e.feasible else "no",
                ",".join(sorted({f['kind'] for f in e.spec.faults})) or "-",
                _schedule_kind(e.spec.data.get("network")),
                _schedule_kind(e.spec.data.get("load")),
            ]
            for e in result.best[:8]
        ]
        lines += [
            "",
            "best feasible candidates (violations/s):",
            ascii_table(["score", "feasible", "faults", "network", "load"], rows),
        ]
    for m in minimized:
        lines += ["", f"minimized finding (score {m.score}/s):", m.spec.to_json().rstrip()]
    if written:
        lines += ["", "goldens written:"] + [f"  {p}" for p in written]
    lines += ["", f"verdict: {'FINDINGS' if minimized else 'NO FINDINGS'}"]
    return "\n".join(lines), code


def _cmd_tournament(args: argparse.Namespace):
    """Race the controller zoo across the scenario matrix.

    ``repro tournament`` runs the built-in matrix (fig3-style sweep,
    chaos, fleet) — plus any committed search goldens under
    ``tests/goldens/scenarios/`` when run from a checkout — scoring
    every cell as deadline-violation regret against the clairvoyant
    oracle at the same seed.  ``--json`` emits the canonical report
    (byte-identical across runs at the same seed, and across
    simulation kernels); the default output is a markdown ranking.
    ``--lineup A,B`` and ``--matrix x,y`` shrink the race (the CI
    smoke job runs a 2x2 mini-tournament this way).
    """
    import os as _os

    from repro.experiments.tournament import (
        TournamentConfig,
        dumps_report,
        render_report,
        report_document,
        run_tournament,
    )

    scenario_dir = args.scenario_dir
    if scenario_dir is None and _os.path.isdir("tests/goldens/scenarios"):
        scenario_dir = "tests/goldens/scenarios"
    config = TournamentConfig(
        seed=args.seed,
        frames=args.frames,
        controllers=tuple(args.lineup.split(",")) if args.lineup else (),
        scenarios=tuple(args.matrix.split(",")) if args.matrix else (),
        scenario_dir=scenario_dir,
        workers=args.workers,
    )
    result = run_tournament(config)
    if args.json:
        # main() prints with one trailing newline, matching dumps_report
        return dumps_report(report_document(result))[:-1]
    return render_report(result)


def _schedule_kind(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, dict):
        return value["kind"]
    return "phases"


_COMMANDS = {
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "table4": _cmd_table4,
    "energy": _cmd_energy,
    "chaos": _cmd_chaos,
    "combined": _cmd_combined,
    "controllers": _cmd_controllers,
    "breakdown": _cmd_breakdown,
    "fleet": _cmd_fleet,
    "loadgen": _cmd_loadgen,
    "profile": _cmd_profile,
    "trace": _cmd_trace,
    "trace-diff": _cmd_trace_diff,
    "run": _cmd_run,
    "compile": _cmd_compile,
    "search": _cmd_search,
    "sweep": _cmd_sweep,
    "tournament": _cmd_tournament,
    "netem": _cmd_netem,
    "validate": _cmd_validate,
}

_PAPER_ORDER = ["table2", "table3", "table4", "fig2", "fig3", "fig4", "energy", "combined"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framefeedback",
        description="Regenerate the FrameFeedback paper's tables and figures.",
    )
    parser.add_argument("command", choices=[*_COMMANDS, "all"], help="what to run")
    parser.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="scenario to instrument (profile/trace): fig3 | fig4 | chaos "
        "| supervision — or the first trace file (trace-diff), or the "
        "scenario spec file (compile)",
    )
    parser.add_argument(
        "scenario2",
        nargs="?",
        default=None,
        help="second trace file (trace-diff)",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument(
        "--frames", type=int, default=None,
        help="stream length (default 4000; tournament, search, fleet and "
        "chaos --fleet default to their own shorter streams)",
    )
    parser.add_argument(
        "--duration", type=float, default=60.0, help="run length in seconds (fig2)"
    )
    parser.add_argument(
        "--config", type=str, default=None, help="scenario JSON file (run)"
    )
    parser.add_argument(
        "--export", type=str, default=None, help="directory for CSV/JSON artifacts (run)"
    )
    parser.add_argument(
        "--seeds", type=int, default=8, help="number of seeds (sweep)"
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="process-pool size (sweep/search)"
    )
    parser.add_argument(
        "--budget", type=int, default=24, help="candidate evaluations (search)"
    )
    parser.add_argument(
        "--goldens", type=int, default=4,
        help="max distinct failures to minimize (search)"
    )
    parser.add_argument(
        "--out", type=str, default=None,
        help="directory for minimized golden scenario files (search)"
    )
    parser.add_argument(
        "--expand", action="store_true",
        help="emit one config per population member (compile)"
    )
    parser.add_argument(
        "--lineup", type=str, default=None,
        help="comma-separated controller names to race (tournament); "
        "default: the full zoo"
    )
    parser.add_argument(
        "--matrix", type=str, default=None,
        help="comma-separated built-in scenario names to race on "
        "(tournament); default: all"
    )
    parser.add_argument(
        "--scenario-dir", type=str, default=None,
        help="directory of extra golden scenario files to include in "
        "the matrix (tournament); default: tests/goldens/scenarios "
        "when present"
    )
    parser.add_argument(
        "--schedule", type=str, default="tablev", help="schedule name (netem)"
    )
    parser.add_argument(
        "--iface", type=str, default="wlan0", help="network interface (netem)"
    )
    parser.add_argument(
        "--controller",
        type=str,
        default="framefeedback",
        help="controller under chaos: framefeedback | aimd | headroom",
    )
    parser.add_argument(
        "--resilience",
        action="store_true",
        help="enable the resilient offload path (retries + circuit "
        "breaker + server pushback) for the chaos run",
    )
    parser.add_argument(
        "--fleet",
        action="store_true",
        help="run the multi-server kill/failover chaos scenario twice "
        "(failover on vs off) and assert the fleet accounting, "
        "failover-exercised, readmission, and failover-beats-none "
        "invariants",
    )
    parser.add_argument(
        "--realtime",
        action="store_true",
        help="run the chaos scenario against a live asyncio gateway "
        "over real sockets (kill/restart mid-load) and assert the "
        "wall-clock breaker/fallback/accounting invariants",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=None,
        help="concurrent async clients (loadgen, chaos --realtime)",
    )
    parser.add_argument(
        "--supervision",
        action="store_true",
        help="run the kill/restart chaos schedule twice (checkpointed "
        "warm restarts vs cold) and assert the restart-settle and "
        "warm-beats-cold recovery invariants",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON summary (chaos, profile) or "
        "the canonical golden trace (trace)",
    )
    return parser


def _default_frames(args: argparse.Namespace) -> int:
    """The stream length a command runs when ``--frames`` is not given.

    The paper's experiments stream 4000 frames; the tournament, the
    search and the fleet runs race many short streams instead.
    """
    if args.command == "tournament":
        from repro.experiments.tournament import TournamentConfig

        return TournamentConfig.frames
    if args.command == "search":
        from repro.search import SearchConfig

        return SearchConfig.frames
    if args.command == "fleet" or (args.command == "chaos" and args.fleet):
        return 900
    return 4000


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.frames is None:
        args.frames = _default_frames(args)
    commands = _PAPER_ORDER if args.command == "all" else [args.command]
    exit_code = 0
    for i, name in enumerate(commands):
        if i:
            print("\n" + "=" * 72 + "\n")
        out = _COMMANDS[name](args)
        # Commands return either text, or (text, exit_code) when they
        # carry a verdict (chaos): any failure makes the run non-zero.
        if isinstance(out, tuple):
            out, code = out
            exit_code = max(exit_code, code)
        print(out)
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
