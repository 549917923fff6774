"""End-to-end benchmark over fig3, the tournament and the gateway.

    python3 perfbench/run.py --workload {fig3,tournament,gateway} \\
        --seed N --seconds S --trace {0,1}

Untraced (``--trace 0``) runs report the end-to-end metrics, with every
timing scaled to a nominal host speed (``reference.py``); traced
(``--trace 1``) runs report the per-layer split from spans put around the
program's public entry points (``tracing.py``, ``layers.py``).  Every
metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 1 when any digest or accounting check
fails.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import gzip
import itertools
import json
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple

import layers
import reference
from bootstrap import import_program
from reference import REFERENCE_RATE, REFERENCE_START_S, HostSpeed, interpreter_start
from tracing import Tracer
from workloads import WORKLOADS, program_seed

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
TRACE_DIR = HERE / "out"

#: fresh interpreters timed per run for ``setup_s`` (the median is reported)
SETUP_PROBES = 9
#: gateway frames per client per timed chunk, and in the untimed warm-up
GATEWAY_CHUNK = 500
GATEWAY_WARMUP = 1000

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("ref_frames_per_s", "frames/s"),
    ("peak_rss_mb", "MB"),
]


def expected_digests(workload: str, seed: int) -> Dict[str, str]:
    """Recorded output digest of each piece of the workload at ``seed``."""
    with open(DIGESTS) as fh:
        return json.load(fh)[workload].get(str(seed), {})


# ----------------------------------------------------------------------
# set-up time and memory
# ----------------------------------------------------------------------
def setup_seconds(workload: str, seed: int) -> float:
    """Interpreter start to workload built, in a fresh process."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE,
    )
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    finally:
        code = proc.wait(timeout=60)
    if line != b"ready\n" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Checked operations: attempted, failed, and what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def count(self, ok: int, attempted: int, problem: str) -> None:
        self.attempted += attempted
        self.failed += attempted - ok
        if ok < attempted:
            self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> None:
        self.count(int(ok), 1, problem)


# ----------------------------------------------------------------------
# discrete-event workloads
# ----------------------------------------------------------------------
class Throughput:
    """Frames and host seconds of each piece of work, and the host's speed
    sampled just before every timed piece."""

    def __init__(self) -> None:
        #: piece -> [frames, host seconds, times run]
        self.runs: Dict[str, List[float]] = {}
        self.speed = HostSpeed()

    def add(self, piece: str, frames: int, seconds: float) -> None:
        run = self.runs.setdefault(piece, [0, 0.0, 0])
        run[0] += frames
        run[1] += seconds
        run[2] += 1

    def summary(self) -> Dict[str, Any]:
        # one mean run of every piece, so a run cut off part-way through
        # the pieces does not weigh its first pieces more
        frames = sum(f / n for f, _, n in self.runs.values())
        seconds = sum(s / n for _, s, n in self.runs.values())
        raw = frames / seconds
        runs = ", ".join(f"{piece} x{n}" for piece, (_, _, n) in self.runs.items())
        return {
            "ref_frames_per_s": raw * self.speed.slowdown,
            "notes": [
                f"timed {runs}: {raw:.1f} frames/s in host time, at a host speed of "
                f"{self.speed.rate:.0f} reference events/s (x {self.speed.slowdown:.4f} "
                f"to {REFERENCE_RATE:.0f})",
            ],
        }


def sim_untraced(wl: Any, seconds: float, expected: Dict[str, str],
                 tally: Tally) -> Dict[str, Any]:
    """The pieces in turn, each after a host-speed sample, until every
    piece has run and ``seconds`` (samples included) have passed."""
    work = Throughput()
    start = perf_counter()
    for piece in itertools.cycle(wl.pieces):
        if len(work.runs) == len(wl.pieces) and perf_counter() - start >= seconds:
            break
        work.speed.sample()
        t0 = perf_counter()
        result = wl.run(piece)
        work.add(piece, wl.frames(result), perf_counter() - t0)
        tally.check(wl.digest(result) == expected.get(piece), f"{piece}: output digest mismatch")
    return work.summary()


def sim_traced(wl: Any, seconds: float, expected: Dict[str, str],
               tally: Tally) -> Dict[str, Any]:
    """Pairs of (untraced, traced) repetitions of every piece until
    ``seconds`` pass."""
    from repro.sim.core import capture_env_stats

    plain: List[float] = []
    traced: List[float] = []
    per_rep: List[Dict[str, float]] = []
    first = None
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        t0 = perf_counter()
        for piece in wl.pieces:
            result = wl.run(piece)
            tally.check(wl.digest(result) == expected.get(piece), f"{piece}: untraced digest mismatch")
        plain.append(perf_counter() - t0)

        tracer, counters = Tracer(), layers.SimCounters()
        layers.install_sim(tracer, counters)
        capture_env_stats(counters.env_stats)
        try:
            t0 = perf_counter()
            results = [(piece, wl.run(piece)) for piece in wl.pieces]
            traced.append(perf_counter() - t0)
        finally:
            capture_env_stats(None)
            tracer.uninstall()
        for piece, result in results:
            tally.check(wl.digest(result) == expected.get(piece),
                        f"{piece}: traced digest differs from untraced")
        per_rep.append(layers.sim_metrics(tracer.table(), counters))
        first = first or tracer
    return _traced_summary(per_rep, plain, traced, first, tally)


def _traced_summary(per_rep, plain, traced, first, tally) -> Dict[str, Any]:
    metrics: Dict[str, float] = {}
    changed = []
    for name, _unit in layers.PER_LAYER:
        values = [m[name] for m in per_rep]
        if layers.is_exact_count(name):
            changed += [name] if any(v != values[0] for v in values) else []
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    tally.check(not changed, f"counts changed between repetitions: {changed}")
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return {
        "metrics": metrics,
        "tracer": first,
        "notes": [f"{len(traced)} traced and {len(plain)} untraced repetitions; "
                  "*_s are self seconds per traced repetition (median)"],
    }


# ----------------------------------------------------------------------
# gateway workload
# ----------------------------------------------------------------------
async def gateway_untraced(wl: Any, seconds: float, tally: Tally) -> Dict[str, Any]:
    """Chunks of frames, each after a host-speed sample, until ``seconds``
    (samples included) pass."""
    await wl.start()
    per_chunk = GATEWAY_CHUNK * wl.clients
    tally.count(await wl.burst(GATEWAY_WARMUP), GATEWAY_WARMUP * wl.clients,
                "warm-up frames failed")
    rtts = array("d")
    work = Throughput()
    start = perf_counter()
    while not work.runs or perf_counter() - start < seconds:
        work.speed.sample()
        t0 = perf_counter()
        ok = await wl.burst(GATEWAY_CHUNK, rtts)
        work.add(f"chunks of {per_chunk} frames", ok, perf_counter() - t0)
        tally.count(ok, per_chunk, "frames failed")
    for problem in await wl.stop():
        tally.check(False, problem)
    cuts = statistics.quantiles(rtts, n=100)
    summary = work.summary()
    summary["notes"].append(
        f"rtt_p50_ms {cuts[49] * 1e3:.4f} ms, rtt_p99_ms {cuts[98] * 1e3:.4f} ms "
        f"(submit_frame round trips in host time, n={len(rtts)})"
    )
    return summary


async def gateway_traced(wl: Any, seconds: float, tally: Tally) -> Dict[str, Any]:
    await wl.start()
    per_chunk = GATEWAY_CHUNK * wl.clients
    tally.count(await wl.burst(GATEWAY_WARMUP), GATEWAY_WARMUP * wl.clients,
                "warm-up frames failed")
    stats = wl.gateway.stats
    plain: List[float] = []
    traced: List[float] = []
    per_rep: List[Dict[str, float]] = []
    first = None
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        t0 = perf_counter()
        ok = await wl.burst(GATEWAY_CHUNK)
        plain.append(perf_counter() - t0)
        tally.count(ok, per_chunk, "untraced frames failed")

        completed, batches = stats.completed, stats.batches
        tracer = Tracer()
        layers.install_realtime(tracer)
        try:
            t0 = perf_counter()
            ok = await wl.burst(GATEWAY_CHUNK)
            traced.append(perf_counter() - t0)
        finally:
            tracer.uninstall()
        tally.count(ok, per_chunk, "traced frames failed")
        per_rep.append(layers.realtime_metrics(
            tracer.table(), per_chunk, stats.completed - completed, stats.batches - batches
        ))
        first = first or tracer
    for problem in await wl.stop():
        tally.check(False, problem)
    summary = _traced_summary(per_rep, plain, traced, first, tally)
    summary["metrics"]["realtime.frames_per_connection"] = stats.completed / stats.connections
    return summary


# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, tally: Tally,
            trace: bool) -> Dict[str, Any]:
    wl = WORKLOADS[workload](seed)
    if workload == "gateway":
        run = gateway_traced if trace else gateway_untraced
        return asyncio.run(run(wl, seconds, tally))
    run = sim_traced if trace else sim_untraced
    return run(wl, seconds, expected_digests(workload, seed), tally)


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally,
               reference_bytes: int) -> Tuple[Dict[str, float], List[str]]:
    # the parent compiles every module first, so each probe pays
    # interpreter start and imports, not bytecode compilation
    WORKLOADS[workload](seed)
    probes, starts = [], []
    for _ in range(SETUP_PROBES):
        starts.append(interpreter_start())
        probes.append(setup_seconds(workload, seed))
    # each probe in bare-interpreter starts timed just before it
    setup = statistics.median(p / s for p, s in zip(probes, starts)) * REFERENCE_START_S
    run = measure(workload, seed, seconds, tally, trace=False)
    metrics = {
        "setup_s": setup,
        "ref_frames_per_s": run["ref_frames_per_s"],
        # less the reference's working set, which the program never sees
        "peak_rss_mb": peak_rss_mb() - reference_bytes / 2**20,
    }
    notes = [
        f"setup: {SETUP_PROBES} fresh interpreters, median {statistics.median(probes):.4f} "
        f"host s, each scaled to a bare interpreter start of {REFERENCE_START_S} s "
        f"(median start {statistics.median(starts):.4f} host s)",
        *run["notes"],
        f"peak_rss_mb leaves out the reference's {reference_bytes / 2**20:.1f} MB working set",
    ]
    return metrics, notes


def write_trace(workload: str, seed: int, summary: Dict[str, Any]) -> Path:
    tracer = summary["tracer"]
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload}-seed{seed}.json.gz"
    doc = {
        "workload": workload,
        "seed": seed,
        "metrics": summary["metrics"],
        "span_table": tracer.table(),
        "first_traced_repetition": tracer.dump(),
    }
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh)
    return path


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    # the reference's working set is built before the program is imported
    reference_bytes = 0 if args.trace else reference.prepare()
    import_program()
    seed = program_seed(args.seed)
    tally = Tally()
    if args.trace:
        summary = measure(args.workload, seed, args.seconds, tally, trace=True)
        metrics, notes, units = summary["metrics"], summary["notes"], layers.UNITS
        table = summary["tracer"].table()
        print(f"spans of the first traced repetition ({args.workload}):")
        for name in sorted(table):
            row = table[name]
            print(f"  {name:32s} calls {row['calls']:>8d}  total {row['total_s']:.6f} s"
                  f"  self {row['self_s']:.6f} s")
        path = write_trace(args.workload, seed, summary)
        print(f"trace written to {path.relative_to(HERE.parent)}")
    else:
        metrics, notes = end_to_end(args.workload, seed, args.seconds, tally, reference_bytes)
        units = dict(END_TO_END)
    for note in notes:
        print(note)
    print(f"workload {args.workload}, --seed {args.seed} (program seed {seed}), trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    failed_frac = tally.failed / tally.attempted
    print(f"  {'failed_frac':32s} {failed_frac:.6g} ratio ({tally.failed} of {tally.attempted})")
    for problem in sorted(set(tally.problems)):
        print(f"FAILED: {problem}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
