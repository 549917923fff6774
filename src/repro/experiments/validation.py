"""Executable reproduction claims: EXPERIMENTS.md as code.

Each :class:`Claim` states one falsifiable finding from the paper's
evaluation or from this repository's extension experiments, how it is
measured, and the acceptance predicate.  :func:`validate_all` runs the
list and returns structured verdicts — the programmatic answer to
"does this repository still reproduce the paper?".

``framefeedback validate`` prints the table and exits non-zero when a
claim fails; tier-1 runs every claim in ``tests/test_validation.py``.
Claims that read the same experiment (the Fig 2 gain runs, the Fig 3
and Fig 4 controller lineups) share it through one :class:`Runs`, so
each experiment runs once per :func:`validate_all` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

T = TypeVar("T")

#: stream length that covers every phase of Tables V and VI (~133 s);
#: claims about a late phase run at least this long
FULL_FRAMES = 4000

#: the paper's four controllers (§IV-B); paper claims compare only these
PAPER = ("FrameFeedback", "LocalOnly", "AlwaysOffload", "AllOrNothing")


class Runs:
    """The experiments of one :func:`validate_all` call, each run once.

    ``frames`` is the requested stream length.  A claim whose finding
    needs a longer run (a late schedule phase) or a fixed run (the
    60 s Fig 2 scenario) fixes its own scale.  Without a memo
    (``shared=False``, what a self-contained claim receives) reading a
    shared experiment raises, so a claim that reads one but is not
    registered ``shared=True`` fails instead of re-running it.
    """

    def __init__(self, frames: int, shared: bool = True) -> None:
        self.frames = frames
        self._memo: Optional[Dict[str, object]] = {} if shared else None

    def get(self, key: str, build: Callable[[], T]) -> T:
        if self._memo is None:
            raise RuntimeError(
                f"shared experiment {key!r} read by a claim not registered shared=True"
            )
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]  # type: ignore[return-value]


@dataclass(frozen=True)
class ClaimResult:
    """One verdict: the claim, the measured value(s), pass/fail."""

    claim_id: str
    statement: str
    measured: str
    passed: bool


@dataclass(frozen=True)
class Claim:
    claim_id: str
    statement: str
    #: returns (measured-description, passed)
    check: Callable[[Runs], Tuple[str, bool]]
    #: the check reads an experiment other claims read too (the Fig 2
    #: gain runs, the Fig 3 / Fig 4 lineups), so it runs in the calling
    #: process on the call's one :class:`Runs`
    shared: bool = False

    def run(self, runs: Runs) -> ClaimResult:
        measured, passed = self.check(runs)
        return ClaimResult(self.claim_id, self.statement, measured, bool(passed))


#: every claim, in EXPERIMENTS.md order (filled by :func:`_claim`)
CLAIMS: List[Claim] = []


def _claim(claim_id: str, shared: bool = False):
    """Register the decorated check as a claim; its docstring is the statement."""

    def register(check):
        CLAIMS.append(Claim(claim_id, " ".join(check.__doc__.split()), check, shared))
        return check

    return register


# ----------------------------------------------------------------------
# shared experiments
# ----------------------------------------------------------------------
def _lineup(names) -> dict:
    from repro.experiments.standard import extended_controllers

    factories = extended_controllers()
    return {name: factories[name] for name in names}


def _fig3(runs: Runs):
    """Table V with every realizable controller plus the oracle."""
    from repro.experiments.fig3 import run_fig3
    from repro.experiments.standard import extended_controllers

    return runs.get(
        "fig3",
        lambda: run_fig3(
            seed=0,
            total_frames=max(runs.frames, FULL_FRAMES),
            controllers=extended_controllers(),
        ),
    )


def _fig4(runs: Runs):
    """Table VI with the paper's four, Reservation, Headroom and the oracle."""
    from repro.experiments.fig4 import run_fig4

    names = PAPER + ("Reservation", "Headroom", "Oracle")
    return runs.get(
        "fig4",
        lambda: run_fig4(
            seed=0,
            total_frames=max(runs.frames, FULL_FRAMES),
            controllers=_lineup(names),
        ),
    )


#: the 4x4 (K_P, K_D) tuning landscape around Table IV's cell
GRID_KP = (0.1, 0.2, 0.4, 0.6)
GRID_KD = (0.0, 0.13, 0.26, 0.52)


def _fig2(runs: Runs):
    """The 60 s Fig 2 scenario for Fig 2's four gain pairs and the grid."""
    from repro.experiments.fig2 import DEFAULT_GAIN_GRID, run_fig2

    grid = [(kp, kd) for kp in GRID_KP for kd in GRID_KD]
    gains = list(DEFAULT_GAIN_GRID) + [g for g in grid if g not in DEFAULT_GAIN_GRID]
    return runs.get("fig2", lambda: run_fig2(gains=gains, duration=60.0, seed=0))


def _paper_winner(phase) -> str:
    return max(PAPER, key=phase.mean_throughput.__getitem__)


def _whole_run(result, names) -> Dict[str, float]:
    return {n: result.runs[n].qos.mean_throughput for n in names}


def _run(factory, device, **scenario):
    """One seed-0 run; ``device`` is a DeviceConfig or a frame count."""
    from repro.device.config import DeviceConfig
    from repro.experiments.scenario import Scenario, run_scenario

    if not isinstance(device, DeviceConfig):
        device = DeviceConfig(total_frames=device)
    return run_scenario(
        Scenario(controller_factory=factory, device=device, seed=0, **scenario)
    )


def _paper_sweep(device, **scenario) -> Dict[str, float]:
    """The paper's four controllers on one scenario: mean P per name."""
    from repro.experiments.standard import standard_controllers

    return {
        name: _run(factory, device, **scenario).qos.mean_throughput
        for name, factory in standard_controllers().items()
    }


# ----------------------------------------------------------------------
# Tables II-IV
# ----------------------------------------------------------------------
@_claim("table2-roundtrip")
def _check_table2_roundtrip(runs: Runs):
    """Table II local rates are recovered through the full device
    pipeline within 5%"""
    from repro.experiments.table2 import run_table2

    cells = run_table2(duration=max(runs.frames / 30.0, 30.0))
    worst = max(cell.relative_error for cell in cells)
    return (
        f"worst P_l round-trip error {100 * worst:.1f}% over {len(cells)} cells",
        worst < 0.05 and len(cells) == 6,
    )


@_claim("table3")
def _check_table3(runs: Runs):
    """Table III top-1 accuracies are reproduced verbatim, and JPEG
    quality raises both accuracy and bytes (§II-D)"""
    from repro.experiments.table3 import run_table3, run_tradeoff_sweep

    paper = {
        "EfficientNetB0": 0.771,
        "EfficientNetB4": 0.829,
        "MobileNetV3Small": 0.674,
        "MobileNetV3Large": 0.752,
    }
    rows = run_table3()
    verbatim = [r.display_name for r in rows] == list(paper) and all(
        abs(r.top1 - paper[r.display_name]) <= 1e-6 * paper[r.display_name]
        for r in rows
    )
    sweep = {(p.resolution, p.jpeg_quality): p for p in run_tradeoff_sweep()}
    lo, hi = sweep[(224, 30.0)], sweep[(224, 95.0)]
    return (
        f"top-1 {', '.join(f'{100 * r.top1:.1f}' for r in rows)}%; "
        f"q30->q95 acc {lo.estimated_accuracy:.3f}->{hi.estimated_accuracy:.3f}, "
        f"bytes {lo.bytes_per_frame:.0f}->{hi.bytes_per_frame:.0f}",
        verbatim
        and hi.estimated_accuracy > lo.estimated_accuracy
        and hi.bytes_per_frame > lo.bytes_per_frame,
    )


@_claim("table4-ablation")
def _check_table4_ablation(runs: Runs):
    """The Table IV settings are within 15% of the best one-row
    ablation on the Table V scenario"""
    from repro.experiments.table4 import run_table4_ablation

    rows = run_table4_ablation(seed=0, total_frames=2400)
    paper = next(r for r in rows if r.label == "paper (Table IV)").mean_throughput
    best = max(r.mean_throughput for r in rows)
    return (
        f"paper settings {paper:.2f} fps vs best ablation {best:.2f}",
        paper > 0.85 * best,
    )


# ----------------------------------------------------------------------
# Fig 2 and the gain grid
# ----------------------------------------------------------------------
@_claim("fig2-tuning", shared=True)
def _check_fig2_tuning(runs: Runs):
    """Table IV gains overshoot less after the loss injection than
    hot proportional gains (Fig 2 / §III-B)"""
    from repro.experiments.fig2 import gain_label

    result = _fig2(runs)
    tuned = result.reports[gain_label(0.2, 0.26)]
    hot = result.reports[gain_label(0.4, 0.26)]
    return (
        f"overshoot tuned {tuned.overshoot:.2f} vs hot-Kp {hot.overshoot:.2f}",
        tuned.overshoot < hot.overshoot,
    )


@_claim("fig2-ramp", shared=True)
def _check_fig2_ramp(runs: Runs):
    """The Table IV gains ramp to F_s before the 7% loss and back
    off by more than 25% after it (Fig 2)"""
    from repro.experiments.fig2 import gain_label

    trace = _fig2(runs).traces[gain_label(0.2, 0.26)]
    peak = trace.max_over(0.0, 27.0)
    before = trace.mean_over(20.0, 27.0)
    after = max(trace.mean_over(35.0, 60.0), trace.mean_over(40.0, 60.0))
    return (
        f"peak {peak:.1f} fps before loss; P_o {before:.1f} -> {after:.1f} after",
        peak > 28.0 and after < 0.75 * before,
    )


@_claim("fig2-sluggish", shared=True)
def _check_fig2_sluggish(runs: Runs):
    """A sluggish K_P=0.05 never reaches F_s before the loss (Fig 2)"""
    from repro.experiments.fig2 import gain_label

    peak = _fig2(runs).traces[gain_label(0.05, 0.26)].max_over(0.0, 27.0)
    return f"Kp=0.05 peaks at {peak:.1f} fps before t=27 s", peak < 25.0


@_claim("fig2-derivative", shared=True)
def _check_fig2_derivative(runs: Runs):
    """K_D decreases overshoot and improves stability (§III-B)"""
    from repro.experiments.fig2 import gain_label

    result = _fig2(runs)
    tuned = result.reports[gain_label(0.2, 0.26)]
    no_kd = result.reports[gain_label(0.2, 0.0)]
    return (
        f"Kd=0.26 vs Kd=0: overshoot {tuned.overshoot:.2f} vs "
        f"{no_kd.overshoot:.2f}, std {tuned.std:.2f} vs {no_kd.std:.2f}",
        tuned.overshoot <= no_kd.overshoot and tuned.std <= no_kd.std,
    )


@_claim("gain-grid", shared=True)
def _check_gain_grid(runs: Runs):
    """Across a 4x4 (K_P, K_D) grid, swing grows with K_P, K_D cuts
    overshoot, and Table IV's cell is near its row's most stable"""
    from repro.experiments.fig2 import gain_label

    reports = _fig2(runs).reports
    cell = {(kp, kd): reports[gain_label(kp, kd)] for kp in GRID_KP for kd in GRID_KD}
    swing = [sum(cell[(kp, kd)].std for kd in GRID_KD) / len(GRID_KD) for kp in GRID_KP]
    paper = cell[(0.2, 0.26)]
    row_best = min(cell[(0.2, kd)].std for kd in GRID_KD)
    return (
        f"mean swing Kp=0.1 {swing[0]:.2f} -> Kp=0.6 {swing[-1]:.2f}; "
        f"Table IV cell std {paper.std:.2f} (row best {row_best:.2f})",
        swing[-1] > swing[0]
        and paper.overshoot < cell[(0.2, 0.0)].overshoot + 1e-9
        and paper.std <= row_best + 1.0,
    )


# ----------------------------------------------------------------------
# Fig 3
# ----------------------------------------------------------------------
@_claim("fig3-intermediate", shared=True)
def _check_fig3_intermediate(runs: Runs):
    """FrameFeedback wins and beats all-or-nothing by >1.3x under
    intermediate network conditions (paper: '50% and up to 3x')"""
    phases = [_fig3(runs).phases[i] for i in (1, 4, 5)]  # bw=4, +loss, bw=4+loss
    adv = [ph.advantage_over("FrameFeedback", "AllOrNothing") for ph in phases]
    return (
        "advantage over AoN " + " / ".join(f"{a:.2f}x" for a in adv),
        all(a > 1.3 for a in adv)
        and all(_paper_winner(ph) == "FrameFeedback" for ph in phases),
    )


@_claim("fig3-saturated", shared=True)
def _check_fig3_saturated(runs: Runs):
    """Under very good network conditions FrameFeedback and
    all-or-nothing have equivalent throughput (Fig 3)"""
    ph = _fig3(runs).phases[3]  # the 60-90 s bw=10 recovery phase
    ff = ph.mean_throughput["FrameFeedback"]
    aon = ph.mean_throughput["AllOrNothing"]
    return f"bw=10: FF {ff:.1f} vs AoN {aon:.1f}", abs(ff - aon) <= 0.15 * aon


@_claim("fig3-dead", shared=True)
def _check_fig3_dead_network(runs: Runs):
    """On a dead link FrameFeedback matches LocalOnly while
    AlwaysOffload collapses (Fig 3, bw=1 phase)"""
    ph = _fig3(runs).phases[2]  # bw=1
    ff = ph.mean_throughput["FrameFeedback"]
    local = ph.mean_throughput["LocalOnly"]
    always = ph.mean_throughput["AlwaysOffload"]
    return (
        f"bw=1: FF {ff:.1f} vs local {local:.1f}, always {always:.1f}",
        abs(ff - local) < min(1.5, 0.1 * local) and always < 2.0,
    )


@_claim("fig3-always-suboptimal", shared=True)
def _check_fig3_always_suboptimal(runs: Runs):
    """'Clearly, the only-offloading strategy is suboptimal' (§IV-D)"""
    qos = _whole_run(_fig3(runs), PAPER)
    return (
        f"whole-run FF {qos['FrameFeedback']:.1f} vs AlwaysOffload "
        f"{qos['AlwaysOffload']:.1f}",
        qos["FrameFeedback"] > qos["AlwaysOffload"],
    )


@_claim("fig3-whole-run", shared=True)
def _check_fig3_whole_run(runs: Runs):
    """FrameFeedback has the highest whole-run throughput on Table V"""
    qos = _whole_run(_fig3(runs), PAPER)
    best = max(PAPER[1:], key=qos.__getitem__)
    return (
        f"whole-run FF {qos['FrameFeedback']:.2f} vs best baseline "
        f"{best} {qos[best]:.2f}",
        qos["FrameFeedback"] > qos[best],
    )


@_claim("probe-fixed-point")
def _check_probe_fixed_point(runs: Runs):
    """Under total offload failure P_o settles at 0.1 F_s (§III-A.1)"""
    from repro.experiments.standard import framefeedback_factory
    from repro.netem.profiles import DEAD
    from repro.workloads.schedules import steady_schedule

    result = _run(framefeedback_factory(), runs.frames, network=steady_schedule(DEAD))
    tail = result.traces.offload_target.values[-15:].mean()
    return f"dead-link P_o settles at {tail:.2f} fps", abs(tail - 3.0) < 1.5


# ----------------------------------------------------------------------
# Fig 4
# ----------------------------------------------------------------------
@_claim("fig4-graceful", shared=True)
def _check_fig4_graceful(runs: Runs):
    """FrameFeedback wins every loaded phase and degrades to ~P_l at
    the 150 req/s peak while AlwaysOffload collapses (§IV-E)"""
    result = _fig4(runs)
    peak = result.phases[4]  # 150 req/s
    ff = peak.mean_throughput["FrameFeedback"]
    always = peak.mean_throughput["AlwaysOffload"]
    winners = {_paper_winner(ph) for ph in result.phases[1:-1]}
    return (
        f"peak-load FF {ff:.1f} fps, always {always:.1f}; "
        f"loaded-phase winners {sorted(winners)}",
        abs(ff - 13.0) < 2.5 and always < 6.0 and winners == {"FrameFeedback"},
    )


@_claim("fig4-fits-offload", shared=True)
def _check_fig4_fits_offload(runs: Runs):
    """Below saturation the Pi 'can fit in some offloading' (§IV-E)"""
    ff = _fig4(runs).phases[1].mean_throughput["FrameFeedback"]  # 90 req/s
    return f"FF at 90 req/s: {ff:.1f} fps (P_l = 13)", ff > 16.0


@_claim("fig4-recovery", shared=True)
def _check_fig4_recovery(runs: Runs):
    """Unloaded phases saturate and the load down-ramp recovers like
    the up-ramp (Fig 4)"""
    phases = _fig4(runs).phases
    up, down = (phases[i].mean_throughput["FrameFeedback"] for i in (1, 7))
    first = phases[0].mean_throughput["AlwaysOffload"]
    last = phases[-1].mean_throughput["FrameFeedback"]
    return (
        f"FF 90 req/s up {up:.1f} / down {down:.1f}; unloaded: always "
        f"{first:.1f} first, FF {last:.1f} last",
        up > 14.0 and down > 14.0 and first > 27.0 and last > 25.0,
    )


# ----------------------------------------------------------------------
# §II-A.5, §IV-C, attribution, robustness
# ----------------------------------------------------------------------
@_claim("energy")
def _check_energy(runs: Runs):
    """CPU usage ~50.2% local vs ~22.3% offloading (§II-A.5)"""
    from repro.experiments.energy import run_energy

    res = run_energy(seed=0, total_frames=runs.frames)
    return (
        f"CPU {100 * res.local_cpu:.1f}% local vs {100 * res.offload_cpu:.1f}% offload",
        abs(res.local_cpu - 0.502) < 0.05
        and abs(res.offload_cpu - 0.223) < 0.05
        and res.drop > 0.2,
    )


@_claim("combined")
def _check_combined(runs: Runs):
    """Under Table V and Table VI at once FrameFeedback stays best,
    and the combined violation rate is no less than 0.8x either
    alone (§IV-C)"""
    from repro.experiments.combined import run_additivity_check, run_combined

    combined = run_combined(seed=0, total_frames=runs.frames)
    qos = {name: run.qos.mean_throughput for name, run in combined.runs.items()}
    t = run_additivity_check(seed=0, total_frames=2400)
    return (
        f"FF {qos['FrameFeedback']:.1f} fps (best other "
        f"{max(v for k, v in qos.items() if k != 'FrameFeedback'):.1f}); "
        f"T net {t['network']:.2f} load {t['load']:.2f} both {t['both']:.2f}",
        qos["FrameFeedback"] == max(qos.values())
        and t["both"] >= 0.8 * max(t["network"], t["load"]),
    )


@_claim("tn-tl-attribution")
def _check_attribution(runs: Runs):
    """Pure network stress attributes to T_n, not T_l (Table I
    split)"""
    from repro.experiments.standard import framefeedback_factory
    from repro.netem.profiles import SEVERE
    from repro.workloads.schedules import steady_schedule

    result = _run(framefeedback_factory(), runs.frames, network=steady_schedule(SEVERE))
    rates = result.breakdown.cause_rates(0.0, result.elapsed)
    return (
        f"network-stress attribution T_n={rates['T_n']:.2f} T_l={rates['T_l']:.2f}",
        rates["T_n"] > 0.5 and rates["T_l"] <= 0.1,
    )


@_claim("tn-tl-split", shared=True)
def _check_attribution_split(runs: Runs):
    """Table V violations land on T_n and Table VI violations on T_l"""
    def rates(result):
        run = result.runs["FrameFeedback"]
        return run.breakdown.cause_rates(0.0, run.elapsed)

    net, load = rates(_fig3(runs)), rates(_fig4(runs))
    return (
        f"Table V T_n={net['T_n']:.2f} T_l={net['T_l']:.2f}; "
        f"Table VI T_n={load['T_n']:.2f} T_l={load['T_l']:.2f}",
        net["T_n"] > 3 * max(net["T_l"], 0.05)
        and load["T_l"] > max(1.0, 3 * max(load["T_n"], 0.05), 5 * max(load["T_n"], 0.01)),
    )


@_claim("robustness")
def _check_robustness(runs: Runs):
    """FrameFeedback beats every baseline on Table V at each of
    seeds 0-4, with non-overlapping 95% CIs"""
    from repro.device.config import DeviceConfig
    from repro.experiments.scenario import Scenario
    from repro.experiments.seeds import compare_across_seeds, win_rate
    from repro.experiments.standard import standard_controllers
    from repro.workloads.schedules import table_v_schedule

    factories = standard_controllers()
    stats = compare_across_seeds(
        Scenario(
            controller_factory=factories["FrameFeedback"],
            device=DeviceConfig(total_frames=runs.frames),
            network=table_v_schedule(),
        ),
        {name: factories[name] for name in PAPER},
        range(5),
    )
    ff = stats["FrameFeedback"]
    wins = all(
        win_rate(stats, "FrameFeedback", name) == 1.0 and ff.lo > stats[name].hi
        for name in PAPER[1:]
    )
    return (
        f"seeds 0-4: FF {ff.mean:.2f}±{ff.ci_half_width:.2f} vs best other "
        f"{max(stats[n].hi for n in PAPER[1:]):.2f} (CI top)",
        wins,
    )


# ----------------------------------------------------------------------
# extension: the controller lineup, regret, latency-predictive control
# ----------------------------------------------------------------------
@_claim("lineup", shared=True)
def _check_lineup(runs: Runs):
    """FrameFeedback is within 0.5 fps of, or above, every
    realizable rival on Table V (its quality-ladder variant aside)
    and every baseline on Table VI, and within 1 fps of every
    realizable controller over Table V's first 80 s"""
    fig3 = _fig3(runs)
    q3 = _whole_run(fig3, fig3.runs)
    q4 = _whole_run(_fig4(runs), _fig4(runs).runs)
    # every realizable rival on the network run except FrameFeedback's
    # own quality-ladder variant, which sheds bytes FF keeps sending
    rivals3 = [n for n in q3 if n not in ("FrameFeedback", "Oracle", "FrameFeedback+Q")]
    rivals4 = ["LocalOnly", "AlwaysOffload", "AllOrNothing", "Reservation"]
    best3 = max(rivals3, key=q3.__getitem__)
    best4 = max(rivals4, key=q4.__getitem__)
    # the first 80 s (2400 frames), before the lossy phases where the
    # quality ladder pulls ahead: every realizable controller, FF+Q too
    early = {
        n: run.traces.throughput.mean_over(0.0, 80.0)
        for n, run in fig3.runs.items()
        if n != "Oracle"
    }
    best_early = max((n for n in early if n != "FrameFeedback"), key=early.__getitem__)
    return (
        f"FF {q3['FrameFeedback']:.2f} vs {best3} {q3[best3]:.2f} (net); "
        f"FF {q4['FrameFeedback']:.2f} vs {best4} {q4[best4]:.2f} (load); "
        f"first 80 s FF {early['FrameFeedback']:.2f} vs {best_early} "
        f"{early[best_early]:.2f}",
        q3["FrameFeedback"] > q3[best3] - 0.5
        and q4["FrameFeedback"] > q4[best4] - 0.5
        and early["FrameFeedback"] >= early[best_early] - 1.0,
    )


@_claim("reservation-blind-spot", shared=True)
def _check_reservation(runs: Runs):
    """The reservation baseline is competitive under server load but
    not under network degradation (§V-B)"""
    q3 = _whole_run(_fig3(runs), ("FrameFeedback", "Reservation"))
    q4 = _whole_run(_fig4(runs), ("FrameFeedback", "Reservation", "AlwaysOffload"))
    return (
        f"Reservation/FF: net {q3['Reservation'] / q3['FrameFeedback']:.2f}, "
        f"load {q4['Reservation'] / q4['FrameFeedback']:.2f}",
        q3["Reservation"] < 0.8 * q3["FrameFeedback"]
        and q4["Reservation"] > 0.8 * q4["FrameFeedback"]
        and q4["Reservation"] > q4["AlwaysOffload"],
    )


@_claim("regret", shared=True)
def _check_regret(runs: Runs):
    """Feedback costs <30% against the clairvoyant oracle on Table V
    and <1.5 fps on Table VI; the oracle bounds FF and Reservation"""
    q3 = _whole_run(_fig3(runs), ("FrameFeedback", "Oracle", "Reservation"))
    q4 = _whole_run(_fig4(runs), ("FrameFeedback", "Oracle"))
    regret3 = q3["Oracle"] - q3["FrameFeedback"]
    regret4 = q4["Oracle"] - q4["FrameFeedback"]
    return (
        f"regret: network {regret3:+.2f} fps, load {regret4:+.2f} fps",
        regret3 < 0.3 * q3["Oracle"]
        and regret4 < 1.5
        and q3["Oracle"] >= q3["FrameFeedback"] - 0.5
        and q3["Oracle"] >= q3["Reservation"],
    )


@_claim("headroom", shared=True)
def _check_headroom(runs: Runs):
    """Latency-predictive control cuts violations by >25% (network)
    and >50% (load) for at most ~12% throughput"""
    def pair(result):
        return result.runs["FrameFeedback"].qos, result.runs["Headroom"].qos

    ff_v, hr_v = pair(_fig3(runs))
    ff_l, hr_l = pair(_fig4(runs))
    return (
        f"violations FF/Headroom: net {ff_v.timeouts}/{hr_v.timeouts}, "
        f"load {ff_l.timeouts}/{hr_l.timeouts}; load P "
        f"{ff_l.mean_throughput:.1f}/{hr_l.mean_throughput:.1f}",
        hr_v.mean_throughput > ff_v.mean_throughput - 1.0
        and hr_v.timeouts < 0.75 * ff_v.timeouts
        and hr_l.timeouts < 0.5 * ff_l.timeouts
        and hr_l.mean_throughput > 0.88 * ff_l.mean_throughput,
    )


@_claim("adaptive-quality", shared=True)
def _check_adaptive_quality(runs: Runs):
    """The JPEG-quality ladder beats accuracy-first q=90 on correct
    answers/s, keeps quality when clean and descends when congested"""
    import numpy as np

    from repro.control.framefeedback import FrameFeedbackController
    from repro.device.config import DeviceConfig
    from repro.models.accuracy import estimate_accuracy
    from repro.models.frames import FrameSpec
    from repro.models.zoo import MOBILENET_V3_SMALL
    from repro.workloads.schedules import table_v_schedule

    fig3 = _fig3(runs)

    def correct_per_second(result) -> float:
        # offloaded successes at the capture quality's accuracy, local
        # ones at the model's native accuracy (raw camera frames)
        tr = result.traces
        n = min(len(tr.offload_success), len(tr.capture_quality))
        acc = np.array(
            [estimate_accuracy(MOBILENET_V3_SMALL, 224, q)
             for q in tr.capture_quality.values[:n]]
        )
        return float(
            (tr.offload_success.values[:n] * acc
             + tr.local_rate.values[:n] * MOBILENET_V3_SMALL.top1_accuracy).mean()
        )

    def fixed(quality: float):
        device = DeviceConfig(
            total_frames=max(runs.frames, FULL_FRAMES),
            frame_spec=FrameSpec(jpeg_quality=quality),
        )
        return _run(
            lambda c: FrameFeedbackController(c.frame_rate),
            device,
            network=table_v_schedule(),
            duration=fig3.duration,
        )

    adaptive = fig3.runs["FrameFeedback+Q"]
    score = correct_per_second(adaptive)
    q90, q50 = correct_per_second(fixed(90.0)), correct_per_second(fixed(50.0))
    quality = adaptive.traces.capture_quality
    clean, congested = quality.mean_over(5.0, 30.0), quality.mean_over(110.0, 133.0)
    return (
        f"correct/s adaptive {score:.2f} vs q=90 {q90:.2f}, q=50 {q50:.2f}; "
        f"mean q {clean:.0f} clean, {congested:.0f} congested",
        score > q90 + 0.5 and score >= 0.85 * q50 and clean >= 85.0 and congested <= 70.0,
    )


# ----------------------------------------------------------------------
# extension: network and server stressors beyond Tables V/VI
# ----------------------------------------------------------------------
@_claim("latency-cliff")
def _check_latency_cliff(runs: Runs):
    """Open-loop offloading on bw=4 hits a violation cliff past ~13
    fps; throughput peaks near the cliff, not at full offload"""
    import numpy as np

    from repro.control.baselines import FixedRateController
    from repro.netem.profiles import CONGESTED
    from repro.workloads.schedules import steady_schedule

    curve = {}
    for rate in (3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 24.0, 30.0):
        result = _run(
            lambda c, _rate=rate: FixedRateController(_rate),
            1200,
            network=steady_schedule(CONGESTED),
        )
        rtts = result.breakdown.totals()
        curve[rate] = (
            float(np.percentile(rtts, 95)) if rtts.size else float("nan"),
            result.qos.mean_violation_rate,
            result.qos.mean_throughput,
        )
    best = max(curve, key=lambda r: curve[r][2])
    return (
        f"6 fps: p95 {1e3 * curve[6.0][0]:.0f} ms, T {curve[6.0][1]:.2f}; "
        f"18 fps: T {curve[18.0][1]:.1f}; P peaks at {best:g} fps offered",
        curve[6.0][1] < 0.5
        and curve[6.0][0] < 0.25
        and curve[18.0][1] > 5.0
        and 9.0 <= best <= 15.0
        and curve[15.0][0] > curve[6.0][0],
    )


@_claim("bursty-loss")
def _check_bursty_loss(runs: Runs):
    """At 10% average loss, i.i.d. or bursty, FrameFeedback stays at
    or above AllOrNothing and LocalOnly and beats AlwaysOffload"""
    from repro.netem.link import LinkConditions
    from repro.workloads.schedules import steady_schedule

    ok, parts = True, []
    for regime, burst in (("iid", 1.0), ("bursty", 12.0)):
        cond = LinkConditions(bandwidth=10.0, loss=0.10, loss_burst=burst)
        q = _paper_sweep(2400, network=steady_schedule(cond))
        ff = q["FrameFeedback"]
        parts.append(f"{regime} FF {ff:.1f} AoN {q['AllOrNothing']:.1f}")
        ok &= (
            ff >= q["AllOrNothing"] - 0.5
            and ff >= q["LocalOnly"] - 0.5
            and ff > q["AlwaysOffload"]
        )
    return "; ".join(parts), ok


@_claim("video-content")
def _check_video_content(runs: Runs):
    """Frame-size variance from video content leaves FrameFeedback
    the best policy on the bw=4 link"""
    from repro.device.config import DeviceConfig
    from repro.netem.profiles import CONGESTED
    from repro.workloads.schedules import steady_schedule
    from repro.workloads.video import VideoContentModel

    variants = {
        "fixed": None,
        "mild": VideoContentModel(mean_bytes=11_700, sigma=0.15, scene_cut_rate=0.1),
        "busy": VideoContentModel(mean_bytes=11_700, sigma=0.35, scene_cut_rate=0.3),
    }
    ok, parts = True, []
    for label, video in variants.items():
        q = _paper_sweep(
            DeviceConfig(total_frames=1800, video=video),
            network=steady_schedule(CONGESTED),
        )
        ff = q["FrameFeedback"]
        parts.append(f"{label} FF {ff:.1f}")
        ok &= (
            ff >= q["LocalOnly"] - 0.5
            and ff > q["AlwaysOffload"]
            and ff > q["AllOrNothing"]
        )
    return "; ".join(parts), ok


@_claim("mobility")
def _check_mobility(runs: Runs):
    """On a two-lap patrol FrameFeedback has the best throughput and
    recovers at each return to the AP (§II-A.4)"""
    from repro.experiments.standard import standard_controllers
    from repro.workloads.mobility import mobility_schedule, patrol_loop

    schedule = mobility_schedule(patrol_loop(lap_seconds=60.0, laps=2), step=2.0)
    results = {
        name: _run(factory, 3600, network=schedule, duration=121.0)
        for name, factory in standard_controllers().items()
    }
    q = {name: r.qos.mean_throughput for name, r in results.items()}
    ff = results["FrameFeedback"].traces.throughput
    lap1, lap2 = ff.mean_over(55.0, 62.0), ff.mean_over(115.0, 121.0)
    return (
        f"FF {q['FrameFeedback']:.1f} vs AoN {q['AllOrNothing']:.1f}; "
        f"back at the AP {lap1:.1f} / {lap2:.1f} fps",
        q["FrameFeedback"] == max(q.values())
        and q["FrameFeedback"] > q["AllOrNothing"] + 1.0
        and lap1 > 20.0
        and lap2 > 20.0,
    )


@_claim("outage")
def _check_outage(runs: Runs):
    """Through two server blackouts FrameFeedback loses no more
    frames than AlwaysOffload with <80% of its violations"""
    from repro.device.config import DeviceConfig
    from repro.experiments.scenario import Scenario, build_runtime
    from repro.experiments.standard import standard_controllers
    from repro.faults import OutageSchedule

    def run(factory, outage: bool):
        runtime = build_runtime(
            Scenario(
                controller_factory=factory,
                device=DeviceConfig(total_frames=3000),
                duration=101.0,
                seed=0,
            )
        )
        if outage:  # two blackouts: [25, 33) and [60, 64)
            OutageSchedule.from_rows([(25.0, 8.0), (60.0, 4.0)]).install(
                runtime.env, runtime.server
            )
        return runtime.run()

    lost, faulted = {}, {}
    for name, factory in standard_controllers().items():
        clean, faulted[name] = run(factory, False), run(factory, True)
        lost[name] = clean.qos.successful - faulted[name].qos.successful
    ff = faulted["FrameFeedback"]
    mid = ff.traces.throughput.mean_over(27.0, 33.0)
    return (
        f"frames lost FF {lost['FrameFeedback']} / always {lost['AlwaysOffload']}"
        f" / AoN {lost['AllOrNothing']}; FF {mid:.1f} fps mid-blackout",
        lost["FrameFeedback"] <= lost["AlwaysOffload"]
        and ff.qos.timeouts < 0.8 * faulted["AlwaysOffload"].qos.timeouts
        and lost["AllOrNothing"] <= lost["FrameFeedback"] + 120
        and mid > 10.0,
    )


@_claim("sensitivity")
def _check_sensitivity(runs: Runs):
    """Looser deadlines help, a 1 s T window is noisier, and smaller
    batch caps favour deadline-bound clients"""
    from repro.device.config import DeviceConfig
    from repro.experiments.scenario import Scenario, build_runtime
    from repro.experiments.standard import framefeedback_factory
    from repro.workloads.schedules import table_v_schedule, table_vi_schedule

    def table_v(**device):
        return _run(
            framefeedback_factory(),
            DeviceConfig(total_frames=2400, **device),
            network=table_v_schedule(),
        ).qos

    def batch_cap(limit: int):
        runtime = build_runtime(
            Scenario(
                controller_factory=framefeedback_factory(),
                device=DeviceConfig(total_frames=2400),
                load=table_vi_schedule(),
                seed=0,
            )
        )
        runtime.server.gpu.batch_limit = limit
        return runtime.run().qos

    default = table_v()  # 250 ms deadline, 3 s T window
    d = {ms: table_v(deadline=ms / 1e3).mean_throughput for ms in (150, 400)}
    d[250] = default.mean_throughput
    w = {1: table_v(t_window_buckets=1).mean_violation_rate, 3: default.mean_violation_rate}
    b = {n: batch_cap(n).mean_throughput for n in (5, 30)}
    return (
        f"P at 150/250/400 ms: {d[150]:.1f}/{d[250]:.1f}/{d[400]:.1f}; "
        f"T window 1 s {w[1]:.2f} vs 3 s {w[3]:.2f}; "
        f"batch cap 5 {b[5]:.1f} vs 30 {b[30]:.1f} fps",
        d[400] >= d[250] - 0.5
        and d[150] <= d[250] + 0.5
        and w[1] >= w[3] - 0.5
        and b[5] >= b[30] - 0.5,
    )


@_claim("resilience")
def _check_resilience(runs: Runs):
    """With retries, breaker and pushback, a server crash or
    bandwidth collapse costs fewer violations than the bare client"""
    from repro.control.framefeedback import FrameFeedbackController
    from repro.device.config import DeviceConfig
    from repro.experiments.chaos import ChaosScenario, run_chaos
    from repro.experiments.scenario import Scenario
    from repro.faults import BandwidthCollapse, FaultTimeline, ServerCrash
    from repro.resilience import ResilienceConfig

    start, end = 25.0, 45.0  # total-failure window of an 80 s run
    window = FaultTimeline.from_rows([(start, end - start)])
    injectors = {
        "server-crash": lambda: ServerCrash(window),
        "bw-collapse": lambda: BandwidthCollapse(window, factor=0.01),
    }

    def run(name: str, resilient: bool):
        return run_chaos(
            ChaosScenario(
                base=Scenario(
                    controller_factory=lambda c: FrameFeedbackController(c.frame_rate),
                    device=DeviceConfig(total_frames=2400),
                    seed=11,
                ),
                injectors=[injectors[name]()],
                resilience=ResilienceConfig() if resilient else None,
            )
        )

    ok, parts = True, []
    for name in ("server-crash", "bw-collapse"):
        bare, res = run(name, False), run(name, True)
        t_bare = bare.run.traces.timeout_rate.mean_over(start, end)
        t_res = res.run.traces.timeout_rate.mean_over(start, end)
        parts.append(f"{name} {t_bare:.2f} -> {t_res:.2f}")
        ok &= (
            t_res < t_bare
            and res.run.qos.timeouts < bare.run.qos.timeouts
            and res.all_invariants_hold
            and res.run.traces.throughput.mean_over(0.0, 80.0)
            >= bare.run.traces.throughput.mean_over(0.0, 80.0) - 0.5
        )
    return "T in the outage, bare -> resilient: " + "; ".join(parts), ok


# ----------------------------------------------------------------------
# extension: multi-tenancy and the tournament
# ----------------------------------------------------------------------
@_claim("fleet-scaling")
def _check_fleet_scaling(runs: Runs):
    """Aggregate throughput grows with fleet size, multi-tenancy
    fills GPU batches, and no device drops below P_l (§II-A.1)"""
    from repro.control.framefeedback import FrameFeedbackController
    from repro.experiments.scenario import Scenario, homogeneous_fleet, run_scenario

    sizes = (1, 2, 4, 8, 12)
    results = {
        n: run_scenario(
            Scenario(
                members=homogeneous_fleet(n, total_frames=900),
                controller_factory=lambda c: FrameFeedbackController(c.frame_rate),
                seed=0,
            )
        )
        for n in sizes
    }
    aggregate = [sum(results[n].throughputs().values()) for n in sizes]
    floor = min(min(r.throughputs().values()) for r in results.values())
    one, twelve = results[1], results[12]
    return (
        f"aggregate {aggregate[0]:.0f} -> {aggregate[-1]:.0f} fps, batch "
        f"{one.mean_batch_size:.1f} -> {twelve.mean_batch_size:.1f}, "
        f"min device {floor:.1f} fps",
        one.mean_batch_size < 3.0
        and twelve.mean_batch_size > 8.0
        and twelve.gpu_utilization > one.gpu_utilization
        and all(b > a for a, b in zip(aggregate, aggregate[1:]))
        and floor > 11.0,
    )


@_claim("three-pi")
def _check_three_pi(runs: Runs):
    """The Fig 3 ordering survives the three concurrent Pis of §IV-A"""
    from repro.experiments.standard import standard_controllers
    from repro.experiments.three_pi import run_three_pi

    per_device = {
        name: run_three_pi(
            factory, total_frames=max(runs.frames, FULL_FRAMES), seed=0
        ).throughputs()
        for name, factory in standard_controllers().items()
    }
    total = {name: sum(tp.values()) for name, tp in per_device.items()}
    local = per_device["LocalOnly"]
    return (
        f"total FF {total['FrameFeedback']:.1f} vs "
        + ", ".join(f"{n} {total[n]:.1f}" for n in PAPER[1:])
        + f"; FF pi3b {per_device['FrameFeedback']['pi3b']:.1f} fps",
        all(total["FrameFeedback"] > total[n] for n in PAPER[1:])
        and per_device["FrameFeedback"]["pi3b"] > 5.0
        and local["pi3b"] < local["pi4b-r12"] <= local["pi4b-r14"] + 0.5,
    )


@_claim("tournament")
def _check_tournament(runs: Runs):
    """Across the tournament matrix the feedback controllers beat
    AlwaysOffload on regret and the literature policies stay within
    1 violation/s of FrameFeedback"""
    from repro.experiments.tournament import TournamentConfig, run_tournament

    result = run_tournament(
        TournamentConfig(
            seed=0,
            frames=900,
            controllers=(
                "FrameFeedback", "AIMD", "AlwaysOffload", "TokenBucket", "RateLimitedMDP",
            ),
        )
    )
    regret = {s.controller: s.mean_regret for s in result.ranking}
    ff = regret["FrameFeedback"]
    return (
        "mean regret "
        + ", ".join(f"{name} {value:+.2f}" for name, value in regret.items()),
        ff < regret["AlwaysOffload"]
        and regret["AIMD"] < regret["AlwaysOffload"]
        and regret["TokenBucket"] < ff + 1.0
        and regret["RateLimitedMDP"] < ff + 1.0
        and len(result.cells) == len(result.ranking) * len(result.scenarios),
    )


def validate_all(frames: int = 4000, claims: Optional[List[Claim]] = None) -> List[ClaimResult]:
    """Run every claim at the given stream length, in the given order.

    The ``shared`` claims run here on one :class:`Runs`, so each shared
    experiment runs once per call; the self-contained claims then fan
    out over worker processes (their checks must be module-level
    functions, so they pickle).
    """
    from repro.experiments.parallel import map_jobs

    claims = list(claims or CLAIMS)
    runs = Runs(frames)
    results = {c.claim_id: c.run(runs) for c in claims if c.shared}
    alone = [(c, frames) for c in claims if not c.shared]
    results.update((r.claim_id, r) for r in map_jobs(_run_alone, alone))
    return [results[c.claim_id] for c in claims]


def _run_alone(job: Tuple[Claim, int]) -> ClaimResult:
    """Pool entry point: one self-contained claim on a :class:`Runs` with no memo."""
    claim, frames = job
    return claim.run(Runs(frames, shared=False))


def render_results(results: List[ClaimResult]) -> str:
    from repro.experiments.report import ascii_table

    rows = [
        ["PASS" if r.passed else "FAIL", r.claim_id, r.measured]
        for r in results
    ]
    n_pass = sum(r.passed for r in results)
    return (
        "Reproduction claims:\n"
        + ascii_table(["verdict", "claim", "measured"], rows)
        + f"\n{n_pass}/{len(results)} claims hold"
    )
