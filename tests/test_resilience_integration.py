"""Integration tests for the resilient offload path.

Client-level: deadline-budgeted hedged retransmission, budget
exhaustion, overload pushback classification, and the late-response
attribution grace.  Device-level: the circuit breaker under a server
blackout — trip latency, local fallback routing, the parked standing
probe, exponential half-open backoff, bounded re-close — plus the
same-seed regression showing resilience strictly reduces deadline
violations during the outage.
"""

import numpy as np
import pytest

from repro.control.framefeedback import FrameFeedbackController
from repro.device.camera import Frame
from repro.device.config import DeviceConfig
from repro.device.offload import OffloadClient
from repro.experiments.chaos import ChaosScenario, run_chaos
from repro.experiments.scenario import Scenario
from repro.faults import FaultTimeline, ServerCrash
from repro.metrics.breakdown import BreakdownCollector, TimeoutCause
from repro.metrics.taxonomy import FailureKind
from repro.models.latency import GpuBatchModel
from repro.netem.link import ConditionBox, Link, LinkConditions
from repro.resilience import BreakerState, ResilienceConfig, ResilienceLayer
from repro.server.server import EdgeServer
from repro.sim import Environment
from tests.timers import every

FRAME_RATE = 30.0


class Harness:
    """Offload path with injectable link/server/resilience behaviour."""

    def __init__(
        self,
        conditions=None,
        gpu=None,
        deadline=0.25,
        seed=0,
        resilience=None,
        pushback=False,
        batch_limit=None,
        breakdown=False,
    ):
        self.env = Environment()
        self.box = ConditionBox(conditions or LinkConditions(jitter_sigma=0.0))
        self.uplink = Link(self.env, np.random.default_rng(seed), self.box, "up")
        self.downlink = Link(self.env, np.random.default_rng(seed + 1), self.box, "down")
        server_kw = {} if batch_limit is None else {"batch_limit": batch_limit}
        self.server = EdgeServer(
            self.env,
            np.random.default_rng(seed + 2),
            cost_model=gpu or GpuBatchModel(jitter_sigma=0.0),
            pushback=pushback,
            **server_kw,
        )
        self.resilience = ResilienceLayer(resilience) if resilience else None
        self.breakdown = BreakdownCollector() if breakdown else None
        self.successes = []
        self.timeouts = []
        self.client = OffloadClient(
            self.env,
            uplink=self.uplink,
            downlink=self.downlink,
            server=self.server,
            tenant="pi",
            model_name="mobilenet_v3_small",
            deadline=deadline,
            response_bytes=160,
            on_success=lambda f, rtt: self.successes.append((f.frame_id, rtt)),
            on_timeout=lambda f, why: self.timeouts.append((f.frame_id, why)),
            breakdown=self.breakdown,
            resilience=self.resilience,
        )

    def send(self, frame_id=0, nbytes=11_700):
        self.client.send(Frame(frame_id, self.env.now, nbytes))

    def heal_at(self, t, conditions=None):
        self.env.call_later(
            t, lambda _ev: self.box.set(conditions or LinkConditions(jitter_sigma=0.0))
        )

    def taxonomy(self, kind):
        return self.resilience.taxonomy.total(kind)


FAST_GPU = dict(base_latency=0.02, per_item=0.001, jitter_sigma=0.0)


# ----------------------------------------------------------------------
# hedged retransmission
# ----------------------------------------------------------------------
def test_hedged_retry_recovers_frame_after_midflight_heal():
    """Original copy lost to a 1 s propagation black hole; the link
    heals before the hedge timer, and the retransmission makes the
    deadline the original never could."""
    h = Harness(
        conditions=LinkConditions(propagation_delay=1.0, jitter_sigma=0.0),
        gpu=GpuBatchModel(**FAST_GPU),
        resilience=ResilienceConfig(),
    )
    # heal before the hedge fires at retry_after_frac * deadline = 0.125
    h.heal_at(0.1)
    h.send(frame_id=42)
    h.env.run(until=3.0)
    assert h.timeouts == []
    assert len(h.successes) == 1
    fid, rtt = h.successes[0]
    assert fid == 42
    assert rtt < 0.25  # still within the *original* budget
    assert h.client.retries == 1
    assert h.taxonomy(FailureKind.RETRY_SENT) == 1


def test_retry_budget_exhaustion_denies_further_hedges():
    """One token in the bucket: only the first dead frame gets a hedge,
    the rest are classified RETRY_DENIED."""
    h = Harness(
        conditions=LinkConditions(propagation_delay=1.0, jitter_sigma=0.0),
        resilience=ResilienceConfig(retry_budget_rate=0.001, retry_budget_burst=1.0),
    )

    every(h.env, 0.05, lambda i: h.send(frame_id=i), count=3)
    h.env.run(until=3.0)
    assert h.taxonomy(FailureKind.RETRY_SENT) == 1
    assert h.taxonomy(FailureKind.RETRY_DENIED) == 2
    assert h.client.retries == 1
    assert [why for _, why in h.timeouts] == ["deadline"] * 3


def test_retry_window_closed_when_no_useful_reply_possible():
    """A hedge that cannot land min_reply_frac of the budget before
    the deadline is pointless and recorded as such."""
    h = Harness(
        conditions=LinkConditions(propagation_delay=1.0, jitter_sigma=0.0),
        resilience=ResilienceConfig(retry_after_frac=0.8, min_reply_frac=0.3),
    )
    h.send(frame_id=0)
    h.env.run(until=2.0)
    assert h.client.retries == 0
    assert h.taxonomy(FailureKind.RETRY_SENT) == 0
    assert h.taxonomy(FailureKind.RETRY_WINDOW_CLOSED) == 1


# ----------------------------------------------------------------------
# overload pushback
# ----------------------------------------------------------------------
def test_overload_pushback_fast_fails_doomed_frames():
    """Admission shed during a stall: the frame is classified
    'overloaded' the moment the pushback response arrives instead of
    burning the rest of the deadline in silence."""
    h = Harness(
        gpu=GpuBatchModel(**FAST_GPU),
        # max_retries=0: no hedging, so the counts below are exact;
        # trip_threshold=1: the first overload trips the breaker
        resilience=ResilienceConfig(max_retries=0, trip_threshold=1),
        pushback=True,
        batch_limit=1,  # admission_limit defaults to 4
    )
    h.server.pause(2.0)
    for i in range(6):
        h.send(frame_id=i)
    h.env.run(until=3.0)
    # frames 4 and 5 arrive with 4 already pending -> shed at submit
    assert h.client.overloads == 2
    assert h.server.stats.overloaded == 2
    reasons = [why for _, why in h.timeouts]
    assert reasons.count("overloaded") == 2
    assert reasons.count("deadline") == 4
    assert h.taxonomy(FailureKind.OVERLOADED) == 2
    # the server's retry-after hint seeded the breaker's backoff
    breaker = h.resilience.breaker
    assert breaker.opened_count == 1
    assert breaker.current_backoff > h.resilience.config.backoff_initial
    # at the resume the batch takes the (expired) head frame and the
    # three overflow frames — long expired — are classified as plain
    # rejections at batch formation, not overload pushback
    assert h.server.stats.rejected == 3
    assert h.server.stats.completed == 1  # late completion, discarded


def test_overload_retry_honors_hint_and_recovers():
    """With a budget that outlives the stall, the overloaded frames are
    re-sent after the server's retry-after hint and still succeed."""
    h = Harness(
        gpu=GpuBatchModel(**FAST_GPU),
        deadline=2.0,
        resilience=ResilienceConfig(retry_after_frac=0.9, min_reply_frac=0.1),
        pushback=True,
        batch_limit=1,
    )
    h.server.pause(0.5)
    for i in range(6):
        h.send(frame_id=i)
    h.env.run(until=5.0)
    # frames 4-5 shed at admission; 1-3 overflow batch formation at the
    # resume (batch_limit=1 takes only frame 0) — all five get pushback
    # with a hint, retry after it, and still make the 2 s budget
    assert h.taxonomy(FailureKind.OVERLOADED) == 5
    assert h.taxonomy(FailureKind.RETRY_SENT) == 5
    assert h.client.retries == 5
    assert h.timeouts == []
    assert sorted(fid for fid, _ in h.successes) == list(range(6))


# ----------------------------------------------------------------------
# late-response attribution grace (the settle-immediately fix)
# ----------------------------------------------------------------------
def test_attribution_grace_settles_when_late_response_arrives():
    h = Harness(
        gpu=GpuBatchModel(base_latency=0.5, per_item=0.0, jitter_sigma=0.0),
        breakdown=True,
    )
    h.send(frame_id=0)
    h.env.run(until=0.3)
    assert [why for _, why in h.timeouts] == ["deadline"]
    assert len(h.client._late_pending) == 1  # attribution still open
    h.env.run(until=0.8)
    # the late response resolved attribution immediately — no lingering
    # grace entry, and the violation is attributed to the server (LOAD)
    assert h.client._late_pending == {}
    assert h.breakdown.cause_counts() == {
        TimeoutCause.NETWORK: 0,
        TimeoutCause.LOAD: 1,
    }
    # and the grace timer firing later must not double-count
    h.env.run(until=5.0)
    assert len(h.breakdown.violations) == 1


def test_attribution_grace_still_times_out_on_true_silence():
    h = Harness(
        conditions=LinkConditions(propagation_delay=9.0, jitter_sigma=0.0),
        breakdown=True,
    )
    h.send(frame_id=0)
    h.env.run(until=2.0)
    assert h.client._late_pending == {}  # grace expired
    assert h.breakdown.cause_counts()[TimeoutCause.NETWORK] == 1


# ----------------------------------------------------------------------
# the client's deadline, hedge and grace timers: one per queue
# ----------------------------------------------------------------------
DEAD = LinkConditions(propagation_delay=9.0, jitter_sigma=0.0)


def _timeout_times(h):
    times = []
    h.client.on_timeout = lambda f, why: times.append((f.frame_id, why, h.env.now))
    return times


def test_send_after_abort_still_fails_at_its_own_deadline():
    h = Harness(conditions=DEAD)
    times = _timeout_times(h)
    h.send(frame_id=0)
    h.env.run(until=0.1)
    assert h.client.abort_inflight() == 1
    h.send(frame_id=1)
    h.env.run(until=2.0)
    assert times == [(1, "deadline", 0.1 + 0.25)]


def test_frames_sent_in_one_instant_fail_in_send_order():
    h = Harness(conditions=DEAD)
    times = _timeout_times(h)
    for frame_id in (5, 3, 4):
        h.send(frame_id=frame_id)
    h.env.run(until=2.0)
    assert times == [(5, "deadline", 0.25), (3, "deadline", 0.25), (4, "deadline", 0.25)]


def test_late_response_leaves_no_silent_timeout_behind():
    """Frame 0's response is late (slow server); frame 1 is lost in a
    9 s propagation hole.  Frame 0's grace entry, answered, is skipped;
    frame 1's expires into a network loss."""
    h = Harness(
        gpu=GpuBatchModel(base_latency=0.5, per_item=0.0, jitter_sigma=0.0),
        breakdown=True,
    )

    def lose_frame_1(_ev):
        h.box.set(DEAD)
        h.send(frame_id=1)
        h.box.set(LinkConditions(jitter_sigma=0.0))

    h.send(frame_id=0)
    h.env.call_at(0.1, lose_frame_1)  # the uplink is free again by then
    h.env.run(until=0.9)
    assert list(h.client._late_pending) == [1]  # frame 0 answered late
    h.env.run(until=30.0)
    assert h.client._late_pending == {}
    assert h.breakdown.cause_counts() == {
        TimeoutCause.NETWORK: 1,
        TimeoutCause.LOAD: 1,
    }
    assert sorted(t for t, _cause in h.breakdown.violations) == [0.25, 0.1 + 0.25]


def test_each_in_flight_frame_hedges_at_its_own_point():
    h = Harness(conditions=DEAD, resilience=ResilienceConfig())
    sends = []
    send = h.uplink.send

    def record_send(nbytes, payload, deliver):
        sends.append((payload.frame_id, h.env.now))
        return send(nbytes, payload, deliver)

    h.uplink.send = record_send
    every(h.env, 0.03, lambda i: h.send(frame_id=i), count=3)
    h.env.run(until=1.0)
    first = {fid: t for fid, t in sends[:3]}
    hedge = 0.5 * 0.25
    assert sends[3:] == [(fid, first[fid] + hedge) for fid in range(3)]
    assert h.client.retries == 3


# ----------------------------------------------------------------------
# device-level: breaker under a server blackout
# ----------------------------------------------------------------------
OUTAGE = (20.0, 25.0)  # total-failure window [20, 45)


def _chaos(resilience=None):
    return ChaosScenario(
        base=Scenario(
            controller_factory=lambda cfg: FrameFeedbackController(cfg.frame_rate),
            device=DeviceConfig(total_frames=2400),
            seed=7,
        ),
        injectors=[ServerCrash(FaultTimeline.from_rows([OUTAGE]))],
        reconverge_periods=25,
        resilience=resilience,
    )


@pytest.fixture(scope="module")
def resilient_crash():
    return run_chaos(_chaos(ResilienceConfig()))


@pytest.fixture(scope="module")
def bare_crash():
    return run_chaos(_chaos())


def _open_time(result):
    opens = [t for t, s in result.breaker_transitions if s is BreakerState.OPEN]
    in_window = [t for t in opens if OUTAGE[0] <= t]
    assert in_window, "breaker never opened during the outage"
    return in_window[0]


def test_breaker_trips_within_three_control_periods(resilient_crash):
    checks = [c for c in resilient_crash.invariants if c.name == "breaker-trip"]
    assert len(checks) == 1
    assert checks[0].passed, checks[0].detail
    assert checks[0].observed <= 3.0
    assert _open_time(resilient_crash) - OUTAGE[0] <= 3.0


def test_open_window_routes_every_frame_locally(resilient_crash):
    """Once open, the splitter is bypassed: zero real offload attempts
    until the post-heal close, with the local pipeline carrying load."""
    traces = resilient_crash.run.traces
    t0 = _open_time(resilient_crash) + 2.0  # skip the partial bucket
    heal = OUTAGE[0] + OUTAGE[1]
    offload = [
        v for t, v in zip(traces.offload_rate.times, traces.offload_rate.values)
        if t0 <= t < heal
    ]
    assert offload and max(offload) == 0.0
    assert traces.local_rate.mean_over(t0, heal) > 5.0
    # and the taxonomy accounts for the fallback routing
    assert resilient_crash.failure_taxonomy["breaker_fallback"] > 0


def test_open_window_parks_target_at_standing_probe(resilient_crash):
    """The frozen controller's splitter parks at 0.1 * F_s exactly."""
    traces = resilient_crash.run.traces
    t0 = _open_time(resilient_crash) + 2.0
    heal = OUTAGE[0] + OUTAGE[1]
    targets = [
        v for t, v in zip(traces.offload_target.times, traces.offload_target.values)
        if t0 <= t < heal
    ]
    assert targets
    assert targets == pytest.approx([0.1 * FRAME_RATE] * len(targets))


def test_half_open_probe_gaps_grow_exponentially(resilient_crash):
    probes = [
        t for t, s in resilient_crash.breaker_transitions
        if s is BreakerState.HALF_OPEN and OUTAGE[0] <= t < OUTAGE[0] + OUTAGE[1]
    ]
    assert len(probes) >= 5
    gaps = [b - a for a, b in zip(probes, probes[1:])]
    for earlier, later in zip(gaps[:3], gaps[1:4]):
        assert later > earlier * 1.5  # doubling backoff dominates the gap


def test_breaker_recloses_bounded_after_heal(resilient_crash):
    checks = [c for c in resilient_crash.invariants if c.name == "breaker-reclose"]
    assert len(checks) == 1
    assert checks[0].passed, checks[0].detail
    closes = [t for t, s in resilient_crash.breaker_transitions if s is BreakerState.CLOSED]
    heal = OUTAGE[0] + OUTAGE[1]
    assert any(heal <= t <= heal + checks[0].expected for t in closes)


def test_all_invariants_hold_with_resilience(resilient_crash):
    names = [c.name for c in resilient_crash.invariants]
    assert "standing-probe" in names
    assert "re-convergence" in names
    assert "breaker-trip" in names
    assert "breaker-reclose" in names
    assert resilient_crash.all_invariants_hold, [
        c.detail for c in resilient_crash.invariants if not c.passed
    ]


def test_resilience_strictly_reduces_outage_violations(resilient_crash, bare_crash):
    """Same seed, same fault plan: the defense stack must lower the
    deadline-violation rate during the outage — the ISSUE's acceptance
    criterion — not just shuffle failures around."""
    heal = OUTAGE[0] + OUTAGE[1]
    bare_t = bare_crash.run.traces.timeout_rate.mean_over(OUTAGE[0], heal)
    res_t = resilient_crash.run.traces.timeout_rate.mean_over(OUTAGE[0], heal)
    assert res_t < bare_t
    assert resilient_crash.run.qos.timeouts < bare_crash.run.qos.timeouts
    # the saved frames went somewhere: local throughput during the
    # outage is higher with the breaker routing everything locally
    bare_p = bare_crash.run.traces.throughput.mean_over(OUTAGE[0], heal)
    res_p = resilient_crash.run.traces.throughput.mean_over(OUTAGE[0], heal)
    assert res_p >= bare_p
