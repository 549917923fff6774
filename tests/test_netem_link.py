"""Unit + property tests for the emulated link."""

import dataclasses
import os
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netem import (
    BANDWIDTH_UNIT_BPS,
    ConditionBox,
    Link,
    LinkConditions,
    LinkStats,
    packets_for,
)
from repro.netem.loss import GilbertElliottChain, GilbertElliottParams
from repro.netem.packet import PACKET_OVERHEAD_BYTES, PACKET_PAYLOAD_BYTES, wire_bytes
from repro.sim import Environment


def make_link(env, conditions=None, seed=0, cap=131_072.0):
    box = ConditionBox(conditions or LinkConditions())
    return Link(env, np.random.default_rng(seed), box, queue_bytes_cap=cap), box


# ----------------------------------------------------------------------
# packetization
# ----------------------------------------------------------------------
def test_packets_for_boundaries():
    assert packets_for(0) == 1
    assert packets_for(1) == 1
    assert packets_for(PACKET_PAYLOAD_BYTES) == 1
    assert packets_for(PACKET_PAYLOAD_BYTES + 1) == 2


def test_packets_for_negative_rejected():
    with pytest.raises(ValueError):
        packets_for(-1)


def test_wire_bytes_adds_per_packet_overhead():
    assert wire_bytes(PACKET_PAYLOAD_BYTES) == (
        PACKET_PAYLOAD_BYTES + PACKET_OVERHEAD_BYTES
    )


# ----------------------------------------------------------------------
# conditions
# ----------------------------------------------------------------------
def test_conditions_validation():
    with pytest.raises(ValueError):
        LinkConditions(bandwidth=0)
    with pytest.raises(ValueError):
        LinkConditions(loss=1.0)
    with pytest.raises(ValueError):
        LinkConditions(propagation_delay=-1)


def test_packet_time_matches_bandwidth():
    cond = LinkConditions(bandwidth=10.0)
    expected = (1448 + PACKET_OVERHEAD_BYTES) * 8.0 / (10.0 * BANDWIDTH_UNIT_BPS)
    assert cond.packet_time(1448) == pytest.approx(expected)


def test_condition_box_notifies_listeners():
    box = ConditionBox(LinkConditions())
    seen = []
    box.subscribe(seen.append)
    new = LinkConditions(bandwidth=4.0)
    box.set(new)
    assert seen == [new]
    assert box.conditions is new


# ----------------------------------------------------------------------
# delivery timing
# ----------------------------------------------------------------------
def test_lossless_delivery_time_is_serialization_plus_propagation():
    env = Environment()
    cond = LinkConditions(bandwidth=10.0, loss=0.0, jitter_sigma=0.0)
    link, _ = make_link(env, cond)
    nbytes = 11_700
    arrived = {}
    link.send(nbytes, "frame", lambda p: arrived.setdefault("t", env.now))
    env.run(until=5.0)
    n_pkts = packets_for(nbytes)
    serialization = sum(
        cond.packet_time(min(PACKET_PAYLOAD_BYTES, nbytes - i * PACKET_PAYLOAD_BYTES))
        for i in range(n_pkts)
    )
    assert arrived["t"] == pytest.approx(serialization + cond.propagation_delay, rel=1e-6)


def test_frames_queue_behind_each_other():
    env = Environment()
    cond = LinkConditions(bandwidth=1.0, loss=0.0, jitter_sigma=0.0)
    link, _ = make_link(env, cond)
    times = []
    link.send(11_700, "a", lambda p: times.append(env.now))
    link.send(11_700, "b", lambda p: times.append(env.now))
    env.run(until=5.0)
    assert len(times) == 2
    # second frame waits the first one's full serialization
    assert times[1] - times[0] > 0.2


def test_dead_link_violates_250ms_deadline():
    """Calibration invariant: at bw=1 no frame can make the deadline."""
    env = Environment()
    cond = LinkConditions(bandwidth=1.0, loss=0.0, jitter_sigma=0.0)
    link, _ = make_link(env, cond)
    arrived = {}
    link.send(11_700, "f", lambda p: arrived.setdefault("t", env.now))
    env.run(until=5.0)
    assert arrived["t"] > 0.250


def test_good_link_fits_30fps_within_deadline():
    """Calibration invariant: bw=10 sustains 30 fps well under 250 ms."""
    env = Environment()
    cond = LinkConditions(bandwidth=10.0, loss=0.0, jitter_sigma=0.0)
    link, _ = make_link(env, cond)
    times = []

    def sender(env, link):
        for i in range(60):
            link.send(11_700, i, lambda p: times.append(env.now))
            yield env.timeout(1 / 30)

    env.process(sender(env, link))
    env.run(until=10.0)
    assert len(times) == 60
    # steady-state inter-arrival == frame period (no queue growth)
    gaps = np.diff(times[10:])
    assert gaps.mean() == pytest.approx(1 / 30, rel=0.05)


def test_queue_overflow_drops_and_counts():
    env = Environment()
    cond = LinkConditions(bandwidth=1.0, loss=0.0, jitter_sigma=0.0)
    link, _ = make_link(env, cond, cap=30_000)
    delivered = []
    for i in range(10):
        link.send(11_700, i, lambda p: delivered.append(p))
    env.run(until=60.0)
    assert link.stats.frames_dropped_overflow > 0
    assert (
        link.stats.frames_delivered + link.stats.frames_dropped_overflow
        == link.stats.frames_sent
    )
    # FIFO survivors
    assert delivered == sorted(delivered)


def test_loss_inflates_delivery_time():
    cond_clean = LinkConditions(bandwidth=10.0, loss=0.0, jitter_sigma=0.0)
    cond_lossy = LinkConditions(bandwidth=10.0, loss=0.30, jitter_sigma=0.0)

    def one_delivery(cond, seed):
        env = Environment()
        link, _ = make_link(env, cond, seed=seed)
        t = {}
        link.send(11_700, "f", lambda p: t.setdefault("at", env.now))
        env.run(until=30.0)
        return t.get("at")

    clean = one_delivery(cond_clean, 0)
    lossy = [one_delivery(cond_lossy, s) for s in range(12)]
    lossy = [t for t in lossy if t is not None]
    assert lossy, "all frames abandoned at 30% loss is implausible"
    assert np.mean(lossy) > clean


def test_extreme_loss_abandons_frames():
    env = Environment()
    cond = LinkConditions(bandwidth=10.0, loss=0.95, jitter_sigma=0.0)
    link, _ = make_link(env, cond)
    delivered = []
    for i in range(5):
        link.send(11_700, i, lambda p: delivered.append(p))
    env.run(until=300.0)
    assert link.stats.frames_dropped_loss > 0


def test_condition_change_applies_to_next_frame():
    env = Environment()
    link, box = make_link(env, LinkConditions(bandwidth=1.0, jitter_sigma=0.0))
    times = {}

    link.send(11_700, "slow-start", lambda p: times.setdefault("a", env.now))
    env.run(until=2.0)
    box.set(LinkConditions(bandwidth=10.0, jitter_sigma=0.0))
    link.send(11_700, "fast", lambda p: times.setdefault("b", env.now))
    env.run(until=4.0)
    assert times["b"] - 2.0 < times["a"] / 2


def test_negative_payload_rejected():
    env = Environment()
    link, _ = make_link(env)
    with pytest.raises(ValueError):
        link.send(-1, "x", lambda p: None)


# ----------------------------------------------------------------------
# conservation property
# ----------------------------------------------------------------------
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=40_000), min_size=1, max_size=30),
    loss=st.sampled_from([0.0, 0.05, 0.3]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_every_frame_is_delivered_or_dropped_exactly_once(sizes, loss, seed):
    env = Environment()
    cond = LinkConditions(bandwidth=10.0, loss=loss, jitter_sigma=0.0)
    link, _ = make_link(env, cond, seed=seed, cap=80_000)
    delivered = []
    for i, nbytes in enumerate(sizes):
        link.send(nbytes, i, lambda p: delivered.append(p))
    env.run(until=3600.0)
    stats = link.stats
    assert stats.frames_sent == len(sizes)
    assert stats.frames_delivered == len(delivered)
    assert stats.frames_delivered + stats.dropped == stats.frames_sent
    assert sorted(set(delivered)) == sorted(delivered)  # no duplicates
    # with zero jitter, survivors arrive in FIFO order
    assert delivered == sorted(delivered)


# ----------------------------------------------------------------------
# per-packet reference model
# ----------------------------------------------------------------------
class PerPacketLink:
    """Reference link: a serializer process, one ``Timeout`` per packet.

    Self-contained on purpose — nothing is inherited from :class:`Link`:
    its own queue and process, one ``Timeout`` per packet attempt and
    one per RTO stall, the loss fate drawn when the attempt ends, and a
    delivery process per frame.  As in :class:`Link`, a frame starts
    (and reads the link conditions) the instant the link is free: in
    :meth:`send` on an idle link, at the previous frame's end otherwise.
    :class:`Link` resolves a whole frame in one timer and must be
    indistinguishable from this.
    """

    MAX_ATTEMPTS = 7

    def __init__(self, env, rng, box, name="uplink", queue_bytes_cap=131_072.0):
        self.env = env
        self.rng = rng
        self.box = box
        self.name = name
        self.queue_bytes_cap = queue_bytes_cap
        self.stats = LinkStats()
        self._queue = deque()
        self._queued_bytes = 0
        #: ((nbytes, payload, deliver), conditions) of the frame on the wire
        self._current = None
        self._wakeup = None
        self._ge_chain = GilbertElliottChain()
        env.process(self._serializer(), name="reference-link")

    @property
    def queue_length(self):
        return len(self._queue)

    def send(self, nbytes, payload, deliver):
        env = self.env
        self.stats.frames_sent += 1
        if self._queued_bytes + nbytes > self.queue_bytes_cap and self._queue:
            self.stats.frames_dropped_overflow += 1
            env.tracer.link_overflow(self.name, payload, env.now, nbytes)
            return False
        _span, deliver = env.tracer.link_send(
            self.name, payload, env.now, nbytes, deliver, env
        )
        if self._current is None:
            self._current = ((nbytes, payload, deliver), self.box.conditions)
            if self._wakeup is not None and not self._wakeup.triggered:
                self._wakeup.succeed()
        else:
            self._queue.append((nbytes, payload, deliver))
            self._queued_bytes += nbytes
        return True

    def _serializer(self):
        env = self.env
        stats = self.stats
        while True:
            if self._current is None:
                self._wakeup = env.event()
                yield self._wakeup
                self._wakeup = None
            (nbytes, payload, deliver), cond = self._current
            rto = max(0.05, 2.0 * cond.propagation_delay + 0.02)
            abandoned = False
            n = packets_for(nbytes)
            for i in range(n):
                if i < n - 1:
                    size = PACKET_PAYLOAD_BYTES
                else:
                    size = max(nbytes - (n - 1) * PACKET_PAYLOAD_BYTES, 1)
                for attempt in range(1, self.MAX_ATTEMPTS + 1):
                    stats.packets_sent += 1
                    yield env.timeout(cond.packet_time(size))
                    if not self._attempt_lost(cond):
                        break
                    stats.retransmissions += 1
                    if attempt == self.MAX_ATTEMPTS:
                        abandoned = True
                        break
                    yield env.timeout(rto)
                if abandoned:
                    break

            if abandoned:
                stats.frames_dropped_loss += 1
                env.tracer.link_drop(payload, env.now, "loss")
            else:
                stats.frames_delivered += 1
                stats.bytes_delivered += nbytes
                delay = cond.propagation_delay
                if cond.jitter_sigma > 0:
                    delay = max(0.0, delay + self.rng.normal(0.0, cond.jitter_sigma))
                env.process(self._deliver_after(delay, payload, deliver))
            if self._queue:
                frame = self._queue.popleft()
                self._queued_bytes -= frame[0]
                self._current = (frame, self.box.conditions)
            else:
                self._current = None

    def _attempt_lost(self, cond):
        if cond.loss <= 0.0:
            return False
        if cond.loss_burst <= 1.0:
            return bool(self.rng.random() < cond.loss)
        params = GilbertElliottParams.from_average(cond.loss, cond.loss_burst)
        return self._ge_chain.step(params, self.rng)

    def _deliver_after(self, delay, payload, deliver):
        yield self.env.timeout(delay)
        deliver(payload)


class LinkRecorder:
    """Tracer stand-in: logs every link outcome with its instant."""

    def __init__(self, env):
        self.env = env
        self.drops = []
        self.deliveries = []

    def link_send(self, name, payload, now, nbytes, deliver, env):
        def traced(p):
            self.deliveries.append((p, self.env.now))
            deliver(p)

        return None, traced

    def link_overflow(self, name, payload, now, nbytes):
        self.drops.append((payload, now, "overflow"))

    def link_drop(self, payload, now, reason):
        self.drops.append((payload, now, reason))


#: send and condition-change instants are multiples of 1/_TICK s, with
#: _TICK prime: a link instant (send time plus multiples of 1/400000 s)
#: can then only coincide with one a whole second later, and every run
#: spans under a second — so no tie-break between same-instant events
#: can tell the two models apart
_TICK = 1_000_003.0

_conditions = st.builds(
    LinkConditions,
    bandwidth=st.sampled_from([1.0, 4.0, 10.0]),
    loss=st.sampled_from([0.0, 0.05, 0.3, 0.9]),
    jitter_sigma=st.sampled_from([0.0, 0.003]),
    loss_burst=st.sampled_from([1.0, 3.0, 12.0]),
)


def drive(link_cls, sends, initial, change, seed, slowpath):
    """Run ``sends`` (gap ticks, nbytes) through one link to completion.

    Returns the link's observable outcome and the number of events the
    run scheduled.
    """
    with mock.patch.dict(os.environ):
        os.environ.pop("REPRO_SIM_SLOWPATH", None)
        if slowpath:
            os.environ["REPRO_SIM_SLOWPATH"] = "1"
        env = Environment(stats=True)
    assert env.slowpath == slowpath
    recorder = env.tracer = LinkRecorder(env)
    box = ConditionBox(initial)
    link = link_cls(env, np.random.default_rng(seed), box, queue_bytes_cap=60_000)

    def sender():
        for i, (gap, nbytes) in enumerate(sends):
            yield env.timeout(gap / _TICK)
            link.send(nbytes, i, lambda p: None)

    queued_at_change = []

    def shaper(at, conditions):
        yield env.timeout(at / _TICK)
        queued_at_change.append(link.queue_length)
        box.set(conditions)

    env.process(sender())
    if change is not None:
        env.process(shaper(*change))
    env.run()
    return {
        "deliveries": recorder.deliveries,
        "drops": recorder.drops,
        "stats": dataclasses.asdict(link.stats),
        "rng": link.rng.bit_generator.state,
        "ge_bad": link._ge_chain.in_bad_state,
        "queued_at_change": queued_at_change,
    }, env.stats.events_scheduled


_MULTI = [(0, 0), (0, 11_700), (0, 1), (0, 40_000), (0, PACKET_PAYLOAD_BYTES + 1)]


@pytest.mark.parametrize("slowpath", [False, True], ids=["fastpath", "slowpath"])
@given(
    sends=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=45_000),
            st.one_of(
                st.sampled_from([0, 1, PACKET_PAYLOAD_BYTES, PACKET_PAYLOAD_BYTES + 1]),
                st.integers(min_value=0, max_value=40_000),
            ),
        ),
        min_size=1,
        max_size=20,
    ),
    initial=_conditions,
    change=st.none() | st.tuples(st.integers(min_value=0, max_value=900_000), _conditions),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(sends=_MULTI, initial=LinkConditions(), change=None, seed=0)
@example(sends=_MULTI, initial=LinkConditions(loss=0.3), change=None, seed=1)
@example(
    sends=_MULTI, initial=LinkConditions(loss=0.3, loss_burst=4.0), change=None, seed=2
)
@example(sends=_MULTI, initial=LinkConditions(loss=0.9), change=None, seed=3)
@example(
    sends=_MULTI * 2,
    initial=LinkConditions(bandwidth=1.0),
    change=(100_000, LinkConditions(bandwidth=4.0, loss=0.3, loss_burst=3.0)),
    seed=4,
)
@settings(max_examples=60, deadline=None)
def test_frame_level_link_matches_per_packet_oracle(
    slowpath, sends, initial, change, seed
):
    expected, _ = drive(PerPacketLink, sends, initial, change, seed, slowpath)
    actual, _ = drive(Link, sends, initial, change, seed, slowpath)
    assert actual == expected


@pytest.mark.parametrize(
    "initial, change, exercised",
    [
        (LinkConditions(loss=0.3), None, "retransmissions"),
        (LinkConditions(loss=0.3, loss_burst=4.0), None, "retransmissions"),
        (LinkConditions(loss=0.9), None, "frames_dropped_loss"),
        (
            LinkConditions(bandwidth=1.0),
            (100_000, LinkConditions(bandwidth=4.0, loss=0.3, loss_burst=3.0)),
            "retransmissions",
        ),
    ],
    ids=["iid", "bursty", "abandon", "box-set-while-queued"],
)
def test_oracle_examples_exercise_their_case(initial, change, exercised):
    """The pinned examples above really reach the paths they name, and
    the reference really runs its own per-packet loop: one event per
    packet attempt, so more events than :class:`Link` schedules."""
    sends = _MULTI * 2 if change is not None else _MULTI
    record, link_events = drive(Link, sends, initial, change, 3, slowpath=False)
    assert record["stats"][exercised] > 0
    assert record["deliveries"]
    if change is not None:
        assert record["queued_at_change"][0] > 0
    reference, reference_events = drive(
        PerPacketLink, sends, initial, change, 3, slowpath=False
    )
    assert reference == record
    assert reference_events > max(link_events, record["stats"]["packets_sent"])


# ----------------------------------------------------------------------
# event budget
# ----------------------------------------------------------------------
def test_uplink_schedules_at_most_two_events_per_frame():
    """One end-of-frame timer plus one delivery timer per frame.

    A fig3-style run (Table V's phases, ten times shorter) with every
    frame offloaded, budgeted over the uplink and the downlink that
    carries the responses.  Every event a link schedules is counted — its
    timers by their ``Link`` callbacks, and anything scheduled while a
    ``link:*`` process is active — so a return to a serializer process
    or to per-packet wakeups breaks the budget.
    """
    from repro.control.baselines import AlwaysOffloadController
    from repro.device.config import DeviceConfig
    from repro.experiments.scenario import Scenario, build_runtime
    from repro.netem.schedule import NetworkSchedule

    schedule = NetworkSchedule.from_rows(
        [(0.0, 10.0, 0.0), (3.0, 4.0, 0.0), (4.5, 1.0, 0.0),
         (6.0, 10.0, 0.0), (9.0, 10.0, 7.0), (10.5, 4.0, 7.0)]
    )
    device = DeviceConfig(total_frames=360)
    runtime = build_runtime(
        Scenario(
            controller_factory=lambda config: AlwaysOffloadController(),
            device=device,
            network=schedule,
            duration=device.stream_duration + 1.0,
        )
    )
    env = runtime.env
    schedule_event = env.schedule
    link_events = 0

    def counting_schedule(event, *args, **kwargs):
        nonlocal link_events
        active = env.active_process
        if (active is not None and active.name.startswith("link:")) or any(
            getattr(cb, "__qualname__", "").startswith("Link.")
            for cb in event.callbacks or ()
        ):
            link_events += 1
        schedule_event(event, *args, **kwargs)

    env.schedule = counting_schedule
    runtime.run()
    uplink = runtime.uplink.stats
    frames = uplink.frames_sent + runtime.downlink.stats.frames_sent
    assert uplink.frames_sent > 300
    assert uplink.retransmissions > 0
    assert uplink.packets_sent > 5 * uplink.frames_sent
    assert frames < link_events <= 2 * frames
