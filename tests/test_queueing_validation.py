"""Substrate validation against queueing theory.

The link with fixed-size frames, no loss and no jitter is an exact
M/D/1 queue when fed Poisson arrivals.  Matching the Pollaczek-
Khinchine prediction is an *external* correctness check on the whole
event-scheduling path (heap ordering, the link's frame timers, store
mechanics) — if any of it mis-ordered or double-counted, waits would
not land on the textbook curve.
"""

import numpy as np
import pytest

from repro.analysis.queueing import md1_wait, mg1_wait, mm1_wait, utilization
from repro.netem.link import ConditionBox, Link, LinkConditions
from repro.netem.packet import PACKET_PAYLOAD_BYTES
from repro.sim import Environment


# ----------------------------------------------------------------------
# formula sanity
# ----------------------------------------------------------------------
def test_utilization():
    assert utilization(10.0, 0.05) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        utilization(-1.0, 0.1)


def test_md1_against_known_values():
    # rho = 0.5, s = 1: W = 0.5 / (2 * 0.5) = 0.5
    assert md1_wait(0.5, 1.0) == pytest.approx(0.5)
    assert md1_wait(2.0, 1.0) == float("inf")


def test_mm1_is_twice_md1():
    assert mm1_wait(0.5, 1.0) == pytest.approx(2 * md1_wait(0.5, 1.0))


def test_mg1_interpolates():
    assert mg1_wait(0.5, 1.0, 0.0) == pytest.approx(md1_wait(0.5, 1.0))
    assert mg1_wait(0.5, 1.0, 1.0) == pytest.approx(mm1_wait(0.5, 1.0))
    with pytest.raises(ValueError):
        mg1_wait(0.5, 1.0, -0.1)


# ----------------------------------------------------------------------
# simulator vs theory
# ----------------------------------------------------------------------
def measure_link_wait(arrival_rate: float, n: int = 6000, seed: int = 0):
    """Mean queue wait of Poisson single-packet frames on the link."""
    env = Environment()
    # single-packet frames make serialization exactly deterministic
    nbytes = PACKET_PAYLOAD_BYTES
    cond = LinkConditions(
        bandwidth=10.0, loss=0.0, propagation_delay=0.0, jitter_sigma=0.0
    )
    link = Link(env, np.random.default_rng(seed), ConditionBox(cond),
                queue_bytes_cap=1e12)
    service = cond.packet_time(nbytes)

    send_times = {}
    waits = []

    def deliver(i):
        # delivery time = send + wait + service (no propagation)
        waits.append(env.now - send_times[i] - service)

    def feeder(env):
        rng = np.random.default_rng(seed + 1)
        for i in range(n):
            yield env.timeout(rng.exponential(1.0 / arrival_rate))
            send_times[i] = env.now
            link.send(nbytes, i, deliver)

    env.process(feeder(env))
    env.run()
    return float(np.mean(waits)), service


@pytest.mark.parametrize("rho", [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9])
def test_link_wait_matches_md1(rho):
    # service time for one full packet at bw=10
    probe_cond = LinkConditions(bandwidth=10.0)
    service = probe_cond.packet_time(PACKET_PAYLOAD_BYTES)
    arrival_rate = rho / service
    measured, s = measure_link_wait(arrival_rate)
    predicted = md1_wait(arrival_rate, s)
    # 6000 samples: agree within 10% (waits have high variance at high rho)
    assert measured == pytest.approx(predicted, rel=0.10), (
        f"rho={rho}: measured {measured * 1e3:.2f} ms "
        f"vs M/D/1 {predicted * 1e3:.2f} ms"
    )


def test_link_wait_negligible_at_low_load():
    measured, service = measure_link_wait(arrival_rate=1.0, n=500)
    assert measured < 0.1 * service
