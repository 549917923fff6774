"""Unit + property tests for metrics: counters, windows, series, QoS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import EventCounter, TimeSeries, WindowedRate, summarize_phases
from repro.metrics.qos import PhaseSummary, QosReport
from repro.metrics.rtt import rtt_mean, rtt_p95


# ----------------------------------------------------------------------
# EventCounter
# ----------------------------------------------------------------------
def test_counter_total_and_window():
    c = EventCounter(retention=10.0)
    c.record(1.0)
    c.record(2.0, count=3)
    c.record(5.0)
    assert c.total == 5
    assert c.count_since(0.0, 5.0) == 5
    assert c.count_since(1.5, 5.0) == 4
    assert c.rate(4.0, now=5.0) == pytest.approx(4 / 4.0)


def test_counter_rejects_time_travel():
    c = EventCounter()
    c.record(5.0)
    with pytest.raises(ValueError):
        c.record(4.0)


def test_counter_prunes_beyond_retention():
    c = EventCounter(retention=5.0)
    c.record(0.0)
    c.record(10.0)
    assert c.total == 2
    assert c.count_since(5.0, 10.0) == 1
    with pytest.raises(ValueError):
        c.count_since(0.0, 10.0)  # window larger than retention


def test_counter_negative_count_rejected():
    with pytest.raises(ValueError):
        EventCounter().record(0.0, count=-1)


# ----------------------------------------------------------------------
# WindowedRate (the controller's T input)
# ----------------------------------------------------------------------
def test_windowed_rate_averages_last_buckets():
    w = WindowedRate(window_buckets=3)
    for count in (3, 6, 0):
        w.record(count)
        w.close_bucket(1.0)
    assert w.average == pytest.approx(3.0)
    assert w.last == 0.0


def test_windowed_rate_rolls_old_buckets_out():
    w = WindowedRate(window_buckets=2)
    w.record(10)
    w.close_bucket(1.0)
    w.close_bucket(1.0)
    w.close_bucket(1.0)
    assert w.average == 0.0


def test_windowed_rate_empty_is_zero():
    assert WindowedRate().average == 0.0
    assert WindowedRate().last == 0.0


def test_windowed_rate_respects_bucket_seconds():
    w = WindowedRate(window_buckets=1)
    w.record(5)
    assert w.close_bucket(0.5) == pytest.approx(10.0)


@given(
    counts=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=30),
    window=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=100, deadline=None)
def test_windowed_rate_equals_manual_average(counts, window):
    w = WindowedRate(window_buckets=window)
    for c in counts:
        w.record(c)
        w.close_bucket(1.0)
    expected = np.mean(counts[-window:])
    assert w.average == pytest.approx(expected)


# ----------------------------------------------------------------------
# TimeSeries
# ----------------------------------------------------------------------
def test_series_append_and_arrays():
    s = TimeSeries("x")
    s.append(0.0, 1.0)
    s.append(1.0, 2.0)
    assert len(s) == 2
    assert list(s.times) == [0.0, 1.0]
    assert list(s.values) == [1.0, 2.0]


def test_series_rejects_non_monotone_time():
    s = TimeSeries()
    s.append(1.0, 0.0)
    with pytest.raises(ValueError):
        s.append(0.5, 0.0)


def test_series_mean_and_max_over():
    s = TimeSeries()
    for t in range(10):
        s.append(float(t), float(t))
    assert s.mean_over(0.0, 5.0) == pytest.approx(2.0)
    assert s.max_over(0.0, 5.0) == 4.0
    assert np.isnan(s.mean_over(100.0, 200.0))


def test_series_slice_half_open():
    s = TimeSeries()
    for t in range(5):
        s.append(float(t), float(t))
    sliced = s.slice(1.0, 3.0)
    assert list(sliced.times) == [1.0, 2.0]


def test_series_resample_zero_order_hold():
    s = TimeSeries()
    s.append(0.0, 1.0)
    s.append(2.0, 5.0)
    r = s.resample(1.0, 0.0, 3.0)
    assert list(r.values) == [1.0, 1.0, 5.0, 5.0]


def test_series_cache_invalidation_on_append():
    s = TimeSeries()
    s.append(0.0, 1.0)
    _ = s.values  # materialize cache
    s.append(1.0, 2.0)
    assert list(s.values) == [1.0, 2.0]


# ----------------------------------------------------------------------
# QoS
# ----------------------------------------------------------------------
def _series(pairs):
    s = TimeSeries()
    for t, v in pairs:
        s.append(t, v)
    return s


def test_summarize_phases_cuts_on_boundaries():
    tp = {
        "a": _series([(t, 10.0 if t < 5 else 20.0) for t in range(10)]),
        "b": _series([(t, 15.0) for t in range(10)]),
    }
    phases = summarize_phases(tp, boundaries=[0.0, 5.0], end=10.0, labels=["lo", "hi"])
    assert len(phases) == 2
    assert phases[0].mean_throughput["a"] == pytest.approx(10.0)
    assert phases[0].winner() == "b"
    assert phases[1].winner() == "a"


def test_phase_advantage_handles_zero_baseline():
    ph = PhaseSummary(0, 1, "x", {"a": 10.0, "b": 0.0})
    assert ph.advantage_over("a", "b") == float("inf")
    assert ph.advantage_over("b", "a") == 0.0


def test_qos_report_success_fraction_and_row():
    rep = QosReport(
        name="X",
        total_frames=100,
        successful=80,
        timeouts=20,
        mean_throughput=24.0,
        mean_violation_rate=5.0,
    )
    assert rep.success_fraction == pytest.approx(0.8)
    row = rep.row()
    assert "X" in row and "24.00" in row


def test_qos_report_empty_run():
    assert QosReport(name="empty").success_fraction == 0.0


# ----------------------------------------------------------------------
# per-period RTT statistics (pure Python, numpy's bits)
# ----------------------------------------------------------------------
def _rtt_lists():
    rng = np.random.default_rng(11)
    # every branch of numpy's pairwise sum: sequential (< 8), one block
    # of 8 accumulators (<= 128) with and without a tail, and split
    sizes = [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 255, 256, 257]
    sizes += [int(n) for n in rng.integers(1, 301, size=60)]
    for n in sizes:
        yield rng.lognormal(-3.0, 1.0, size=n).tolist()
        # repeated values: ties in the sort and zero-width lerps
        yield rng.choice([0.05, 0.1, 0.1, 0.25, 1 / 3], size=n).tolist()


def test_rtt_mean_and_p95_equal_numpy_bit_for_bit():
    for values in _rtt_lists():
        arr = np.asarray(values)
        assert rtt_mean(values) == float(arr.mean()), len(values)
        assert rtt_p95(values) == float(np.percentile(arr, 95)), len(values)
