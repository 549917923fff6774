"""Unit tests for the span tracer and its canonical serialization."""

import json

import numpy as np

from repro.device.camera import Frame
from repro.device.offload import OffloadClient
from repro.netem.link import ConditionBox, Link, LinkConditions
from repro.server.server import EdgeServer
from repro.sim import Environment
from repro.trace import (
    TERMINAL_STATUSES,
    Span,
    Tracer,
    diff_traces,
    dumps_trace,
    first_divergence,
    terminal_counts,
    trace_document,
)
from repro.trace.spans import OPEN_STATUS
from tests.timers import every


# ----------------------------------------------------------------------
# Span semantics
# ----------------------------------------------------------------------
def test_span_first_status_wins():
    span = Span("frame", 1.0)
    span.finish(2.0, "timeout")
    span.finish(3.0, "completed-offload")  # late response must not rewrite
    assert span.status == "timeout"
    assert span.end == 3.0  # ... but may extend the interval


def test_span_finish_never_shrinks_interval():
    span = Span("frame", 1.0)
    span.finish(5.0, "ok")
    span.finish(2.0)
    assert span.end == 5.0


def test_span_child_nesting_and_attrs():
    root = Span("frame", 0.0, {"frame_id": 7})
    child = root.child("offload", 0.1)
    child.finish(0.2, "ok", rtt=0.1)
    assert root.children == [child]
    assert child.attrs["rtt"] == 0.1
    assert not root.finished and child.finished


# ----------------------------------------------------------------------
# Tracer correlation model
# ----------------------------------------------------------------------
def test_unregistered_frames_are_ignored():
    """Probe/background traffic (never registered) must no-op cleanly."""
    tracer = Tracer()
    tracer.begin_offload("pi", -3, 1.0)
    tracer.end_offload("pi", -3, 1.2, "ok")
    tracer.finish_frame("pi", -3, 1.2, "completed-offload")
    tracer.begin_local("pi", 99, 1.0)
    tracer.end_local("pi", 99, 1.1, 0.1)
    assert tracer.frames == {}
    doc = trace_document(tracer)
    assert doc["frames"] == [] and doc["events"] == []


def test_terminal_classification_is_exactly_once():
    tracer = Tracer()
    tracer.begin_frame("pi", 0, 0.0, 11_700, "offload")
    tracer.finish_frame("pi", 0, 0.25, "timeout", cause="deadline")
    tracer.finish_frame("pi", 0, 0.30, "completed-offload")
    doc = trace_document(tracer)
    assert doc["frames"][0]["span"]["status"] == "timeout"
    assert doc["frames"][0]["span"]["attrs"]["cause"] == "deadline"


def test_canonicalization_extends_parent_over_late_children():
    """A late link delivery past the terminal close must still nest."""
    tracer = Tracer()
    tracer.begin_frame("pi", 0, 0.0, 1000, "offload")
    tracer.begin_offload("pi", 0, 0.0)
    offload = tracer.offload_span("pi", 0)
    late = offload.child("downlink", 0.2)
    tracer.finish_frame("pi", 0, 0.25, "timeout", cause="deadline")
    late.finish(0.4, "delivered")  # response lands after the deadline
    span = trace_document(tracer)["frames"][0]["span"]
    assert span["end"] == 0.4
    assert span["children"][0]["end"] == 0.4

    def nested(node):
        assert node["end"] >= node["start"]
        for child in node["children"]:
            assert child["start"] >= node["start"]
            assert child["end"] <= node["end"]
            nested(child)

    nested(span)


def test_open_spans_serialize_as_unsettled():
    tracer = Tracer()
    tracer.begin_frame("pi", 0, 0.0, 1000, "offload")
    doc = trace_document(tracer)
    assert doc["frames"][0]["span"]["status"] == OPEN_STATUS


def test_sibling_order_is_canonical_not_insertion_order():
    tracer = Tracer()
    root = tracer.begin_frame("pi", 0, 0.0, 1000, "offload")
    root.child("b", 0.5).finish(0.6, "ok")
    root.child("a", 0.1).finish(0.2, "ok")
    names = [c["name"] for c in trace_document(tracer)["frames"][0]["span"]["children"]]
    assert names == ["a", "b"]


def test_terminal_statuses_cover_the_issue_taxonomy():
    assert {
        "completed-local",
        "completed-offload",
        "timeout",
        "rejected",
        "dropped-skip",
        "aborted",
    } == set(TERMINAL_STATUSES)


# ----------------------------------------------------------------------
# live instrumentation through the real substrate
# ----------------------------------------------------------------------
def _wired_client(env, tracer, deadline=0.25, bandwidth=10.0):
    box = ConditionBox(LinkConditions(bandwidth=bandwidth, loss=0.0))
    uplink = Link(env, np.random.default_rng(1), box, queue_bytes_cap=1e9)
    downlink = Link(
        env, np.random.default_rng(2), box, name="downlink", queue_bytes_cap=1e9
    )
    server = EdgeServer(env, np.random.default_rng(3))
    outcomes = []
    client = OffloadClient(
        env,
        uplink=uplink,
        downlink=downlink,
        server=server,
        tenant="pi",
        model_name="mobilenet_v3_small",
        deadline=deadline,
        response_bytes=256,
        on_success=lambda frame, rtt: outcomes.append(("ok", frame.frame_id)),
        on_timeout=lambda frame, why: outcomes.append((why, frame.frame_id)),
    )
    return client, server, outcomes


def test_offload_round_trip_produces_full_span_tree():
    env = Environment()
    tracer = Tracer()
    env.tracer = tracer
    client, _server, outcomes = _wired_client(env, tracer)
    tracer.begin_frame("pi", 0, 0.0, 11_700, "offload")
    client.send(Frame(frame_id=0, captured_at=0.0, nbytes=11_700))
    env.run(until=2.0)
    assert outcomes == [("ok", 0)]
    span = trace_document(tracer)["frames"][0]["span"]
    assert span["status"] == "completed-offload"
    (offload,) = span["children"]
    hops = [c["name"] for c in offload["children"]]
    assert hops == ["uplink", "server", "downlink"]
    assert all(c["status"] in ("delivered", "completed") for c in offload["children"])
    assert offload["attrs"]["rtt"] > 0


def test_silent_server_classifies_deadline_timeout():
    env = Environment()
    tracer = Tracer()
    env.tracer = tracer
    client, server, outcomes = _wired_client(env, tracer)
    server.crash()
    tracer.begin_frame("pi", 0, 0.0, 11_700, "offload")
    client.send(Frame(frame_id=0, captured_at=0.0, nbytes=11_700))
    env.run(until=2.0)
    assert outcomes == [("deadline", 0)]
    span = trace_document(tracer)["frames"][0]["span"]
    assert span["status"] == "timeout"
    assert span["attrs"]["cause"] == "deadline"
    (offload,) = span["children"]
    server_spans = [c for c in offload["children"] if c["name"] == "server"]
    assert server_spans and server_spans[0]["status"] == "dropped-crash"


def test_tracing_does_not_change_outcomes():
    """Observation only: traced and untraced runs agree on every counter."""

    def run(traced):
        env = Environment()
        if traced:
            env.tracer = Tracer()
        client, _server, outcomes = _wired_client(env, tracer=None)

        every(
            env, 1.0 / 30.0,
            lambda i: client.send(Frame(frame_id=i, captured_at=env.now, nbytes=11_700)),
            count=50,
        )
        env.run(until=5.0)
        return outcomes

    assert run(traced=False) == run(traced=True)


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
def _tiny_doc():
    tracer = Tracer()
    tracer.begin_frame("pi", 0, 0.0, 1000, "offload")
    tracer.begin_offload("pi", 0, 0.0)
    tracer.frames[("pi", 0)].finish(0.1, "completed-offload")
    tracer.event(0.5, "controller.update", target=10.0)
    return trace_document(tracer, meta={"scenario": "tiny", "seed": 0})


def test_diff_identical_traces_is_none():
    assert first_divergence(_tiny_doc(), _tiny_doc()) is None
    assert diff_traces(_tiny_doc(), _tiny_doc()) is None


def test_diff_reports_first_diverging_span_field():
    a, b = _tiny_doc(), _tiny_doc()
    b["frames"][0]["span"]["status"] = "timeout"
    hit = first_divergence(a, b)
    assert hit is not None
    assert hit.field == "status"
    assert "frames[pi/0]" in hit.path
    assert (hit.a, hit.b) == ("completed-offload", "timeout")


def test_diff_catches_frame_count_and_event_changes():
    a, b = _tiny_doc(), _tiny_doc()
    b["frames"] = []
    assert first_divergence(a, b).field == "frame-count"
    c = _tiny_doc()
    c["events"][0]["attrs"]["target"] = 11.0
    hit = first_divergence(a, c)
    assert hit.field == "attrs[target]" and "controller.update" in hit.path


def test_diff_version_mismatch_reported_first():
    a, b = _tiny_doc(), _tiny_doc()
    b["version"] = 999
    b["frames"] = []  # must be masked by the version divergence
    assert first_divergence(a, b).field == "version"


def test_terminal_counts_summary():
    counts = terminal_counts(_tiny_doc())
    assert counts == {"completed-offload": 1}


def test_trace_latency_summary_attributes_hops():
    from repro.metrics import span_duration_stats, trace_latency_summary

    env = Environment()
    tracer = Tracer()
    env.tracer = tracer
    client, _server, outcomes = _wired_client(env, tracer)
    tracer.begin_frame("pi", 0, 0.0, 11_700, "offload")
    client.send(Frame(frame_id=0, captured_at=0.0, nbytes=11_700))
    env.run(until=2.0)
    assert outcomes == [("ok", 0)]
    doc = trace_document(tracer)
    stats = span_duration_stats(doc)
    assert set(stats) == {"offload", "uplink", "server", "downlink"}
    assert stats["offload"]["count"] == 1
    # the attempt window covers all three hops, so it dominates totals
    assert next(iter(stats)) == "offload"
    summary = trace_latency_summary(doc)
    assert summary["frames"] == 1
    assert summary["terminal"] == {"completed-offload": 1}
    assert summary["frame_seconds"]["count"] == 1
    assert summary["frame_seconds"]["mean"] > 0


def test_dumps_trace_is_stable_under_key_order():
    doc = _tiny_doc()
    scrambled = json.loads(json.dumps(doc))
    assert dumps_trace(doc) == dumps_trace(scrambled)
