"""Canonical trace serialization (the golden-file format).

Determinism contract
--------------------
``dumps_trace(trace_document(tracer, meta))`` must be byte-identical
for two runs of the same scenario with the same seed — including one
run on the kernel's fast timer path and one with ``EnvStats`` on.
Everything order-dependent is therefore normalized here rather than
trusted from runtime:

* frames sort by ``(tenant, frame_id)``, never by completion order;
* children sort by ``(start, end, name, canonical-attrs)`` — two
  callbacks firing at the same instant may append in either order at
  runtime, but serialize identically;
* events sort by ``(time, name, canonical-attrs)``;
* every timestamp is rounded to :data:`TIME_DECIMALS` decimal places,
  washing out float noise far below any simulated duration;
* parent intervals are extended bottom-up over their children, so the
  nesting invariant (child ⊆ parent) holds *by construction* even when
  a late link delivery lands after the frame's terminal classification
  already closed the root;
* spans still open at serialization time get status ``"unsettled"``
  (e.g. server spans whose queue died with a crashed service loop).

Nothing runtime-unstable — object ids, request ids from the global
counter, wall-clock anything — may appear in the document.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.trace.spans import OPEN_STATUS, Span
from repro.trace.tracer import Tracer

#: format version stamped into every document; bump on any change to
#: the canonical structure so trace-diff can refuse apples-vs-oranges
TRACE_VERSION = 1

#: timestamp rounding (decimal places of a sim-second)
TIME_DECIMALS = 9


def _round(t: float) -> float:
    return round(float(t), TIME_DECIMALS)


def _canon_value(value: Any) -> Any:
    """Attr values as stable JSON scalars (floats rounded)."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return _round(value)
    if isinstance(value, (int, str)):
        return value
    return str(value)


def _canon_span(span: Span) -> Dict[str, Any]:
    """Canonical dict for one span subtree; returns it with a real end."""
    children = [_canon_span(c) for c in span.children]
    end = _round(span.end) if span.end is not None else _round(span.start)
    if children:
        end = max(end, max(c["end"] for c in children))
        children.sort(
            key=lambda c: (
                c["start"],
                c["end"],
                c["name"],
                json.dumps(c["attrs"], sort_keys=True),
            )
        )
    return {
        "name": span.name,
        "start": _round(span.start),
        "end": end,
        "status": span.status if span.status is not None else OPEN_STATUS,
        "attrs": {k: _canon_value(v) for k, v in span.attrs.items()},
        "children": children,
    }


def trace_document(
    tracer: Tracer, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """One run's canonical trace document (JSON-ready)."""
    frames: List[Dict[str, Any]] = []
    for (tenant, frame_id), root in tracer.frames.items():
        frames.append(
            {"tenant": tenant, "frame_id": frame_id, "span": _canon_span(root)}
        )
    frames.sort(key=lambda f: (f["tenant"], f["frame_id"]))
    events = sorted(
        (
            {
                "time": _round(t),
                "name": name,
                "attrs": {k: _canon_value(v) for k, v in attrs.items()},
            }
            for t, name, attrs in tracer.events
        ),
        key=lambda e: (e["time"], e["name"], json.dumps(e["attrs"], sort_keys=True)),
    )
    return {
        "version": TRACE_VERSION,
        "meta": dict(meta or {}),
        "frames": frames,
        "events": events,
    }


def dumps_trace(doc: Dict[str, Any]) -> str:
    """The byte-exact golden serialization of a trace document."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def load_trace(path: str) -> Dict[str, Any]:
    """Read a golden trace document from disk."""
    with open(path) as fh:
        return json.load(fh)


def terminal_counts(doc: Dict[str, Any]) -> Dict[str, int]:
    """Frames per terminal status — the trace's one-line summary."""
    counts: Dict[str, int] = {}
    for frame in doc["frames"]:
        status = frame["span"]["status"]
        counts[status] = counts.get(status, 0) + 1
    return dict(sorted(counts.items()))
