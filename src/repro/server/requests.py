"""Request/response records exchanged between devices and the server."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

_request_ids = itertools.count()


class RequestOutcome(enum.Enum):
    """Terminal states of an offload request, as the server saw it."""

    COMPLETED = "completed"
    REJECTED = "rejected"  # dropped at batch formation (queue overflow)
    #: shed by the admission path because the server is saturated.
    #: Distinguishable from REJECTED so the device can tell "server
    #: overloaded, back off" from "network dead, probe"; carries a
    #: ``retry_after`` hint.  Only emitted when the server is built
    #: with ``pushback=True`` (the paper's server sends bare
    #: rejections).
    OVERLOADED = "overloaded"


# Module constants for the per-response reads: an Enum member read as a
# class attribute (``RequestOutcome.COMPLETED``) goes through
# ``EnumType.__getattr__``, ~150 ns where a global costs ~10 ns.
_COMPLETED = RequestOutcome.COMPLETED
_OVERLOADED = RequestOutcome.OVERLOADED


@dataclass
class InferenceRequest:
    """One frame's inference request as it arrives at the server.

    ``respond`` is invoked exactly once, at the server-side completion
    (or rejection) instant, with the :class:`Response`.  For offloading
    devices the callback pushes the response onto the downlink; for
    background tenants it just counts.  The gateway's takes the wire
    status and retry-after hint instead.
    """

    tenant: str
    model_name: str
    sent_at: float
    payload_bytes: int
    respond: Callable[..., None]
    frame_id: int = -1
    #: which transmission of the frame this is (0 = original send,
    #: 1.. = hedged/deferred retries); lets per-frame traces tell a
    #: retransmission's uplink trip from the original's
    attempt: int = 0
    request_id: int = field(default_factory=_request_ids.__next__)
    arrived_at: Optional[float] = None
    #: optional absolute deadline hint (client clock).  The paper's
    #: system does not ship one; the DEADLINE_AWARE batch policy uses
    #: it to shed frames that are already doomed instead of spending
    #: GPU time producing answers nobody can use.
    deadline_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError(f"negative payload {self.payload_bytes}")


class Response(NamedTuple):
    """The server's answer to one request (immutable; a tuple, so cheap
    to build — the server makes one per request)."""

    request_id: int
    frame_id: int
    tenant: str
    outcome: RequestOutcome
    completed_at: float
    batch_size: int = 0
    queue_wait: float = 0.0
    #: when the request reached the server (for latency attribution)
    arrived_at: float = 0.0
    #: classification result placeholder (label index); carries no
    #: semantics in the simulation but keeps the wire format honest
    label: int = 0
    #: overload pushback hint: seconds the client should wait before
    #: re-sending (None for every non-OVERLOADED outcome)
    retry_after: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.outcome is _COMPLETED

    @property
    def overloaded(self) -> bool:
        return self.outcome is _OVERLOADED
