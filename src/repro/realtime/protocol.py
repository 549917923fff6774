"""Wire protocol v2 for the asyncio inference gateway.

The earlier v1 protocol was a bare 4-byte length prefix and a
one-byte verdict — enough for a demo, not for an enforcement point:
the server cannot tell tenants apart (so it cannot meter them), cannot
tell the client *why* a frame was shed, and cannot schedule the
client's comeback.  v2 closes those gaps while keeping the
length-prefixed-frames-over-TCP shape:

request (one frame)::

    magic      1 byte   0xF2 (protocol discriminator; a v1 client's
                        length prefix can never start with 0xF2 for
                        payloads under MAX_PAYLOAD, so a gateway can
                        reject v1 traffic deterministically)
    tenant_len 1 byte   length of the tenant id (1..64 ASCII bytes)
    deadline   u32 BE   remaining deadline budget in microseconds at
                        send time (0 = no deadline attached); lets the
                        gateway shed frames that are already doomed
    length     u32 BE   payload length (<= MAX_PAYLOAD)
    tenant     bytes    tenant id
    payload    bytes    the "JPEG" (content ignored, size matters)

response (one per request, in request order per connection)::

    status      1 byte  see STATUS_* below (v1's '+'/'-' preserved)
    retry_after u32 BE  comeback hint in microseconds (0 = none);
                        meaningful on OVERLOADED, advisory elsewhere

Connections are persistent: a client may send many frames over one
connection; the gateway answers each exactly once, in order.
"""

from __future__ import annotations

import asyncio
import struct
from dataclasses import dataclass
from typing import Optional

#: protocol discriminator byte opening every v2 request
MAGIC = 0xF2

#: maximum accepted payload (shared sanity bound with v1, ~1 MiB)
MAX_PAYLOAD = 1 << 20

#: maximum tenant-id length in bytes
MAX_TENANT = 64

#: request completed; payload classified within its deadline budget
STATUS_OK = b"+"
#: dropped at batch formation (v1-compatible bare rejection)
STATUS_REJECTED = b"-"
#: shed by per-tenant admission or queue overflow; retry_after is the
#: gateway's estimate of when capacity frees up
STATUS_OVERLOADED = b"!"
#: shed because the frame's own deadline budget had already expired
#: when the GPU got to it — an answer nobody could use
STATUS_EXPIRED = b"x"

ALL_STATUSES = (STATUS_OK, STATUS_REJECTED, STATUS_OVERLOADED, STATUS_EXPIRED)

_REQ_HEAD = struct.Struct(">BBII")  # magic, tenant_len, deadline_us, length
_RESP = struct.Struct(">cI")  # status, retry_after_us

#: microseconds per second (deadline/retry-after wire unit)
_US = 1_000_000


class ProtocolError(ValueError):
    """A malformed v2 frame (bad magic, oversized field, short read)."""


@dataclass(frozen=True)
class Request:
    """One decoded request frame (payload bytes are not retained)."""

    tenant: str
    payload_bytes: int
    #: remaining deadline budget at send time (seconds; None = no hint)
    deadline: Optional[float]


@dataclass(frozen=True)
class Reply:
    """One decoded response frame."""

    status: bytes
    #: comeback hint in seconds (None when the server sent 0)
    retry_after: Optional[float]

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def encode_request(tenant: str, payload: bytes, deadline: Optional[float]) -> bytes:
    """Serialize one request frame."""
    raw_tenant = tenant.encode("ascii")
    if not 1 <= len(raw_tenant) <= MAX_TENANT:
        raise ProtocolError(f"tenant id must be 1..{MAX_TENANT} bytes, got {tenant!r}")
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(f"payload {len(payload)} exceeds MAX_PAYLOAD {MAX_PAYLOAD}")
    deadline_us = 0
    if deadline is not None:
        if deadline <= 0:
            raise ProtocolError(f"deadline must be positive, got {deadline}")
        deadline_us = min(int(deadline * _US), 0xFFFFFFFF)
    head = _REQ_HEAD.pack(MAGIC, len(raw_tenant), deadline_us, len(payload))
    return head + raw_tenant + payload


def encode_reply(status: bytes, retry_after: Optional[float] = None) -> bytes:
    """Serialize one response frame."""
    if status not in ALL_STATUSES:
        raise ProtocolError(f"unknown status byte {status!r}")
    retry_us = 0
    if retry_after is not None and retry_after > 0:
        retry_us = min(int(retry_after * _US), 0xFFFFFFFF)
    return _RESP.pack(status, retry_us)


def decode_reply(raw: bytes) -> Reply:
    """Parse one response frame."""
    if len(raw) != _RESP.size:
        raise ProtocolError(f"short reply: {len(raw)} bytes")
    status, retry_us = _RESP.unpack(raw)
    if status not in ALL_STATUSES:
        raise ProtocolError(f"unknown status byte {status!r}")
    return Reply(status=status, retry_after=retry_us / _US if retry_us else None)


REPLY_SIZE = _RESP.size
REQUEST_HEAD_SIZE = _REQ_HEAD.size


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Read and validate one request frame; None on clean EOF.

    Raises :class:`ProtocolError` on a malformed frame.  The payload is
    drained but not retained (only its size carries information).
    """
    try:
        head = await reader.readexactly(REQUEST_HEAD_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise ProtocolError(f"truncated request header ({len(exc.partial)} bytes)")
    magic, tenant_len, deadline_us, length = _REQ_HEAD.unpack(head)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic byte 0x{magic:02x} (expected 0x{MAGIC:02x})")
    if not 1 <= tenant_len <= MAX_TENANT:
        raise ProtocolError(f"bad tenant length {tenant_len}")
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"payload {length} exceeds MAX_PAYLOAD {MAX_PAYLOAD}")
    try:
        raw_tenant = await reader.readexactly(tenant_len)
        remaining = length
        while remaining:
            chunk = await reader.read(min(remaining, 1 << 16))
            if not chunk:
                raise ProtocolError("EOF inside payload")
            remaining -= len(chunk)
    except asyncio.IncompleteReadError:
        raise ProtocolError("EOF inside request body")
    try:
        tenant = raw_tenant.decode("ascii")
    except UnicodeDecodeError:
        raise ProtocolError(f"non-ASCII tenant id {raw_tenant!r}")
    return Request(
        tenant=tenant,
        payload_bytes=length,
        deadline=deadline_us / _US if deadline_us else None,
    )


async def read_reply(reader: asyncio.StreamReader) -> Reply:
    """Read one response frame (raises ProtocolError on EOF/garbage)."""
    try:
        raw = await reader.readexactly(REPLY_SIZE)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(f"connection closed mid-reply ({len(exc.partial)} bytes)")
    return decode_reply(raw)
