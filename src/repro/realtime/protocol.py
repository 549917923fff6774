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

import struct
from typing import NamedTuple, Optional, Union

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


class Request(NamedTuple):
    """One decoded request frame (payload bytes are not retained)."""

    tenant: str
    payload_bytes: int
    #: remaining deadline budget at send time (seconds; None = no hint)
    deadline: Optional[float]


class Reply(NamedTuple):
    """One decoded response frame."""

    status: bytes
    #: comeback hint in seconds (None when the server sent 0)
    retry_after: Optional[float]

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def overloaded(self) -> bool:
        return self.status == STATUS_OVERLOADED


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
    return Reply(status, retry_us / _US if retry_us else None)


REPLY_SIZE = _RESP.size
REQUEST_HEAD_SIZE = _REQ_HEAD.size


def _head_error(magic: int, tenant_len: int, length: int) -> ProtocolError:
    """The error a header with these fields is rejected with."""
    if magic != MAGIC:
        return ProtocolError(f"bad magic byte 0x{magic:02x} (expected 0x{MAGIC:02x})")
    if not 1 <= tenant_len <= MAX_TENANT:
        return ProtocolError(f"bad tenant length {tenant_len}")
    return ProtocolError(f"payload {length} exceeds MAX_PAYLOAD {MAX_PAYLOAD}")


def _tenant_error(raw_tenant: bytes) -> ProtocolError:
    return ProtocolError(f"non-ASCII tenant id {bytes(raw_tenant)!r}")


class RequestDecoder:
    """Incremental request decoder: feed it bytes as they arrive.

    Holds at most one partial header (plus tenant id) between calls; a
    payload is counted off as it streams past and never buffered, since
    only its size carries information.  Validation is the same as for a
    whole frame: the header is checked as soon as its 10 bytes are in.
    A frame whose header and tenant arrive in one chunk, the usual case,
    is decoded in place; only a frame split inside them is copied.
    """

    __slots__ = ("_head", "_tenant_len", "_deadline_us", "_length", "_skip", "_request")

    def __init__(self) -> None:
        #: header (then tenant) bytes of the frame being decoded
        self._head = bytearray()
        self._tenant_len = 0
        self._deadline_us = 0
        self._length = 0
        #: payload bytes still to be counted off for ``_request``
        self._skip = 0
        self._request: Optional[Request] = None

    @property
    def mid_frame(self) -> bool:
        """True while part of a frame has arrived but not all of it."""
        return bool(self._head) or self._skip > 0

    def feed(self, data: Union[bytes, memoryview], out: Optional[list] = None) -> list:
        """Decode ``data``, appending each completed :class:`Request`.

        Returns ``out`` (a new list when not given).  Raises
        :class:`ProtocolError` on a malformed frame; the requests that
        completed before it are already in ``out``.
        """
        if out is None:
            out = []
        pos, end = 0, len(data)
        head = self._head
        while pos < end:
            if self._skip:
                step = min(self._skip, end - pos)
                pos += step
                self._skip -= step
                if not self._skip:
                    out.append(self._request)
                    self._request = None
                continue
            if not head and end - pos >= REQUEST_HEAD_SIZE:
                # a whole header in this chunk: check it in place
                magic, tenant_len, deadline_us, length = _REQ_HEAD.unpack_from(data, pos)
                if magic != MAGIC or not 1 <= tenant_len <= MAX_TENANT or length > MAX_PAYLOAD:
                    raise _head_error(magic, tenant_len, length)
                start = pos + REQUEST_HEAD_SIZE
                stop = start + tenant_len
                if stop > end:
                    # the tenant runs on into the next chunk
                    self._tenant_len, self._deadline_us, self._length = (
                        tenant_len, deadline_us, length)
                    head += data[pos:end]
                    break
                try:
                    tenant = str(data[start:stop], "ascii")
                except UnicodeDecodeError:
                    raise _tenant_error(data[start:stop])
                request = Request(tenant, length, deadline_us / _US if deadline_us else None)
                pos = stop + length
                if pos > end:
                    self._skip, self._request = pos - end, request
                    break
                out.append(request)
                continue
            if len(head) < REQUEST_HEAD_SIZE:
                take = min(REQUEST_HEAD_SIZE - len(head), end - pos)
                head += data[pos:pos + take]
                pos += take
                if len(head) < REQUEST_HEAD_SIZE:
                    break
                self._check_head()
                continue
            take = min(REQUEST_HEAD_SIZE + self._tenant_len - len(head), end - pos)
            head += data[pos:pos + take]
            pos += take
            if len(head) == REQUEST_HEAD_SIZE + self._tenant_len:
                request = self._finish_head()
                if self._length:
                    self._skip, self._request = self._length, request
                else:
                    out.append(request)
        return out

    def eof(self) -> None:
        """The peer closed: raise :class:`ProtocolError` inside a frame."""
        if self.mid_frame:
            raise ProtocolError("EOF inside a request frame")

    def _check_head(self) -> None:
        magic, tenant_len, deadline_us, length = _REQ_HEAD.unpack(self._head)
        if magic != MAGIC or not 1 <= tenant_len <= MAX_TENANT or length > MAX_PAYLOAD:
            raise _head_error(magic, tenant_len, length)
        self._tenant_len, self._deadline_us, self._length = tenant_len, deadline_us, length

    def _finish_head(self) -> Request:
        raw_tenant = bytes(self._head[REQUEST_HEAD_SIZE:])
        self._head.clear()
        try:
            tenant = raw_tenant.decode("ascii")
        except UnicodeDecodeError:
            raise _tenant_error(raw_tenant)
        deadline_us = self._deadline_us
        return Request(tenant, self._length, deadline_us / _US if deadline_us else None)
