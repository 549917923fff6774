"""Tests for wire protocol v2 (framing, validation, round trips)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.realtime import protocol


def decode_stream(data: bytes, chunk: int = 0):
    """Every request in ``data``, fed ``chunk`` bytes at a time (0 = all
    at once), then EOF."""
    decoder = protocol.RequestDecoder()
    out = []
    step = chunk or max(len(data), 1)
    for pos in range(0, len(data), step):
        decoder.feed(data[pos:pos + step], out)
    decoder.eof()
    return out


CHUNKINGS = (0, 1, 3, 10, 64)


def test_request_round_trip():
    raw = protocol.encode_request("dev3", b"\x01" * 64, 0.25)
    for chunk in CHUNKINGS:
        (request,) = decode_stream(raw, chunk)
        assert request.tenant == "dev3"
        assert request.payload_bytes == 64
        assert request.deadline == pytest.approx(0.25, abs=1e-6)


def test_request_without_deadline():
    raw = protocol.encode_request("d", b"x", None)
    (request,) = decode_stream(raw)
    assert request.deadline is None


def test_clean_eof_returns_none():
    decoder = protocol.RequestDecoder()
    assert decoder.feed(b"") == []
    assert not decoder.mid_frame
    decoder.eof()  # no frame started: a clean close, not an error


def test_truncated_frame_is_protocol_error():
    raw = protocol.encode_request("dev", b"\x00" * 100, 0.1)
    # a short header, a header without its tenant, a partial payload
    for chunk in CHUNKINGS:
        for cut in (5, 10, 12, 40):
            with pytest.raises(protocol.ProtocolError):
                decode_stream(raw[:cut], chunk)


def test_bad_magic_rejected():
    raw = protocol.encode_request("dev", b"x", 0.1)
    for chunk in CHUNKINGS:
        with pytest.raises(protocol.ProtocolError):
            decode_stream(b"\x00" + raw[1:], chunk)


def test_oversize_payload_rejected_at_decode():
    raw = protocol.encode_request("d", b"x", None)
    # patch the payload length field to exceed MAX_PAYLOAD
    head = bytearray(raw)
    bad = (protocol.MAX_PAYLOAD + 1).to_bytes(4, "big")
    head[6:10] = bad
    for chunk in CHUNKINGS:
        with pytest.raises(protocol.ProtocolError):
            decode_stream(bytes(head), chunk)


def test_bad_tenant_length_and_non_ascii_tenant_rejected():
    raw = bytearray(protocol.encode_request("dev", b"x", None))
    zero_len = bytes(raw[:1]) + b"\x00" + bytes(raw[2:])
    non_ascii = bytearray(raw)
    non_ascii[protocol.REQUEST_HEAD_SIZE] = 0xFF  # first tenant byte
    for chunk in CHUNKINGS:
        for bad in (zero_len, bytes(non_ascii)):
            with pytest.raises(protocol.ProtocolError):
                decode_stream(bad, chunk)


def test_requests_before_a_bad_frame_are_kept():
    good = protocol.encode_request("dev", b"\x00" * 20, 0.5)
    decoder = protocol.RequestDecoder()
    out = []
    with pytest.raises(protocol.ProtocolError):
        decoder.feed(good + good + b"\x00garbage-not-a-v2-frame", out)
    assert [r.tenant for r in out] == ["dev", "dev"]


_tenants = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=protocol.MAX_TENANT,
)
_requests = st.lists(
    st.tuples(
        _tenants,
        st.integers(min_value=0, max_value=3000),
        st.one_of(st.none(), st.floats(min_value=1e-6, max_value=5000.0)),
    ),
    min_size=0,
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(frames=_requests, cuts=st.lists(st.integers(min_value=0), max_size=12))
def test_any_chunking_decodes_the_same_requests(frames, cuts):
    stream = b"".join(
        protocol.encode_request(tenant, b"\x07" * size, deadline)
        for tenant, size, deadline in frames
    )
    whole = decode_stream(stream)
    assert [(r.tenant, r.payload_bytes) for r in whole] == [
        (tenant, size) for tenant, size, _deadline in frames
    ]
    for request, (_tenant, _size, deadline) in zip(whole, frames):
        wire_us = 0 if deadline is None else min(int(deadline * 1_000_000), 0xFFFFFFFF)
        if wire_us == 0:
            assert request.deadline is None
        else:
            assert request.deadline == wire_us / 1_000_000
    points = sorted({cut % (len(stream) + 1) for cut in cuts} | {0, len(stream)})
    decoder = protocol.RequestDecoder()
    chunked = []
    for lo, hi in zip(points, points[1:]):
        decoder.feed(stream[lo:hi], chunked)
    decoder.eof()
    assert chunked == whole


def _corrupted(kind: str, byte: int) -> bytes:
    """A request frame made malformed in one field, ``byte`` choosing
    the bad value."""
    raw = bytearray(protocol.encode_request("bad", b"\x07" * 8, 0.1))
    if kind == "magic":
        raw[0] = byte if byte != protocol.MAGIC else 0x00
    elif kind == "tenant_length":
        raw[1] = 0 if byte <= protocol.MAX_TENANT else byte
    elif kind == "oversize":
        raw[6:10] = (protocol.MAX_PAYLOAD + 1 + byte).to_bytes(4, "big")
    else:  # a non-ASCII tenant byte
        raw[protocol.REQUEST_HEAD_SIZE + 1] = 0x80 | byte
    return bytes(raw)


@settings(max_examples=150, deadline=None)
@given(
    frames=_requests,
    bad_at=st.integers(min_value=0),
    kind=st.sampled_from(["magic", "tenant_length", "oversize", "non_ascii"]),
    byte=st.integers(min_value=0, max_value=255),
    cuts=st.lists(st.integers(min_value=0), max_size=12),
    spill=st.integers(min_value=1, max_value=2 * protocol.REQUEST_HEAD_SIZE),
)
def test_any_chunking_stops_at_the_same_bad_frame(frames, bad_at, kind, byte, cuts, spill):
    """One malformed frame anywhere in a stream: under every chunking,
    the same requests come out before the same :class:`ProtocolError`,
    whether the decoder meets the bad header whole or in pieces.  The
    chunks are memoryviews, as the gateway's reads are."""
    encoded = [
        protocol.encode_request(tenant, b"\x07" * size, deadline)
        for tenant, size, deadline in frames
    ]
    bad_at %= len(encoded) + 1
    encoded.insert(bad_at, _corrupted(kind, byte))
    stream = b"".join(encoded)
    starts = [0]
    for frame in encoded:
        starts.append(starts[-1] + len(frame))
    chunkings = [
        [0, len(stream)],
        sorted({cut % (len(stream) + 1) for cut in cuts} | {0, len(stream)}),
        # each chunk holds the rest of one frame and ``spill`` bytes of
        # the next: the first holds a whole frame and part of the next
        sorted({min(start + spill, len(stream)) for start in starts[1:]}
               | {0, len(stream)}),
    ]
    expected = [(tenant, size) for tenant, size, _deadline in frames[:bad_at]]
    errors = set()
    view = memoryview(stream)
    for points in chunkings:
        decoder = protocol.RequestDecoder()
        out = []
        with pytest.raises(protocol.ProtocolError) as raised:
            for lo, hi in zip(points, points[1:]):
                decoder.feed(view[lo:hi], out)
        assert [(r.tenant, r.payload_bytes) for r in out] == expected
        errors.add(str(raised.value))
    assert len(errors) == 1, errors


def test_encode_validates_inputs():
    with pytest.raises(protocol.ProtocolError):
        protocol.encode_request("x" * (protocol.MAX_TENANT + 1), b"x", None)
    with pytest.raises(protocol.ProtocolError):
        protocol.encode_request("d", b"\x00" * (protocol.MAX_PAYLOAD + 1), None)


def test_reply_round_trip():
    for status, hint in (
        (protocol.STATUS_OK, None),
        (protocol.STATUS_REJECTED, None),
        (protocol.STATUS_OVERLOADED, 0.125),
        (protocol.STATUS_EXPIRED, None),
    ):
        reply = protocol.decode_reply(protocol.encode_reply(status, hint))
        assert reply.status == status
        if hint is None:
            assert reply.retry_after is None
        else:
            assert reply.retry_after == pytest.approx(hint, abs=1e-5)
    assert protocol.decode_reply(protocol.encode_reply(protocol.STATUS_OK, None)).ok


def test_reply_truncation_is_protocol_error():
    raw = protocol.encode_reply(protocol.STATUS_OK, None)
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_reply(raw[:2])
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_reply(b"?" + raw[1:])  # unknown status byte
