"""Unit + property tests for the JPEG frame-size model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.frames import (
    HEADER_BYTES,
    FrameSpec,
    frame_bytes,
    jpeg_bits_per_pixel,
)


def test_default_frame_is_about_11kb():
    """Calibration anchor: 224x224 @ q85 ~ 11.7 kB (DESIGN.md §5)."""
    assert 10_000 < frame_bytes(224, 85) < 13_000


def test_bpp_anchor_points():
    assert jpeg_bits_per_pixel(10) == pytest.approx(0.25)
    assert jpeg_bits_per_pixel(85) == pytest.approx(1.80)
    assert jpeg_bits_per_pixel(100) == pytest.approx(6.00)


def test_quality_out_of_range_rejected():
    with pytest.raises(ValueError):
        jpeg_bits_per_pixel(0)
    with pytest.raises(ValueError):
        jpeg_bits_per_pixel(101)


def test_resolution_must_be_positive():
    with pytest.raises(ValueError):
        frame_bytes(0, 85)


def test_bytes_scale_with_pixels():
    """Doubling resolution quadruples payload (minus fixed header)."""
    small = frame_bytes(224, 85) - HEADER_BYTES
    large = frame_bytes(448, 85) - HEADER_BYTES
    assert large == pytest.approx(4 * small, rel=0.01)


def test_framespec_defaults_and_properties():
    spec = FrameSpec()
    assert spec.resolution == 224
    assert spec.bytes_on_wire == frame_bytes(224, 85.0)
    assert spec.response_bytes > 0
    assert spec.response_bytes < spec.bytes_on_wire


@given(q1=st.floats(min_value=1, max_value=100), q2=st.floats(min_value=1, max_value=100))
@settings(max_examples=200, deadline=None)
def test_bpp_monotone_in_quality(q1, q2):
    if q1 <= q2:
        assert jpeg_bits_per_pixel(q1) <= jpeg_bits_per_pixel(q2) + 1e-12


@given(
    res=st.integers(min_value=16, max_value=2048),
    quality=st.floats(min_value=1, max_value=100),
)
@settings(max_examples=200, deadline=None)
def test_frame_bytes_positive_and_bounded(res, quality):
    nbytes = frame_bytes(res, quality)
    assert nbytes > HEADER_BYTES
    # payload can never exceed uncompressed 24-bit RGB
    assert nbytes - HEADER_BYTES <= res * res * 3


@given(res=st.integers(min_value=16, max_value=1024))
@settings(max_examples=100, deadline=None)
def test_frame_bytes_monotone_in_resolution(res):
    assert frame_bytes(res + 16, 85) > frame_bytes(res, 85)


def test_frame_bytes_is_memoized_but_still_validates():
    first = frame_bytes(224, 61.5)
    hits = frame_bytes.cache_info().hits
    assert frame_bytes(224, 61.5) == first
    assert frame_bytes.cache_info().hits == hits + 1
    for _ in range(2):  # a failed call is never cached
        with pytest.raises(ValueError):
            frame_bytes(224, 0)
        with pytest.raises(ValueError):
            frame_bytes(-1, 85)


def test_bpp_is_bit_identical_to_numpy_interp():
    """The pure-Python curve reproduces ``np.interp`` bit for bit."""
    import random

    import numpy as np

    from repro.models.frames import _BPP_ANCHORS, _QUALITY_ANCHORS

    rng = random.Random(0)
    qualities = list(range(1, 101)) + [rng.uniform(1.0, 100.0) for _ in range(1000)]
    for quality in qualities:
        expected = float(np.interp(quality, _QUALITY_ANCHORS, _BPP_ANCHORS))
        assert jpeg_bits_per_pixel(quality).hex() == expected.hex(), quality
