"""Frame byte-size model (what offloading actually ships over the link).

§II-D of the paper notes the two levers that grow frame bytes —
resolution and (lighter) JPEG compression — and that both trade
accuracy against transfer cost.  The FrameFeedback system itself only
needs *bytes per frame*; this module provides a calibrated JPEG size
model so experiments can sweep resolution/quality coherently.

The bits-per-pixel curve is a piecewise-linear fit through widely
reported JPEG operating points for photographic content:

    quality:  10    30    50    75    85    90    95   100
    bpp:     0.25  0.50  0.75  1.20  1.80  2.40  3.50  6.00

At the paper's default (224x224, quality 85) a frame is ~11.3 kB,
matching typical compressed ImageNet thumbnails.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

_QUALITY_ANCHORS = (10.0, 30.0, 50.0, 75.0, 85.0, 90.0, 95.0, 100.0)
_BPP_ANCHORS = (0.25, 0.50, 0.75, 1.20, 1.80, 2.40, 3.50, 6.00)

#: fixed per-request overhead: JPEG/HTTP headers, request metadata
HEADER_BYTES = 400

#: size of a classification *response* (label + confidence + ids)
RESPONSE_BYTES = 160


def jpeg_bits_per_pixel(quality: float) -> float:
    """Average JPEG bits/pixel at integer ``quality`` in [1, 100]."""
    if not 1 <= quality <= 100:
        raise ValueError(f"JPEG quality must be in [1, 100], got {quality}")
    # numpy's interp, step for step, so the result is bit-identical:
    # clamp below the first anchor, exact at an anchor, else the slope
    # of the bracketing segment times the offset into it
    x = float(quality)
    j = bisect.bisect_right(_QUALITY_ANCHORS, x) - 1
    if j < 0:
        return _BPP_ANCHORS[0]
    if j == len(_QUALITY_ANCHORS) - 1 or _QUALITY_ANCHORS[j] == x:
        return _BPP_ANCHORS[j]
    x0, y0 = _QUALITY_ANCHORS[j], _BPP_ANCHORS[j]
    slope = (_BPP_ANCHORS[j + 1] - y0) / (_QUALITY_ANCHORS[j + 1] - x0)
    return slope * (x - x0) + y0


@functools.lru_cache(maxsize=256)
def frame_bytes(resolution: int = 224, quality: float = 85.0) -> int:
    """Bytes on the wire for one offloaded frame.

    Memoized: devices ask once per captured frame, but the capture
    quality only moves at a controller tick.  Invalid arguments raise
    every time (exceptions are never cached).
    """
    if resolution <= 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    pixels = resolution * resolution
    payload = pixels * jpeg_bits_per_pixel(quality) / 8.0
    return int(round(payload)) + HEADER_BYTES


@dataclass(frozen=True)
class FrameSpec:
    """Capture/encode settings for a device's video stream."""

    resolution: int = 224
    jpeg_quality: float = 85.0

    @property
    def bytes_on_wire(self) -> int:
        return frame_bytes(self.resolution, self.jpeg_quality)

    @property
    def response_bytes(self) -> int:
        return RESPONSE_BYTES
