"""Per-period RTT statistics in pure Python, bit-identical to numpy.

A measure period closes over ~30 RTTs, where ``np.asarray`` plus
``np.percentile`` costs tens of microseconds and the arithmetic itself
under two.  These helpers repeat numpy's float operations in numpy's
order, so the controller sees the very same bits:

* :func:`rtt_mean` is ``np.mean``: numpy's pairwise sum (sequential
  below 8 items, 8 interleaved accumulators up to 128, halves rounded
  down to a multiple of 8 above that), divided by the count;
* :func:`rtt_p95` is ``np.percentile(values, 95)`` with its default
  ``linear`` method, including numpy's two-sided lerp.
"""

from __future__ import annotations

from typing import Sequence

#: numpy's pairwise-summation block (``PW_BLOCKSIZE``)
_BLOCK = 128


def _pairwise_sum(values: Sequence[float], lo: int, n: int) -> float:
    """``values[lo:lo + n]`` summed as numpy's ``pairwise_sum`` does."""
    if n < 8:
        total = 0.0
        for i in range(lo, lo + n):
            total += values[i]
        return total
    if n <= _BLOCK:
        stop = lo + n - n % 8
        acc = []
        for j in range(lo, lo + 8):
            # accumulator j: items j, j+8, j+16, ... in that order
            partial = values[j]
            for x in values[j + 8:stop:8]:
                partial += x
            acc.append(partial)
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + (
            (acc[4] + acc[5]) + (acc[6] + acc[7])
        )
        for x in values[stop:lo + n]:
            total += x
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, half) + _pairwise_sum(values, lo + half, n - half)


def rtt_mean(values: Sequence[float]) -> float:
    """``float(np.mean(values))`` for a non-empty sequence of floats."""
    n = len(values)
    return _pairwise_sum(values, 0, n) / n


def rtt_p95(values: Sequence[float]) -> float:
    """``float(np.percentile(values, 95))`` for a non-empty sequence."""
    ordered = sorted(values)
    last = len(ordered) - 1
    v = last * 0.95
    if v >= last:
        return ordered[last]
    i = int(v)
    g = v - i
    a = ordered[i]
    b = ordered[i + 1]
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g
