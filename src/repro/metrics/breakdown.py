"""End-to-end latency breakdown and timeout attribution (Table I's
``T_n`` vs ``T_l``).

The paper's central design argument is that the *device* cannot — and
need not — distinguish network-induced timeouts (``T_n``) from
load-induced ones (``T_l``); FrameFeedback reacts to their sum.  The
experiment harness, however, *can* attribute them, and the paper's
Table I names both.  This module provides that attribution from the
information flowing back to the device plus the watchdog outcome:

* a frame that produced **no response at all** by its deadline was lost
  or delayed in the network → ``T_n``;
* a frame the server **rejected** at batch formation → ``T_l``
  (§II-A.3 explicitly folds rejections into the load-induced rate);
* a frame that **completed but arrived late** is attributed to the
  component that consumed the largest share of its end-to-end time
  (network = uplink + downlink transit, server = queue wait + batch
  execution).

It also aggregates per-component latency statistics (mean/p50/p95) for
successful offloads, which the breakdown bench reports per phase.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np


class TimeoutCause(enum.Enum):
    """Which subsystem a violated deadline is attributed to."""

    NETWORK = "network"  # T_n
    LOAD = "load"  # T_l


@dataclass(frozen=True)
class LatencySample:
    """Component times of one offloaded frame that returned."""

    sent_at: float
    #: uplink transit: send -> server ingress
    uplink: float
    #: server residency: ingress -> response emission (queue + batch)
    server: float
    #: downlink transit: response emission -> arrival at device
    downlink: float
    #: whether the frame met its deadline
    ok: bool

    @property
    def total(self) -> float:
        return self.uplink + self.server + self.downlink

    def dominant_component(self) -> TimeoutCause:
        """The larger contributor: network (up+down) vs server."""
        return _dominant(self.uplink, self.server, self.downlink)


def _dominant(uplink: float, server: float, downlink: float) -> TimeoutCause:
    return TimeoutCause.NETWORK if uplink + downlink >= server else TimeoutCause.LOAD


@dataclass
class ComponentStats:
    """Summary statistics of one latency component."""

    mean: float
    p50: float
    p95: float
    maximum: float

    @classmethod
    def from_samples(cls, values: Sequence[float]) -> "ComponentStats":
        if len(values) == 0:
            return cls(float("nan"), float("nan"), float("nan"), float("nan"))
        arr = np.asarray(values)
        return cls(
            mean=float(arr.mean()),
            p50=float(np.percentile(arr, 50)),
            p95=float(np.percentile(arr, 95)),
            maximum=float(arr.max()),
        )


class BreakdownCollector:
    """Accumulates latency samples and timeout attributions.

    Samples are stored as columns (one ``array('d')`` per component
    plus ok flags), not one object per response: a run records one per
    returned frame, and the columns are what every reader wants.
    Violations are columns too (time, and a network/load flag).
    """

    def __init__(self) -> None:
        self._sent_at = array("d")
        self._uplink = array("d")
        self._server = array("d")
        self._downlink = array("d")
        self._ok = bytearray()
        #: time and cause (1 = network, 0 = load) of every violation
        self._violated_at = array("d")
        self._violation_network = bytearray()

    # ------------------------------------------------------------------
    def record(
        self,
        sent_at: float,
        uplink: float,
        server: float,
        downlink: float,
        ok: bool,
        at: float,
    ) -> None:
        """A frame returned (possibly late), given by its component times."""
        self._sent_at.append(sent_at)
        self._uplink.append(uplink)
        self._server.append(server)
        self._downlink.append(downlink)
        self._ok.append(ok)
        if not ok:
            self._violation(at, _dominant(uplink, server, downlink))

    def record_response(self, sample: LatencySample, at: float) -> None:
        """:meth:`record` for a :class:`LatencySample`."""
        self.record(
            sample.sent_at, sample.uplink, sample.server, sample.downlink, sample.ok, at
        )

    def record_silent_timeout(self, at: float) -> None:
        """A frame's deadline passed with no response: network loss."""
        self._violation(at, TimeoutCause.NETWORK)

    def record_rejection(self, at: float) -> None:
        """The server rejected the frame: load-induced (§II-A.3)."""
        self._violation(at, TimeoutCause.LOAD)

    def _violation(self, at: float, cause: TimeoutCause) -> None:
        self._violated_at.append(at)
        self._violation_network.append(cause is TimeoutCause.NETWORK)

    @property
    def violations(self) -> List[Tuple[float, TimeoutCause]]:
        """``(time, cause)`` of every attributed violation, in order."""
        return [
            (at, TimeoutCause.NETWORK if network else TimeoutCause.LOAD)
            for at, network in zip(self._violated_at, self._violation_network)
        ]

    @property
    def samples(self) -> List[LatencySample]:
        """Every recorded sample, in recording order."""
        return [
            LatencySample(*row)
            for row in zip(
                self._sent_at, self._uplink, self._server, self._downlink,
                map(bool, self._ok),
            )
        ]

    def _columns(self, ok_only: bool) -> Dict[str, np.ndarray]:
        # copies, not buffer views: a live view would stop the columns
        # from growing
        cols = {
            "uplink": np.array(self._uplink),
            "server": np.array(self._server),
            "downlink": np.array(self._downlink),
        }
        if ok_only:
            mask = np.array(self._ok, dtype=bool)
            cols = {name: col[mask] for name, col in cols.items()}
        # same float additions, in the same order, as LatencySample.total
        cols["total"] = cols["uplink"] + cols["server"] + cols["downlink"]
        return cols

    def totals(self, ok_only: bool = True) -> np.ndarray:
        """End-to-end times (uplink + server + downlink) of the samples."""
        return self._columns(ok_only)["total"]

    # ------------------------------------------------------------------
    def cause_counts(
        self, t0: float = float("-inf"), t1: float = float("inf")
    ) -> Dict[TimeoutCause, int]:
        """Violations by cause within ``[t0, t1)``."""
        counts = {TimeoutCause.NETWORK: 0, TimeoutCause.LOAD: 0}
        for at, network in zip(self._violated_at, self._violation_network):
            if t0 <= at < t1:
                counts[TimeoutCause.NETWORK if network else TimeoutCause.LOAD] += 1
        return counts

    def cause_rates(self, t0: float, t1: float) -> Dict[str, float]:
        """``{"T_n": per-second, "T_l": per-second}`` over ``[t0, t1)``."""
        if t1 <= t0:
            raise ValueError(f"empty interval [{t0}, {t1})")
        counts = self.cause_counts(t0, t1)
        span = t1 - t0
        return {
            "T_n": counts[TimeoutCause.NETWORK] / span,
            "T_l": counts[TimeoutCause.LOAD] / span,
        }

    def component_stats(self, ok_only: bool = True) -> Dict[str, ComponentStats]:
        """Per-component latency statistics."""
        return {
            name: ComponentStats.from_samples(col)
            for name, col in self._columns(ok_only).items()
        }

    @property
    def total_violations(self) -> int:
        return len(self._violated_at)
