"""The emulated wireless link.

Model
-----
One :class:`Link` is one direction of the device <-> server path.  It
is a *serializer*: packets leave one at a time at the configured
bandwidth, so rate limiting manifests as serialization plus queueing
delay, exactly as a NetEm token-bucket does.  Per-packet i.i.d. loss is
repaired by ARQ: each lost transmission stalls the link for one
retransmission timeout (RTO) before the retry — the wireless-MAC
behaviour that makes loss *both* a delay and a goodput problem.
Delivered payloads incur an additional propagation delay plus Gaussian
jitter (pipelined: propagation does not occupy the serializer).

Calibration of the paper's bandwidth units
------------------------------------------
Table V expresses bandwidth as "kbps" values 1/4/10.  Taken literally
(1-10 kbit/s) not even a single compressed frame would fit inside the
250 ms deadline, so the label must be an informal unit.  We preserve
the *three regimes* the experiment is built around by calibrating one
unit = :data:`BANDWIDTH_UNIT_BPS` = 320 kbit/s against the ~11.7 kB
default frame (~94 kbit + packet overhead):

* bw=10 (3.2 Mbit/s): ~33 fps of frames — full 30 fps offload fits;
* bw=4 (1.28 Mbit/s): ~13 fps — partial offload only;
* bw=1 (320 kbit/s): serialization alone ~300 ms > deadline — no
  successful offload is possible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Tuple

import numpy as np

from repro.netem.loss import GilbertElliottChain, GilbertElliottParams
from repro.netem.packet import PACKET_OVERHEAD_BYTES, PACKET_PAYLOAD_BYTES
from repro.sim.core import Environment
from repro.sim.events import Event

#: bits per second represented by one paper bandwidth unit (see above)
BANDWIDTH_UNIT_BPS = 320_000.0


@dataclass(frozen=True)
class LinkConditions:
    """Immutable snapshot of link conditions (one Table V row).

    Attributes:
        bandwidth: paper bandwidth units (``* BANDWIDTH_UNIT_BPS`` bps).
        loss: average per-packet loss probability in [0, 1).
        propagation_delay: one-way latency floor, seconds.
        jitter_sigma: std-dev of Gaussian jitter on propagation, seconds.
        loss_burst: mean consecutive-loss burst length in packets.
            ``1.0`` (the default, and what the paper's NetEm config
            uses) means i.i.d. loss; values > 1 switch the link to a
            Gilbert–Elliott chain with the same *average* loss but
            clustered drops (see :mod:`repro.netem.loss`).
    """

    bandwidth: float = 10.0
    loss: float = 0.0
    propagation_delay: float = 0.008
    jitter_sigma: float = 0.003
    loss_burst: float = 1.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {self.loss}")
        if self.propagation_delay < 0 or self.jitter_sigma < 0:
            raise ValueError("delays must be non-negative")
        if self.loss_burst < 1.0:
            raise ValueError(f"loss burst length must be >= 1, got {self.loss_burst}")

    @property
    def bits_per_second(self) -> float:
        return self.bandwidth * BANDWIDTH_UNIT_BPS

    def packet_time(self, payload_bytes: int = 1448) -> float:
        """Serialization seconds for one packet of ``payload_bytes``."""
        return (payload_bytes + PACKET_OVERHEAD_BYTES) * 8.0 / self.bits_per_second


class ConditionBox:
    """Mutable holder sharing one set of conditions between links.

    The NetEm schedule mutates the box; the uplink and downlink read it
    when a frame starts serializing, so a condition change takes
    effect from the next frame (like re-running ``tc qdisc change``).
    """

    def __init__(self, conditions: LinkConditions) -> None:
        self._conditions = conditions
        self._listeners: list = []

    @property
    def conditions(self) -> LinkConditions:
        return self._conditions

    def set(self, conditions: LinkConditions) -> None:
        self._conditions = conditions
        for listener in self._listeners:
            listener(conditions)

    def subscribe(self, listener: Callable[[LinkConditions], None]) -> None:
        self._listeners.append(listener)


@dataclass
class LinkStats:
    """Counters exposed for tests and reports.

    ``packets_sent`` (every transmission attempt) and ``retransmissions``
    are credited when a frame *starts* serializing, since the link
    resolves all of a frame's attempts at once: a run cut mid-frame
    already counts that frame's attempts.  The frame outcome counters
    move at the instant the frame finishes or is abandoned.
    """

    frames_sent: int = 0
    frames_delivered: int = 0
    frames_dropped_overflow: int = 0
    frames_dropped_loss: int = 0
    packets_sent: int = 0
    retransmissions: int = 0
    bytes_delivered: int = 0

    @property
    def frames_in_flight_or_lost(self) -> int:
        return self.frames_sent - self.frames_delivered - self.dropped

    @property
    def dropped(self) -> int:
        return self.frames_dropped_overflow + self.frames_dropped_loss


class Link:
    """One direction of the emulated path.

    Payloads are opaque objects; callers provide their size and a
    delivery callback.  Drops (queue overflow or ARQ give-up) are
    silent, as on a real network — the *caller's* deadline bookkeeping
    turns silence into timeouts.

    The serializer is not a process.  A frame starts the instant the
    link is free — inside :meth:`send` on an idle link, at the previous
    frame's end otherwise — and :meth:`_transmit` resolves all of its
    packet attempts there.  One timer at the frame's end then settles
    it, so a frame costs that timer plus its delivery.
    """

    #: per-packet transmission attempts before the frame is abandoned
    MAX_ATTEMPTS = 7

    def __init__(
        self,
        env: Environment,
        rng: np.random.Generator,
        box: ConditionBox,
        name: str = "uplink",
        queue_bytes_cap: float = 131_072.0,
    ) -> None:
        self.env = env
        self.rng = rng
        self.box = box
        self.name = name
        #: EnvStats counts this link's timers under this name
        self.event_owner = f"link:{name}"
        self.queue_bytes_cap = queue_bytes_cap
        self.stats = LinkStats()
        #: frames waiting behind the one on the wire
        self._queue: Deque[Tuple[int, Any, Callable[[Any], None]]] = deque()
        self._queued_bytes = 0
        #: a frame is on the wire (its end-of-frame timer is pending)
        self._busy = False
        self._ge_chain = GilbertElliottChain()

    # ------------------------------------------------------------------
    @property
    def conditions(self) -> LinkConditions:
        return self.box.conditions

    @property
    def queued_bytes(self) -> int:
        return self._queued_bytes

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def send(self, nbytes: int, payload: Any, deliver: Callable[[Any], None]) -> bool:
        """Enqueue a payload for transmission.

        Returns False (tail drop) when the queue byte cap would be
        exceeded.  On delivery, ``deliver(payload)`` is invoked at the
        arrival instant.  A payload sent to an idle link starts
        serializing at once.
        """
        if nbytes < 0:
            raise ValueError(f"negative payload size {nbytes}")
        self.stats.frames_sent += 1
        tracer = self.env.tracer
        if self._queued_bytes + nbytes > self.queue_bytes_cap and self._queue:
            self.stats.frames_dropped_overflow += 1
            if tracer is not None:
                tracer.link_overflow(self.name, payload, self.env.now, nbytes)
            return False
        if tracer is not None:
            # The wrapped callback closes the traversal span at the
            # delivery instant; untraced payloads pass through as-is.
            _span, deliver = tracer.link_send(
                self.name, payload, self.env.now, nbytes, deliver, self.env
            )
        if self._busy:
            self._queue.append((nbytes, payload, deliver))
            self._queued_bytes += nbytes
        else:
            self._start(nbytes, payload, deliver)
        return True

    # ------------------------------------------------------------------
    def _start(self, nbytes: int, payload: Any, deliver: Callable[[Any], None]) -> None:
        """Put one frame on the wire and arm the timer at its end."""
        self._busy = True
        cond = self.box._conditions
        end, delivered = self._transmit(self.env.now, nbytes, cond)
        self.env.call_at(
            end, self._frame_end, value=(nbytes, payload, deliver, cond, delivered)
        )

    def _frame_end(self, event: Event) -> None:
        """The frame's last attempt ended: settle it, start the next one."""
        nbytes, payload, deliver, cond, delivered = event.value
        env = self.env
        stats = self.stats
        if delivered:
            stats.frames_delivered += 1
            stats.bytes_delivered += nbytes
            # Propagation is pipelined: the delivery is its own timer,
            # so the next frame starts serializing right away.
            delay = cond.propagation_delay
            if cond.jitter_sigma > 0:
                delay = max(0.0, delay + self.rng.normal(0.0, cond.jitter_sigma))
            env.call_later(delay, self._deliver, value=(payload, deliver))
        else:
            stats.frames_dropped_loss += 1
            if env.tracer is not None:
                env.tracer.link_drop(payload, env.now, "loss")
        queue = self._queue
        if queue:
            nbytes, payload, deliver = queue.popleft()
            self._queued_bytes -= nbytes
            self._start(nbytes, payload, deliver)
        else:
            self._busy = False

    def _transmit(
        self, start: float, nbytes: int, cond: LinkConditions
    ) -> Tuple[float, bool]:
        """Run one frame's packet-level ARQ; returns ``(end, delivered)``.

        Packets go out in order, each attempt drawing its fate from the
        link's own stream (i.i.d., or one Gilbert–Elliott step), and
        each lost attempt stalls the channel for one RTO before the
        retry.  ``end`` is summed one ``t = t + duration`` at a time,
        exactly as per-packet sleeps would advance the clock; a packet
        lost on all :attr:`MAX_ATTEMPTS` attempts abandons the frame at
        the end of that last attempt.  The attempt counters are
        credited here, when the frame starts serializing.

        :func:`~repro.netem.packet.packets_for` and
        :meth:`LinkConditions.packet_time` are inlined with the same
        arithmetic, so the times are the same bits without their five
        Python calls per frame.
        """
        n = -(-nbytes // PACKET_PAYLOAD_BYTES) or 1
        bps = cond.bandwidth * BANDWIDTH_UNIT_BPS
        full = (PACKET_PAYLOAD_BYTES + PACKET_OVERHEAD_BYTES) * 8.0 / bps
        tail = nbytes - (n - 1) * PACKET_PAYLOAD_BYTES or 1  # 0 only for 0 bytes
        last = (tail + PACKET_OVERHEAD_BYTES) * 8.0 / bps
        stats = self.stats
        t = start
        loss = cond.loss
        if loss <= 0.0:
            for _ in range(n - 1):
                t = t + full
            stats.packets_sent += n
            return t + last, True

        rng = self.rng
        iid = cond.loss_burst <= 1.0
        if iid:
            draw = rng.random
        else:
            params = GilbertElliottParams.from_average(loss, cond.loss_burst)
            step = self._ge_chain.step
        rto = self._rto(cond)
        sent = retransmissions = 0
        delivered = True
        for i in range(n):
            pkt_time = full if i < n - 1 else last
            attempts = 1
            while True:
                sent += 1
                t = t + pkt_time
                if not (draw() < loss if iid else step(params, rng)):
                    break  # got through
                attempts += 1
                retransmissions += 1
                if attempts > self.MAX_ATTEMPTS:
                    delivered = False
                    break
                # Loss detection stall before the retry occupies the
                # channel (wireless MAC behaviour).
                t = t + rto
            if not delivered:
                break
        stats.packets_sent += sent
        stats.retransmissions += retransmissions
        return t, delivered

    def _deliver(self, event: Event) -> None:
        # a bound method, not a staticmethod: EnvStats finds the owner
        # of a timer through its callback's ``__self__``
        payload, deliver = event.value
        deliver(payload)

    @staticmethod
    def _rto(cond: LinkConditions) -> float:
        """Retransmission stall: detection timeout before the retry."""
        return max(0.05, 2.0 * cond.propagation_delay + 0.02)

