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

    When each counter moves:

    * ``frames_sent`` and ``frames_dropped_overflow``: in :meth:`Link.send`;
    * ``packets_sent`` (every transmission attempt), ``retransmissions``,
      ``frames_delivered`` and ``bytes_delivered``: when the frame
      *starts* serializing, since the link resolves all of a frame's
      attempts and its fate at once (a run cut mid-frame already counts
      that frame, and a delivered frame counts before it arrives);
    * ``frames_dropped_loss``: at the instant the ARQ abandons the
      frame, the end of its last attempt.
    """

    frames_sent: int = 0
    frames_delivered: int = 0
    frames_dropped_overflow: int = 0
    frames_dropped_loss: int = 0
    packets_sent: int = 0
    retransmissions: int = 0
    bytes_delivered: int = 0

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
    link is free — inside :meth:`send` on a free link, at the previous
    frame's end otherwise — and :meth:`_transmit` resolves all of its
    packet attempts there, its jitter draw too.  A delivered frame then
    costs one timer, its delivery; an abandoned one a timer at its end,
    where the drop is counted.  Frames that wait share one timer at the
    instant the wire frees, which starts the head frame and re-arms
    while frames still wait.
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
        #: the end of the last frame started: the wire is busy before it
        self._free_at = float("-inf")
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
        arrival instant.  A payload sent to a free link (one whose last
        frame ends at or before now, with none waiting) starts
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
        queue = self._queue
        if queue or self.env.now < self._free_at:
            if not queue:
                # the one timer of the waiting frames
                self.env.call_at(self._free_at, self._next)
            queue.append((nbytes, payload, deliver))
            self._queued_bytes += nbytes
        else:
            self._start(nbytes, payload, deliver)
        return True

    # ------------------------------------------------------------------
    def _start(self, nbytes: int, payload: Any, deliver: Callable[[Any], None]) -> None:
        """Put one frame on the wire and settle its fate.

        The link's stream is drawn in frame order: the frame's packet
        fates, then (if delivered) its jitter, then the next frame's.
        """
        env = self.env
        cond = self.box._conditions
        end, delivered = self._transmit(env.now, nbytes, cond)
        self._free_at = end
        if delivered:
            stats = self.stats
            stats.frames_delivered += 1
            stats.bytes_delivered += nbytes
            # Propagation is pipelined: it does not occupy the wire.
            delay = cond.propagation_delay
            if cond.jitter_sigma > 0:
                delay = delay + self.rng.normal(0.0, cond.jitter_sigma)
                if delay < 0.0:
                    delay = 0.0
            env.call_at(end + delay, self._deliver, value=(payload, deliver))
        else:
            env.call_at(end, self._drop, value=payload)

    def _next(self, event: Event) -> None:
        """The wire freed: start the head frame, re-arm while frames wait."""
        queue = self._queue
        nbytes, payload, deliver = queue.popleft()
        self._queued_bytes -= nbytes
        self._start(nbytes, payload, deliver)
        if queue:
            self.env.call_at(self._free_at, self._next)

    def _drop(self, event: Event) -> None:
        """The ARQ gave the frame up at the end of its last attempt."""
        self.stats.frames_dropped_loss += 1
        tracer = self.env.tracer
        if tracer is not None:
            tracer.link_drop(event.value, self.env.now, "loss")

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

        rto = self._rto(cond)
        if cond.loss_burst > 1.0:
            return self._transmit_ge(t, n, full, last, rto, cond)
        rng = self.rng
        max_attempts = self.MAX_ATTEMPTS
        # i.i.d. fates come in blocks of ``rng.random(m)``: the same
        # doubles, from the same stream positions, as m scalar draws.
        # ``m`` is the fewest draws the attempt loop is sure to make from
        # here (every packet left gets through, or the current one fails
        # all its attempts left), so a block never reads past where the
        # scalar loop would stop and the jitter normal that follows on
        # this stream is the same draw.
        sent = retransmissions = 0
        i = 0  # the packet being sent
        attempts = 1  # its attempt about to be drawn
        while True:
            left = n - i
            m = max_attempts + 1 - attempts
            for u in rng.random(left if left < m else m).tolist():
                sent += 1
                t = t + (full if i < n - 1 else last)
                if u < loss:
                    attempts += 1
                    retransmissions += 1
                    if attempts > max_attempts:
                        stats.packets_sent += sent
                        stats.retransmissions += retransmissions
                        return t, False
                    # Loss detection stall before the retry occupies
                    # the channel (wireless MAC behaviour).
                    t = t + rto
                else:
                    i += 1
                    attempts = 1
            if i == n:
                stats.packets_sent += sent
                stats.retransmissions += retransmissions
                return t, True

    def _transmit_ge(
        self,
        t: float,
        n: int,
        full: float,
        last: float,
        rto: float,
        cond: LinkConditions,
    ) -> Tuple[float, bool]:
        """:meth:`_transmit`'s attempt loop under Gilbert–Elliott loss.

        One chain step, and one scalar draw, per attempt, through the
        chain's own :meth:`~repro.netem.loss.GilbertElliottChain.step`:
        neither fig3 nor the seed-0 tournament sets ``loss_burst > 1``.
        """
        rng = self.rng
        params = GilbertElliottParams.from_average(cond.loss, cond.loss_burst)
        step = self._ge_chain.step
        sent = retransmissions = 0
        delivered = True
        for i in range(n):
            pkt_time = full if i < n - 1 else last
            attempts = 1
            while True:
                sent += 1
                t = t + pkt_time
                if not step(params, rng):
                    break  # got through
                attempts += 1
                retransmissions += 1
                if attempts > self.MAX_ATTEMPTS:
                    delivered = False
                    break
                t = t + rto
            if not delivered:
                break
        stats = self.stats
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

