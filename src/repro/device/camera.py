"""Fixed-rate frame source (the webcam / ImageNet stream of §IV-A)."""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Union

from repro.sim.core import Environment
from repro.sim.events import Event, EventPriority


class Frame(NamedTuple):
    """One captured frame (immutable; a tuple, so cheap to build)."""

    frame_id: int
    captured_at: float
    nbytes: int


class FrameSource:
    """Emits frames at a fixed rate, like a camera sensor.

    The paper's experiments generate "a stream of 4,000 frames at 30
    frames per second" (§IV-D); ``total_frames=None`` streams forever.
    Frames are delivered synchronously to ``sink`` at their capture
    instant — the sink decides routing.

    ``nbytes`` is either a fixed size or a zero-argument callable
    sampled per frame (see
    :class:`~repro.workloads.video.VideoContentModel`).
    """

    def __init__(
        self,
        env: Environment,
        frame_rate: float,
        nbytes: "Union[int, Callable[[], int]]",
        sink: Callable[[Frame], None],
        total_frames: Optional[int] = None,
        name: str = "camera",
    ) -> None:
        if frame_rate <= 0:
            raise ValueError(f"frame rate must be positive, got {frame_rate}")
        self.env = env
        self.frame_rate = frame_rate
        self.nbytes = nbytes
        self._size_of = nbytes if callable(nbytes) else (lambda: nbytes)
        self.sink = sink
        self.total_frames = total_frames
        self.frames_emitted = 0
        self.done = env.event()
        self._paused_until = 0.0
        #: EnvStats counts this source's timers under its name
        self.event_owner = name
        # Next frame id lives on the instance (not a local) so a
        # crash/restart cycle continues the stream where it stopped
        # instead of re-emitting ids the pipeline has already seen.
        self._next_id = 0
        self._period = 1.0 / frame_rate
        #: the pending start, tick or pause timer; None once the stream
        #: is done or the sensor crashed
        self._timer: Optional[Event] = None
        self._arm_start()

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the sensor has a timer pending (a frame to come)."""
        return self._timer is not None

    def crash(self) -> None:
        """Stop the sensor mid-stream (fault injection).

        Unlike :meth:`pause`, nothing is scheduled to bring it back:
        frames simply stop until :meth:`restart`.  Crashing a finished
        stream is a no-op.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def restart(self) -> None:
        """Start the sensor again, continuing from the next unemitted frame.

        Frame ids stay continuous across the outage; on a bounded
        stream the tail is pushed past the downtime (frames that fall
        beyond the run horizon are then never captured).  Restarting a
        stream that is running or already finished is a no-op.
        """
        if self._timer is not None or self.done.triggered:
            return
        self._paused_until = 0.0
        self._arm_start()

    def pause(self, duration: float) -> None:
        """Freeze the sensor for ``duration`` seconds (fault injection).

        No frames are emitted while frozen; the stream resumes on its
        own cadence afterwards, so a stall *delays* the tail of a
        bounded stream rather than dropping frames from it.
        """
        if duration < 0:
            raise ValueError(f"negative pause duration {duration}")
        self._paused_until = max(self._paused_until, self.env.now + duration)

    @property
    def paused(self) -> bool:
        return self.env.now < self._paused_until

    # ------------------------------------------------------------------
    # the frame clock: a chain of timers, one per frame (plus one per
    # pause)
    # ------------------------------------------------------------------
    def _arm_start(self) -> None:
        # URGENT at this instant, like every loop's start, so the first
        # tick is armed ahead of this instant's ordinary events
        self._timer = self.env.call_at(
            self.env.now, self._arm_next, priority=EventPriority.URGENT
        )

    def _arm_next(self, _event: Optional[Event] = None) -> None:
        """Arm the next frame's tick, or end a finished stream."""
        if self.total_frames is None or self._next_id < self.total_frames:
            self._timer = self.env.call_later(self._period, self._tick)
        else:
            self._timer = None
            if not self.done.triggered:
                self.done.succeed(self.frames_emitted)

    def _tick(self, event: Event) -> None:
        now = self.env.now
        if now < self._paused_until:
            # frozen: wait out the pause, then check it again
            self._timer = self.env.call_later(self._paused_until - now, self._tick)
            return
        frame = Frame(self._next_id, now, self._size_of())
        self.frames_emitted += 1
        self.sink(frame)
        self._next_id += 1
        if self._timer is not event:
            return  # the sink crashed the sensor
        # _arm_next's common case, inlined: one call fewer per frame
        if self.total_frames is None or self._next_id < self.total_frames:
            self._timer = self.env.call_later(self._period, self._tick)
        else:
            self._arm_next()
