"""Fixed-rate frame source (the webcam / ImageNet stream of §IV-A)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.sim.core import Environment


@dataclass(frozen=True)
class Frame:
    """One captured frame."""

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
        self._name = name
        # Next frame id lives on the instance (not a loop local) so a
        # crash/restart cycle continues the stream where it stopped
        # instead of re-emitting ids the pipeline has already seen.
        self._next_id = 0
        self._proc = env.process(self._run(), name=name)

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the sensor process is running."""
        return self._proc.is_alive

    def crash(self) -> None:
        """Kill the sensor process mid-stream (fault injection).

        Unlike :meth:`pause`, nothing is scheduled to bring it back:
        frames simply stop until :meth:`restart`.  Crashing a finished
        stream is a no-op.
        """
        if self._proc.is_alive:
            self._proc.kill()

    def restart(self) -> None:
        """Respawn the sensor, continuing from the next unemitted frame.

        Frame ids stay continuous across the outage; on a bounded
        stream the tail is pushed past the downtime (frames that fall
        beyond the run horizon are then never captured).  Restarting a
        stream that already finished is a no-op.
        """
        if self._proc.is_alive or self.done.triggered:
            return
        self._paused_until = 0.0
        self._proc = self.env.process(self._run(), name=self._name)

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

    def _run(self):
        env = self.env
        period = 1.0 / self.frame_rate
        while self.total_frames is None or self._next_id < self.total_frames:
            yield env.sleep(period)
            while env.now < self._paused_until:
                yield env.sleep(self._paused_until - env.now)
            frame = Frame(
                frame_id=self._next_id, captured_at=env.now, nbytes=self._size_of()
            )
            self.frames_emitted += 1
            self.sink(frame)
            self._next_id += 1
        if not self.done.triggered:
            self.done.succeed(self.frames_emitted)
