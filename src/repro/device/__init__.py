"""Edge-device substrate: camera, splitter, local pipeline, offload client.

:class:`~repro.device.core.DeviceCore` makes the §II device's decisions
with no clock: it routes each frame (offload stream at the controller's
target rate ``P_o`` through a deterministic splitter, the rest local),
closes the rate buckets once per measure period and asks the controller
for a new ``P_o``.  :class:`~repro.device.device.EdgeDevice` drives it
in the simulator, wired to a fixed-rate frame source (30 fps, 4000
frames in the paper's runs), a local pipeline that processes one frame
at a time and *skips* frames that arrive while busy (``P_l < F_s``),
and a pipelined offload client that turns silence past the 250 ms
deadline — and server rejections — into timeout events ``T``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.device.camera": ("FrameSource",),
        "repro.device.config": ("DeviceConfig",),
        "repro.device.core": ("DeviceCore", "DeviceTraces"),
        "repro.device.device": ("EdgeDevice",),
        "repro.device.energy": ("CpuUtilizationModel",),
        "repro.device.local": ("LocalPipeline",),
        "repro.device.offload": ("OffloadClient",),
        "repro.device.splitter": ("TokenBucketSplitter",),
    },
)
