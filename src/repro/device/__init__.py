"""Edge-device substrate: camera, splitter, local pipeline, offload client.

An :class:`~repro.device.device.EdgeDevice` owns the whole §II system
model on the device side:

* a fixed-rate frame source (30 fps, 4000 frames in the paper's runs);
* a deterministic splitter that routes frames to the offload stream at
  the controller's target rate ``P_o`` and everything else to local;
* a local inference pipeline that processes one frame at a time and
  *skips* frames that arrive while busy (``P_l < F_s`` by assumption);
* a pipelined offload client that ships frames over the uplink without
  waiting for responses, and turns silence past the 250 ms deadline —
  as well as server rejections — into timeout events ``T``;
* a 1 Hz measurement loop that closes rate buckets, asks the attached
  controller for a new ``P_o``, and records every series experiments
  need.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.device.camera": ("FrameSource",),
        "repro.device.config": ("DeviceConfig",),
        "repro.device.device": ("DeviceTraces", "EdgeDevice"),
        "repro.device.energy": ("CpuUtilizationModel",),
        "repro.device.local": ("LocalPipeline",),
        "repro.device.offload": ("OffloadClient",),
        "repro.device.splitter": ("TokenBucketSplitter",),
    },
)
