"""Inference cost substrate: model zoo, device profiles, latency models.

The paper runs Keras MobileNetV3 / EfficientNet classifiers on
Raspberry Pis and a V100 edge server.  Neither the models nor the
hardware are available here, and the FrameFeedback controller never
looks inside them — it only observes *completion times*.  This package
therefore provides calibrated cost models:

* :mod:`repro.models.zoo` — the four classifier specs from the paper
  (input resolution, relative compute cost, Table III accuracy);
* :mod:`repro.models.device_profiles` — the three Raspberry Pi profiles
  of Table II with their measured local rates ``P_l``;
* :mod:`repro.models.latency` — samplers for local CPU inference
  latency and the server's GPU batch latency (affine in batch size);
* :mod:`repro.models.accuracy` — Table III accuracies plus the §II-D
  resolution/compression accuracy estimator;
* :mod:`repro.models.frames` — JPEG byte-size model for offloaded
  frames.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.models.accuracy": ("AccuracyModel", "estimate_accuracy"),
        "repro.models.device_profiles": (
            "DEVICE_PROFILES", "PI_3B_1_2", "PI_4B_1_2", "PI_4B_1_4", "DeviceProfile",
            "local_rate",
        ),
        "repro.models.frames": ("FrameSpec", "frame_bytes", "jpeg_bits_per_pixel"),
        "repro.models.latency": ("GpuBatchModel", "LocalLatencyModel"),
        "repro.models.zoo": (
            "EFFICIENTNET_B0", "EFFICIENTNET_B4", "MOBILENET_V3_LARGE",
            "MOBILENET_V3_SMALL", "MODEL_ZOO", "ModelSpec", "get_model",
        ),
    },
)
