"""Edge-server substrate: multi-tenant GPU inference with adaptive batching.

Implements §IV-A of the paper: the server keeps a request queue per
model that fills *while the previous batch executes*; the next batch is
formed from that queue up to a 15-frame cap, and the remainder of the
queue is **rejected** (not delayed).  A single GPU executes batches
serially with an affine batch-latency model; multi-tenancy is simply
many clients feeding the same queues, which is what makes server load
(`T_l`) a distinct timeout source from networking (`T_n`).

The discipline is one clock-free :class:`ServerCore`, driven by the
simulator's :class:`EdgeServer` and by the wall-clock gateway.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.server.batching": ("AdaptiveBatcher", "BatchPolicy"),
        "repro.server.core": ("ServerCore",),
        "repro.server.requests": ("InferenceRequest", "RequestOutcome", "Response"),
        "repro.server.server": ("EdgeServer", "ServerStats"),
    },
)
