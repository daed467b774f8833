"""Hardened batch-inference serving for trained LithoGAN models.

The research pipeline trusts its own tensors; a serving boundary cannot.
This package wraps the trained model in three defensive layers:

* :mod:`repro.serving.admission` — typed validation of incoming mask
  encodings; malformed clips become :class:`~repro.errors.AdmissionError`
  rejections and never reach the generator.
* :mod:`repro.serving.guards` — geometry sanity checks on generated resist
  windows (component count, area/CD plausibility, center agreement),
  classifying each output ``ok`` / ``suspect`` / ``degenerate``.
* :mod:`repro.serving.overload` — deadlines, a bounded work queue, and a
  circuit breaker that benches a misbehaving model in favor of the physics
  simulator.

:class:`~repro.serving.service.InferenceService` ties them into the
graceful-degradation ladder: every admitted clip is answered, with per-clip
provenance recording whether the model or the simulator produced it.

On top of the one-shot service sits the long-lived loop:

* :mod:`repro.serving.tenancy` — per-tenant admission quotas and the
  proportional fair-shedding policy.
* :mod:`repro.serving.server` — :class:`InferenceServer`, the
  continuous-batching serving loop (asynchronous submission, batches of
  whatever is queued, per-request deadlines, a wedge watchdog,
  drain-on-shutdown)
  and the :func:`run_soak` sustained-load harness.
* :mod:`repro.serving.rollout` — canary/shadow rollout policy: the
  deterministic batch router and sliding-window health comparison behind
  the server's zero-downtime hot swap and automatic rollback.
"""

from .admission import (
    AdmittedBatch,
    RANGE_TOLERANCE,
    Rejection,
    admit_masks,
)
from .guards import (
    GeometryBounds,
    GuardReport,
    OutputGuard,
    VERDICT_DEGENERATE,
    VERDICT_OK,
    VERDICT_SUSPECT,
)
from .overload import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BoundedWorkQueue,
    CircuitBreaker,
    Deadline,
    MONOTONIC_CLOCK,
)
from .service import (
    BatchReport,
    CAUSE_BREAKER,
    CAUSE_DEGENERATE,
    InferenceService,
    PROVENANCE_FALLBACK,
    PROVENANCE_MODEL,
    ServedClip,
    serve_latency_quantiles,
)
from .playback import PlaybackModel
from .rollout import (
    MODE_CANARY,
    MODE_SHADOW,
    SLOT_CANDIDATE,
    SLOT_INCUMBENT,
    RolloutController,
    RolloutVerdict,
    SlidingWindow,
    clip_is_bad,
)
from .tenancy import (
    DEFAULT_TENANT,
    TenancyController,
    TenantQuota,
    TenantState,
)
from .server import (
    InferenceServer,
    SHED_DEADLINE,
    SHED_EVICTED,
    SHED_OVERLOAD,
    SHED_QUOTA,
    SHED_SHUTDOWN,
    SHED_WEDGED,
    ServeFuture,
    ServeRequest,
    ServerStats,
    SoakReport,
    run_soak,
)

__all__ = [
    "AdmittedBatch",
    "RANGE_TOLERANCE",
    "Rejection",
    "admit_masks",
    "GeometryBounds",
    "GuardReport",
    "OutputGuard",
    "VERDICT_DEGENERATE",
    "VERDICT_OK",
    "VERDICT_SUSPECT",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BoundedWorkQueue",
    "CircuitBreaker",
    "Deadline",
    "MONOTONIC_CLOCK",
    "PlaybackModel",
    "MODE_CANARY",
    "MODE_SHADOW",
    "SLOT_CANDIDATE",
    "SLOT_INCUMBENT",
    "RolloutController",
    "RolloutVerdict",
    "SlidingWindow",
    "clip_is_bad",
    "DEFAULT_TENANT",
    "TenancyController",
    "TenantQuota",
    "TenantState",
    "InferenceServer",
    "SHED_DEADLINE",
    "SHED_EVICTED",
    "SHED_OVERLOAD",
    "SHED_QUOTA",
    "SHED_SHUTDOWN",
    "SHED_WEDGED",
    "ServeFuture",
    "ServeRequest",
    "ServerStats",
    "SoakReport",
    "run_soak",
    "BatchReport",
    "CAUSE_BREAKER",
    "CAUSE_DEGENERATE",
    "InferenceService",
    "PROVENANCE_FALLBACK",
    "PROVENANCE_MODEL",
    "ServedClip",
    "serve_latency_quantiles",
]
