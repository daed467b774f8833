"""LithoGAN reproduction: end-to-end lithography modeling with GANs.

Reproduces Ye et al., "LithoGAN: End-to-End Lithography Modeling with
Generative Adversarial Networks" (DAC 2019) on a from-scratch NumPy stack.

Subpackages
-----------
``repro.geometry``   rectangles, rasterization grids, marching-squares contours
``repro.layout``     contact-array synthesis, SRAF insertion, OPC
``repro.optics``     Hopkins TCC / SOCS partially-coherent aerial imaging
``repro.resist``     diffusion + (variable-)threshold resist development
``repro.sim``        the rigorous golden-data pipeline (Fig. 1, left path)
``repro.nn``         the NumPy deep-learning framework
``repro.data``       dataset synthesis, image encoding, batching, persistence
``repro.models``     Table 1 / Table 2 network architectures
``repro.core``       CGAN training and the dual-learning LithoGAN framework
``repro.baselines``  conventional VTR flow and the Ref-[12] threshold-CNN flow
``repro.metrics``    EDE, pixel/class accuracy, mean IoU, CD and center error
``repro.eval``       Table 3/4 and Figure 6-9 regeneration harness
``repro.telemetry``  metrics registry, span tracing, structured run logs
``repro.runtime``    fault tolerance: checkpoints, recovery, fault injection,
                     and the deterministic parallel execution engine
``repro.serving``    hardened batch inference: admission, guards, fallback
``repro.registry``   versioned, manifest-verified model store with
                     promote/rollback pointers for safe rollout
``repro.sweep``      journaled, resumable multi-trial sweeps with per-trial
                     supervision (timeouts, typed retries, failure budget)
``repro.ilt``        inverse lithography: gradient-based mask optimization
                     through the generator with simulator verification
``repro.api``        the stable high-level façade: ``mint`` / ``train`` /
                     ``evaluate`` / ``serve`` / ``process_window`` /
                     ``optimize_mask``

The façade and the parallel-engine types are re-exported here:
``repro.api`` (lazily), :class:`ParallelConfig`, :class:`ParallelError`,
and ``WorkerPool``.
"""

from . import config
from .config import (
    ExperimentConfig,
    IltConfig,
    ImageConfig,
    ModelConfig,
    OpticalConfig,
    ParallelConfig,
    RecoveryConfig,
    RegistryConfig,
    ResistConfig,
    SweepConfig,
    TechnologyConfig,
    TrainingConfig,
    N10,
    N7,
    paper_n10,
    paper_n7,
    reduced,
    tiny,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    EvaluationError,
    GeometryError,
    IltError,
    LayoutError,
    OpticsError,
    ParallelError,
    RegistryError,
    ReproError,
    ResistError,
    ShapeError,
    SweepError,
    TelemetryError,
    TrainingError,
)

__version__ = "1.0.0"


def __getattr__(name):
    """Lazy attributes (PEP 562): the façade and the worker pool.

    ``repro.api`` pulls in the whole model/serving stack and ``WorkerPool``
    the executor machinery — both load on first touch so that
    ``import repro`` stays a cheap config+errors import.
    """
    if name == "api":
        import importlib
        return importlib.import_module(".api", __name__)
    if name == "WorkerPool":
        from .runtime.parallel import WorkerPool
        return WorkerPool
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "api",
    "config",
    "ExperimentConfig",
    "IltConfig",
    "ImageConfig",
    "ModelConfig",
    "OpticalConfig",
    "ParallelConfig",
    "RecoveryConfig",
    "RegistryConfig",
    "ResistConfig",
    "SweepConfig",
    "TechnologyConfig",
    "TrainingConfig",
    "N10",
    "N7",
    "paper_n10",
    "paper_n7",
    "reduced",
    "tiny",
    "ReproError",
    "CheckpointError",
    "ConfigError",
    "GeometryError",
    "IltError",
    "LayoutError",
    "OpticsError",
    "ParallelError",
    "RegistryError",
    "ResistError",
    "DataError",
    "ShapeError",
    "SweepError",
    "TrainingError",
    "EvaluationError",
    "TelemetryError",
    "WorkerPool",
    "__version__",
]
