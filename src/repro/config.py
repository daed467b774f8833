"""Configuration objects and named presets for the LithoGAN reproduction.

Every experiment in the paper is described by an :class:`ExperimentConfig`,
which bundles the technology node, the optical and resist models used to mint
golden data, the image-encoding geometry of Section 3.1, the network
architecture of Tables 1--2, and the training hyper-parameters of Section 4.

Three preset families are provided:

``paper_n10()`` / ``paper_n7()``
    The exact paper-scale setup (256x256 images, base width 64, 80 epochs,
    982/979 clips).  Constructible and shape-tested everywhere, but far too
    slow to *train* on CPU in CI.

``reduced()``
    The default for the benchmark harness: identical code paths at 64x64
    images and base width 16 so a full train/evaluate cycle finishes in
    minutes on a laptop CPU.

``tiny()``
    Unit-test scale (32x32, handful of clips, 1-2 epochs).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .errors import ConfigError

# ---------------------------------------------------------------------------
# Optical model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpticalConfig:
    """Partially-coherent scalar imaging model parameters.

    The defaults describe a 193 nm immersion scanner with annular
    illumination, the workhorse for contact layers at N10/N7.
    """

    wavelength_nm: float = 193.0
    numerical_aperture: float = 1.35
    sigma_inner: float = 0.60
    sigma_outer: float = 0.90
    defocus_nm: float = 0.0
    #: number of SOCS kernels retained from the TCC eigendecomposition
    num_kernels: int = 8
    #: simulation grid resolution (pixels across the cropped clip)
    grid_size: int = 64

    def __post_init__(self) -> None:
        if self.wavelength_nm <= 0:
            raise ConfigError(f"wavelength must be positive, got {self.wavelength_nm}")
        if not 0 < self.numerical_aperture:
            raise ConfigError(f"NA must be positive, got {self.numerical_aperture}")
        if not 0 <= self.sigma_inner < self.sigma_outer <= 1.0 + 1e-9:
            raise ConfigError(
                "annular source requires 0 <= sigma_inner < sigma_outer <= 1, "
                f"got ({self.sigma_inner}, {self.sigma_outer})"
            )
        if self.num_kernels < 1:
            raise ConfigError(f"num_kernels must be >= 1, got {self.num_kernels}")
        if self.grid_size < 8:
            raise ConfigError(f"grid_size must be >= 8, got {self.grid_size}")


# ---------------------------------------------------------------------------
# Resist model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResistConfig:
    """Resist development model parameters.

    ``base_threshold`` is the nominal constant intensity threshold; the
    variable-threshold model perturbs it from local aerial-image statistics
    (Imax/Imin/slope), following the VTR family the paper cites [9].
    """

    base_threshold: float = 0.22
    diffusion_length_nm: float = 8.0
    #: VTR sensitivity coefficients: threshold = base + a*(Imax-c) + b*(Imin-d)
    vtr_imax_coeff: float = 0.08
    vtr_imin_coeff: float = -0.12
    vtr_slope_coeff: float = 0.02
    vtr_imax_ref: float = 1.0
    vtr_imin_ref: float = 0.05

    def __post_init__(self) -> None:
        if not 0 < self.base_threshold < 1:
            raise ConfigError(
                f"base_threshold must lie in (0, 1), got {self.base_threshold}"
            )
        if self.diffusion_length_nm < 0:
            raise ConfigError(
                f"diffusion_length_nm must be >= 0, got {self.diffusion_length_nm}"
            )


# ---------------------------------------------------------------------------
# Technology node / layout synthesis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TechnologyConfig:
    """Technology-node description used by the layout synthesizer.

    Matches the paper's data preparation (Section 3.1): clips are originally
    2x2 um, cropped to 1x1 um around the target contact; the drawn target
    contact is 60x60 nm.
    """

    name: str
    #: drawn contact edge length in nm (the paper uses 60 nm for both nodes)
    contact_size_nm: float
    #: minimum center-to-center contact pitch in nm
    pitch_nm: float
    #: number of clips in the benchmark (982 for N10, 979 for N7)
    num_clips: int
    clip_size_nm: float = 2000.0
    cropped_clip_nm: float = 1000.0
    #: golden resist crop window around the target contact (Section 3.1)
    resist_window_nm: float = 128.0
    #: 1-sigma mask registration (pattern-placement) error per axis, nm.
    #: Every drawn feature lands on the reticle with this much jitter; the
    #: resist window stays anchored at the *ideal* target position, so the
    #: printed pattern's center inherits the jitter — the displacement the
    #: LithoGAN center CNN learns to predict.
    registration_sigma_nm: float = 3.0

    def __post_init__(self) -> None:
        if self.contact_size_nm <= 0:
            raise ConfigError("contact_size_nm must be positive")
        if self.registration_sigma_nm < 0:
            raise ConfigError("registration_sigma_nm must be >= 0")
        if self.pitch_nm <= self.contact_size_nm:
            raise ConfigError(
                f"pitch ({self.pitch_nm}) must exceed contact size "
                f"({self.contact_size_nm})"
            )
        if self.cropped_clip_nm > self.clip_size_nm:
            raise ConfigError("cropped clip cannot exceed the original clip")
        if self.resist_window_nm <= self.contact_size_nm:
            raise ConfigError(
                "resist window must be larger than the contact itself"
            )
        if self.num_clips < 1:
            raise ConfigError("num_clips must be >= 1")

    @property
    def half_pitch_nm(self) -> float:
        """Contact half-pitch; 10% of this is the paper's CD error budget."""
        return self.pitch_nm / 2.0


# ---------------------------------------------------------------------------
# Image encoding (Section 3.1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImageConfig:
    """Pixel geometry of the paired training images.

    The paper renders the 1x1 um cropped mask clip to a 256x256 RGB image and
    the 128x128 nm golden resist window to a 256x256 monochrome image (so one
    mispredicted pixel costs ~0.5 nm of contour error).
    """

    mask_image_px: int = 256
    resist_image_px: int = 256

    def __post_init__(self) -> None:
        for name in ("mask_image_px", "resist_image_px"):
            value = getattr(self, name)
            if value < 8 or value & (value - 1):
                raise ConfigError(f"{name} must be a power of two >= 8, got {value}")

    def mask_nm_per_px(self, tech: TechnologyConfig) -> float:
        return tech.cropped_clip_nm / self.mask_image_px

    def resist_nm_per_px(self, tech: TechnologyConfig) -> float:
        return tech.resist_window_nm / self.resist_image_px


# ---------------------------------------------------------------------------
# Network architecture (Tables 1 and 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelConfig:
    """Parametric description of the Table 1 / Table 2 architectures.

    At ``image_size=256`` and ``base_filters=64`` the generated layer stacks
    match the paper's tables exactly (verified by unit test); smaller sizes
    shrink depth/width while preserving the topology.
    """

    image_size: int = 256
    mask_channels: int = 3
    resist_channels: int = 3
    base_filters: int = 64
    #: channel progression cap: widths are min(base * 2**i, base * cap_mult)
    cap_mult: int = 8
    kernel_size: int = 5
    #: number of decoder layers that get dropout (the paper uses 2)
    decoder_dropout_layers: int = 2
    dropout_rate: float = 0.5
    #: dropout rate of the auxiliary regression CNNs (Table 2 includes the
    #: layer but not its rate; heavy dropout prevents the small-data
    #: regression from fitting at reduced scale, so presets lower it)
    aux_dropout_rate: float = 0.5
    leaky_slope: float = 0.2
    #: center-CNN widths (Table 2)
    center_first_filters: int = 32
    center_filters: int = 64
    center_fc_units: int = 64

    def __post_init__(self) -> None:
        if self.image_size < 8 or self.image_size & (self.image_size - 1):
            raise ConfigError(
                f"image_size must be a power of two >= 8, got {self.image_size}"
            )
        if self.base_filters < 1:
            raise ConfigError("base_filters must be >= 1")
        if not 0 <= self.dropout_rate < 1:
            raise ConfigError("dropout_rate must lie in [0, 1)")
        if not 0 <= self.aux_dropout_rate < 1:
            raise ConfigError("aux_dropout_rate must lie in [0, 1)")

    @property
    def num_downsamples(self) -> int:
        """Stride-2 encoder stages needed to reach a 1x1 bottleneck."""
        return int(math.log2(self.image_size))

    def encoder_widths(self) -> Tuple[int, ...]:
        cap = self.base_filters * self.cap_mult
        return tuple(
            min(self.base_filters * (2**i), cap) for i in range(self.num_downsamples)
        )

    def decoder_widths(self) -> Tuple[int, ...]:
        """Widths of the decoder deconvs, excluding the final output layer."""
        return tuple(reversed(self.encoder_widths()))[1:]


# ---------------------------------------------------------------------------
# Training (Section 4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainingConfig:
    """Optimization hyper-parameters from Section 4 of the paper."""

    epochs: int = 80
    batch_size: int = 4
    learning_rate: float = 2e-4
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999
    lambda_l1: float = 100.0
    train_fraction: float = 0.75
    seed: int = 0
    #: expand the training set with dihedral-4 transforms before fitting
    augment: bool = False
    #: epochs for the auxiliary regressors (center CNN, threshold CNN); they
    #: are far cheaper per epoch than the CGAN, so they get more of them
    aux_epochs: int = 80
    #: epochs at which Figure 8 snapshots are taken (subset actually used)
    snapshot_epochs: Tuple[int, ...] = (1, 3, 5, 7, 15, 27, 50, 80)

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not 0 < self.train_fraction < 1:
            raise ConfigError("train_fraction must lie in (0, 1)")
        if self.aux_epochs < 1:
            raise ConfigError("aux_epochs must be >= 1")
        if not 0 <= self.adam_beta1 < 1 or not 0 <= self.adam_beta2 < 1:
            raise ConfigError("Adam betas must lie in [0, 1)")


# ---------------------------------------------------------------------------
# Fault tolerance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryConfig:
    """Fault-tolerance knobs: checkpoint cadence/retention and divergence
    recovery.

    ``checkpoint_every`` sets the epoch cadence of on-disk snapshots;
    retention keeps the last ``keep_last`` checkpoints plus (with
    ``keep_best``) the lowest-loss one.  When training hits a non-finite
    loss, the :class:`~repro.runtime.RecoveryPolicy` rolls back to the last
    good state, multiplies the learning rate by ``lr_backoff`` (never below
    ``min_learning_rate``), and retries up to ``max_retries`` consecutive
    times before giving up.
    """

    checkpoint_every: int = 1
    keep_last: int = 3
    keep_best: bool = True
    max_retries: int = 2
    lr_backoff: float = 0.5
    min_learning_rate: float = 1e-7

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ConfigError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.keep_last < 1:
            raise ConfigError(f"keep_last must be >= 1, got {self.keep_last}")
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if not 0 < self.lr_backoff <= 1:
            raise ConfigError(
                f"lr_backoff must lie in (0, 1], got {self.lr_backoff}"
            )
        if self.min_learning_rate <= 0:
            raise ConfigError(
                "min_learning_rate must be positive, got "
                f"{self.min_learning_rate}"
            )


# ---------------------------------------------------------------------------
# Data integrity
# ---------------------------------------------------------------------------

#: load-time dataset policies, in increasing order of intervention
DATA_POLICY_NONE = "none"
DATA_POLICY_STRICT = "strict"
DATA_POLICY_SALVAGE = "salvage"
DATA_POLICY_REPAIR = "repair"
DATA_POLICIES = (
    DATA_POLICY_NONE, DATA_POLICY_STRICT, DATA_POLICY_SALVAGE,
    DATA_POLICY_REPAIR,
)


@dataclass(frozen=True)
class DataIntegrityConfig:
    """Self-healing data-layer knobs: validation and quarantine.

    The load-time posture is not a config field: each load picks one of
    :data:`DATA_POLICIES` (``load_dataset(policy=)``, the CLI's
    ``--data-policy``).  ``center_tolerance_px`` bounds how far a stored
    center label may drift from the recomputed bounding-box center of its
    golden window before the record is flagged; the geometric plausibility
    bounds themselves are shared with serving (see
    :class:`~repro.serving.GeometryBounds`).
    """

    center_tolerance_px: float = 1.0
    #: records a salvage pass must leave behind for training to proceed
    min_salvaged_records: int = 2

    def __post_init__(self) -> None:
        if self.center_tolerance_px <= 0:
            raise ConfigError(
                "center_tolerance_px must be positive, got "
                f"{self.center_tolerance_px}"
            )
        if self.min_salvaged_records < 1:
            raise ConfigError(
                "min_salvaged_records must be >= 1, got "
                f"{self.min_salvaged_records}"
            )


# ---------------------------------------------------------------------------
# Parallel execution
# ---------------------------------------------------------------------------

#: worker-pool backends: ``auto`` resolves to ``serial`` for one worker and
#: ``process`` otherwise; ``thread`` exists for shared-memory fan-outs
#: (serving) where pickling the model would dominate.
PARALLEL_BACKENDS = ("auto", "serial", "thread", "process")


@dataclass(frozen=True)
class ParallelConfig:
    """Deterministic fan-out knobs: worker count, backend, kernel cache.

    ``workers`` is the default fan-out width for synthesis/repair/serving
    (the CLI's ``--workers`` flag wins).  ``backend`` selects the
    :class:`~repro.runtime.parallel.WorkerPool` execution strategy;
    ``chunk_size`` caps how many items one shard carries (``None`` =
    near-even split across workers).  ``timeout_s`` bounds how long the
    parent waits on any single shard before converting the stall into a
    :class:`~repro.errors.ParallelError` (never a hang).

    The kernel-cache fields govern the content-addressed on-disk cache of
    TCC/SOCS decompositions (see :mod:`repro.optics.cache`):
    ``kernel_cache`` switches it off entirely, ``kernel_cache_dir``
    overrides the default location (``$REPRO_KERNEL_CACHE_DIR`` or
    ``~/.cache/repro-litho/kernels``), and ``kernel_cache_entries`` bounds
    retention (oldest entries beyond the bound are evicted on store).
    """

    workers: int = 1
    backend: str = "auto"
    chunk_size: Optional[int] = None
    timeout_s: float = 300.0
    kernel_cache: bool = True
    kernel_cache_dir: Optional[str] = None
    kernel_cache_entries: int = 32

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.backend not in PARALLEL_BACKENDS:
            raise ConfigError(
                f"backend must be one of {PARALLEL_BACKENDS}, "
                f"got {self.backend!r}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigError(
                f"chunk_size must be >= 1 or None, got {self.chunk_size}"
            )
        if self.timeout_s <= 0:
            raise ConfigError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )
        if self.kernel_cache_entries < 1:
            raise ConfigError(
                "kernel_cache_entries must be >= 1, got "
                f"{self.kernel_cache_entries}"
            )


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServingConfig:
    """Hardened-inference knobs: admission, output guards, degradation.

    The guard bounds are *ratios against the technology node*: a generated
    resist window is plausible when its area lies within
    ``[min_area_ratio, max_area_ratio]`` times the drawn contact area and its
    bounding-box CD within ``[min_cd_ratio, max_cd_ratio]`` times the drawn
    contact size (both converted to pixels through the image geometry), its
    bounding-box center lands within ``center_tolerance_px`` of the
    CNN-predicted center, and it consists of at most ``max_components``
    connected components.  Deliberately permissive: the guard exists to catch
    *degenerate* GAN outputs (empty, shattered, absurdly sized, misplaced),
    not mild blur — golden simulator windows must always pass.

    ``queue_capacity`` bounds how many admitted clips one batch may carry
    (backpressure: overflow clips are rejected with ``overload``);
    ``micro_batch`` sets the generator forward-pass width, and so also the
    most requests the serving loop takes into one batch.  ``deadline_s``
    is the default per-batch deadline (None = no deadline): once exceeded,
    degenerate outputs are served best-effort instead of entering the
    retry/fallback ladder.  The circuit breaker trips to simulator-only
    mode after ``breaker_threshold`` consecutive clip-level guard failures
    and half-opens a model probe after ``breaker_probe_after`` further
    clips.
    """

    queue_capacity: int = 256
    micro_batch: int = 8
    deadline_s: Optional[float] = None
    fallback_enabled: bool = True
    #: alternative binarization thresholds tried on a degenerate output
    retry_thresholds: Tuple[float, ...] = (0.35, 0.65)
    min_area_ratio: float = 0.2
    max_area_ratio: float = 6.0
    min_cd_ratio: float = 0.3
    max_cd_ratio: float = 3.0
    center_tolerance_px: float = 3.0
    max_components: int = 1
    breaker_threshold: int = 3
    breaker_probe_after: int = 8

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.micro_batch < 1:
            raise ConfigError(
                f"micro_batch must be >= 1, got {self.micro_batch}"
            )
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ConfigError(
                f"deadline_s must be >= 0 or None, got {self.deadline_s}"
            )
        for threshold in self.retry_thresholds:
            if not 0 < threshold < 1:
                raise ConfigError(
                    f"retry thresholds must lie in (0, 1), got {threshold}"
                )
        if not 0 < self.min_area_ratio < self.max_area_ratio:
            raise ConfigError(
                "area ratios must satisfy 0 < min < max, got "
                f"({self.min_area_ratio}, {self.max_area_ratio})"
            )
        if not 0 < self.min_cd_ratio < self.max_cd_ratio:
            raise ConfigError(
                "CD ratios must satisfy 0 < min < max, got "
                f"({self.min_cd_ratio}, {self.max_cd_ratio})"
            )
        if self.center_tolerance_px <= 0:
            raise ConfigError(
                "center_tolerance_px must be positive, got "
                f"{self.center_tolerance_px}"
            )
        if self.max_components < 1:
            raise ConfigError(
                f"max_components must be >= 1, got {self.max_components}"
            )
        if self.breaker_threshold < 1:
            raise ConfigError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_probe_after < 1:
            raise ConfigError(
                "breaker_probe_after must be >= 1, got "
                f"{self.breaker_probe_after}"
            )


@dataclass(frozen=True)
class ServerConfig:
    """Continuous-batching serving-loop knobs (the long-lived server).

    Requests queue on a bounded FIFO of ``queue_capacity`` slots.  Whenever
    the executor is free, the batcher takes whatever is queued, up to
    ``ServingConfig.micro_batch`` requests, as one forward batch.

    ``default_deadline_s`` is attached to requests that do not carry their
    own deadline (None = no deadline).  ``watchdog_s`` bounds how long the
    executor may go without completing a batch while work is pending
    before the watchdog declares it wedged and fails every in-flight and
    queued request with a typed overload answer.  ``drain_timeout_s``
    bounds shutdown: requests still queued when it expires are shed with a
    ``shutdown`` answer rather than left dangling.
    """

    queue_capacity: int = 64
    default_deadline_s: Optional[float] = None
    watchdog_s: float = 10.0
    drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.default_deadline_s is not None and self.default_deadline_s < 0:
            raise ConfigError(
                "default_deadline_s must be >= 0 or None, got "
                f"{self.default_deadline_s}"
            )
        if self.watchdog_s <= 0:
            raise ConfigError(
                f"watchdog_s must be > 0, got {self.watchdog_s}"
            )
        if self.drain_timeout_s <= 0:
            raise ConfigError(
                f"drain_timeout_s must be > 0, got {self.drain_timeout_s}"
            )


# ---------------------------------------------------------------------------
# Model registry / rollout
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegistryConfig:
    """Model-registry location and canary-rollout policy.

    ``root`` is the on-disk registry directory (None = no registry
    configured; the CLI's ``--registry`` flag wins).  The rollout knobs
    govern the serving loop's canary mode: ``canary_fraction`` of requests
    route to the candidate model, each slot's degenerate-verdict/fallback
    rate is tracked over a sliding window of the last ``window`` served
    clips, and once both slots have at least ``min_samples`` clips the
    candidate is automatically rolled back when its bad rate exceeds the
    incumbent's by more than ``rollback_margin``.
    """

    root: Optional[str] = None
    canary_fraction: float = 0.1
    window: int = 64
    min_samples: int = 16
    rollback_margin: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 < self.canary_fraction <= 1.0:
            raise ConfigError(
                "canary_fraction must be in (0, 1], got "
                f"{self.canary_fraction}"
            )
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.min_samples < 1:
            raise ConfigError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )
        if self.min_samples > self.window:
            raise ConfigError(
                "min_samples must fit in the sliding window "
                f"({self.min_samples} > {self.window})"
            )
        if not 0.0 <= self.rollback_margin < 1.0:
            raise ConfigError(
                "rollback_margin must be in [0, 1), got "
                f"{self.rollback_margin}"
            )


# ---------------------------------------------------------------------------
# Sweep orchestration
# ---------------------------------------------------------------------------

#: how a sweep trial is executed under its supervisor: ``none`` runs it in
#: the orchestrator's own thread (no preemption, so no timeouts), ``thread``
#: and ``process`` run it through a one-task :class:`~repro.runtime.parallel.
#: WorkerPool` whose per-task timeout can kill a hung trial.
SWEEP_ISOLATIONS = ("none", "thread", "process")


@dataclass(frozen=True)
class SweepConfig:
    """Multi-trial sweep supervision knobs (see :mod:`repro.sweep`).

    ``trial_timeout_s`` bounds one trial attempt's wall clock (``None`` = no
    bound; requires ``thread`` or ``process`` isolation, because an
    in-thread trial cannot be preempted).  A failed attempt — divergence,
    worker death, or timeout — is retried up to ``max_retries`` times on a
    deterministic exponential backoff (``retry_delay_s`` doubling by
    ``retry_factor`` up to ``retry_max_delay_s``; see
    :class:`~repro.runtime.retry.RetrySchedule`).  A trial whose retries are
    exhausted is marked failed; once more than ``max_failed_trials`` trials
    have failed the sweep itself fails closed with a
    :class:`~repro.errors.SweepError` naming the failed trial digests.
    These knobs steer supervision only — they are excluded from the trial
    config digest, so tightening a budget never changes trial identity.
    """

    trial_timeout_s: Optional[float] = None
    max_retries: int = 1
    retry_delay_s: float = 0.25
    retry_factor: float = 2.0
    retry_max_delay_s: float = 30.0
    max_failed_trials: int = 0
    isolation: str = "none"

    def __post_init__(self) -> None:
        if self.trial_timeout_s is not None and self.trial_timeout_s <= 0:
            raise ConfigError(
                "trial_timeout_s must be positive or None, got "
                f"{self.trial_timeout_s}"
            )
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_delay_s < 0:
            raise ConfigError(
                f"retry_delay_s must be >= 0, got {self.retry_delay_s}"
            )
        if self.retry_factor < 1.0:
            raise ConfigError(
                f"retry_factor must be >= 1, got {self.retry_factor}"
            )
        if self.retry_max_delay_s < self.retry_delay_s:
            raise ConfigError(
                f"retry_max_delay_s ({self.retry_max_delay_s}) must be >= "
                f"retry_delay_s ({self.retry_delay_s})"
            )
        if self.max_failed_trials < 0:
            raise ConfigError(
                f"max_failed_trials must be >= 0, got {self.max_failed_trials}"
            )
        if self.isolation not in SWEEP_ISOLATIONS:
            raise ConfigError(
                f"isolation must be one of {SWEEP_ISOLATIONS}, "
                f"got {self.isolation!r}"
            )
        if self.trial_timeout_s is not None and self.isolation == "none":
            raise ConfigError(
                "trial_timeout_s requires 'thread' or 'process' isolation "
                "(an in-thread trial cannot be preempted)"
            )


# ---------------------------------------------------------------------------
# Inverse lithography (ILT)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IltConfig:
    """Gradient-based mask optimization knobs (see :mod:`repro.ilt`).

    The optimizer treats the trained generator as a differentiable forward
    proxy: the GREEN (target) mask channel is parameterized as
    ``sigmoid(steepness * theta)`` and descended with momentum through
    :meth:`repro.nn.Sequential.input_gradient`.  ``steepness`` anneals from
    ``steepness_start`` to ``steepness_end`` over the run, pushing the
    continuous mask toward a manufacturable near-binary one whose residual
    gray pixels encode sub-pixel edge placement.  Every ``verify_every``
    steps (and at the end) the annealed candidate is re-simulated through
    the rigorous pipeline — the proxy never gets the final word — and the
    best *verified* candidate is reported.

    ``learning_rate`` is in theta units per step: the descent max-normalizes
    each gradient before the momentum update, so the step size is
    independent of the proxy loss scale.
    """

    steps: int = 40
    learning_rate: float = 0.25
    momentum: float = 0.9
    steepness_start: float = 4.0
    steepness_end: float = 16.0
    verify_every: int = 8
    #: verify with the rigorous (per-focus-plane) simulator instead of the
    #: compact one; far slower, same fail-closed contract
    rigorous: bool = False

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.learning_rate <= 0:
            raise ConfigError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if not 0 <= self.momentum < 1:
            raise ConfigError(
                f"momentum must lie in [0, 1), got {self.momentum}"
            )
        if self.steepness_start <= 0:
            raise ConfigError(
                f"steepness_start must be positive, got {self.steepness_start}"
            )
        if self.steepness_end < self.steepness_start:
            raise ConfigError(
                f"steepness_end ({self.steepness_end}) must be >= "
                f"steepness_start ({self.steepness_start})"
            )
        if self.verify_every < 1:
            raise ConfigError(
                f"verify_every must be >= 1, got {self.verify_every}"
            )


# ---------------------------------------------------------------------------
# Bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to mint a dataset, train, and evaluate one node."""

    tech: TechnologyConfig
    optical: OpticalConfig = field(default_factory=OpticalConfig)
    resist: ResistConfig = field(default_factory=ResistConfig)
    image: ImageConfig = field(default_factory=ImageConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    data: DataIntegrityConfig = field(default_factory=DataIntegrityConfig)
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    registry: RegistryConfig = field(default_factory=RegistryConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    ilt: IltConfig = field(default_factory=IltConfig)

    def __post_init__(self) -> None:
        if self.model.image_size != self.image.mask_image_px:
            raise ConfigError(
                "model.image_size must equal image.mask_image_px "
                f"({self.model.image_size} != {self.image.mask_image_px})"
            )
        if self.image.mask_image_px != self.image.resist_image_px:
            raise ConfigError(
                "mask and resist images must share a resolution for the CGAN"
            )

    def replace(self, **kwargs) -> "ExperimentConfig":
        """Return a copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)


# ---------------------------------------------------------------------------
# Named technology nodes
# ---------------------------------------------------------------------------

N10 = TechnologyConfig(
    name="N10", contact_size_nm=60.0, pitch_nm=128.0, num_clips=982
)
N7 = TechnologyConfig(
    name="N7", contact_size_nm=60.0, pitch_nm=108.0, num_clips=979
)


def _scaled(tech: TechnologyConfig, *, image_px: int, base_filters: int,
            epochs: int, num_clips: int, grid_size: int,
            num_kernels: int, batch_size: int, seed: int,
            aux_epochs: int = None) -> ExperimentConfig:
    return ExperimentConfig(
        tech=dataclasses.replace(tech, num_clips=num_clips),
        optical=OpticalConfig(grid_size=grid_size, num_kernels=num_kernels),
        resist=ResistConfig(),
        image=ImageConfig(mask_image_px=image_px, resist_image_px=image_px),
        model=ModelConfig(
            image_size=image_px,
            base_filters=base_filters,
            aux_dropout_rate=0.5 if image_px >= 256 else 0.1,
        ),
        training=TrainingConfig(
            epochs=epochs,
            batch_size=batch_size,
            seed=seed,
            aux_epochs=aux_epochs if aux_epochs is not None else max(epochs, 60),
            snapshot_epochs=tuple(
                e for e in (1, 3, 5, 7, 15, 27, 50, 80) if e <= epochs
            ),
        ),
    )


def paper_n10() -> ExperimentConfig:
    """Exact paper-scale N10 experiment (Section 4)."""
    return _scaled(
        N10, image_px=256, base_filters=64, epochs=80, num_clips=982,
        grid_size=128, num_kernels=12, batch_size=4, seed=0,
    )


def paper_n7() -> ExperimentConfig:
    """Exact paper-scale N7 experiment (Section 4)."""
    return _scaled(
        N7, image_px=256, base_filters=64, epochs=80, num_clips=979,
        grid_size=128, num_kernels=12, batch_size=4, seed=0,
    )


def reduced(tech: TechnologyConfig = N10, *, num_clips: int = 160,
            epochs: int = 12, seed: int = 0) -> ExperimentConfig:
    """Benchmark-harness scale: same code paths, minutes on a CPU."""
    return _scaled(
        tech, image_px=64, base_filters=16, epochs=epochs,
        num_clips=num_clips, grid_size=64, num_kernels=6,
        batch_size=4, seed=seed,
    )


def tiny(tech: TechnologyConfig = N10, *, num_clips: int = 12,
         epochs: int = 1, seed: int = 0) -> ExperimentConfig:
    """Unit-test scale."""
    return _scaled(
        tech, image_px=32, base_filters=4, epochs=epochs,
        num_clips=num_clips, grid_size=32, num_kernels=4,
        batch_size=2, seed=seed, aux_epochs=max(epochs, 4),
    )
