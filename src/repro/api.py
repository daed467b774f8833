"""``repro.api`` — the stable high-level façade over the reproduction.

One flat namespace covering the five workflows a downstream user actually
runs, so nobody has to know which subpackage owns which moving part:

``mint``
    Synthesize a paired dataset through the rigorous pipeline (optionally
    fanned out over a deterministic :class:`~repro.runtime.parallel.WorkerPool`)
    and optionally save it with its integrity manifest.
``load_data``
    Load a saved dataset under an integrity policy (``strict`` / ``salvage``
    / ``repair``), with the same fail-closed semantics as the CLI.
``train``
    Split, train LithoGAN (checkpoints / resume / recovery / fault drills),
    and optionally save the weight directory.
``evaluate``
    Score a model (object or weight directory) on the held-out split and
    return the Table 3-style row.
``serve``
    Hardened batch inference through :class:`~repro.serving.InferenceService`
    under an explicit serving ``policy``.
``serve_loop``
    The long-lived continuous-batching server
    (:class:`~repro.serving.InferenceServer`): asynchronous submission,
    per-tenant fair shedding, deadlines, a wedge watchdog, and
    drain-on-shutdown.  Returned started; use as a context manager.
``process_window``
    Dose/defocus sweep of one synthesized clip.
``optimize_mask``
    Inverse lithography (:mod:`repro.ilt`): gradient-descend the target
    mask through the trained generator's inference gradient path, verify
    every reported candidate with the rigorous simulator, and compare EPE
    against the unoptimized and rule-OPC baselines.
``load_model`` / ``save_model``
    Fail-closed weight restore (:class:`~repro.errors.CheckpointError` on any
    damage) and the matching writer.
``publish_model`` / ``promote`` / ``rollback`` / ``resolve_model``
    The versioned model registry (:mod:`repro.registry`): atomic manifested
    publication, pointer promotion with history, one-step rollback, and
    fail-closed resolution of ``name@version`` refs into served models.
``run_sweep``
    Journaled, resumable multi-trial sweeps (:mod:`repro.sweep`): a base
    config plus a parameter grid, executed under per-trial supervision
    (timeouts, typed retries, a fail-closed failure budget) with an
    append-only journal so a killed sweep resumes without re-running
    completed trials.
``report``
    Correlate a run's event log, merged trace, metrics snapshot, and layer
    profile into a :class:`~repro.telemetry.report.RunReport` (the engine
    behind ``repro-litho report``).

``train`` / ``evaluate`` / ``serve`` / ``optimize_mask`` additionally
accept a ``profiler`` (:class:`~repro.telemetry.profile.LayerProfiler`):
the model's three networks report every layer step to it for the duration
of the call, and the caller reads ``profiler.report()`` afterwards.  No
profiler, no clock reads.

Design rules: configuration objects are the first positional argument,
everything optional is keyword-only, and every function either returns a
small frozen result dataclass or the domain object itself.  The result
dataclasses share one contract (:class:`ApiResult`): ``summary()`` is the
JSON-ready dict and ``to_json()`` its canonical serialization, which is
what every CLI ``--report`` path writes.  The CLI's subcommands are thin
shells over exactly these functions — anything the CLI can do, a script
can do with one call.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .config import (
    DATA_POLICY_REPAIR,
    DATA_POLICY_SALVAGE,
    DATA_POLICY_STRICT,
    ExperimentConfig,
    ServingConfig,
)
from .core import LithoGan, LithoGanHistory
from .data import (
    DatasetValidator,
    PairedDataset,
    load_dataset,
    load_manifest,
    repair_dataset,
    save_dataset,
    synthesize_dataset,
)
from .data.integrity import strict_check
from .errors import CheckpointError, ConfigError, DataIntegrityError
from .eval import EvaluationSummary, evaluate_predictions, table3_row_dict
from .optics.cache import configure_kernel_cache
from .registry import (
    ModelRegistry,
    RegistryEntry,
    degrade_weights,
    parse_model_ref,
)
from .runtime import CheckpointManager, RecoveryPolicy
from .runtime.atomic import read_npz
from .sweep import SweepResult, SweepSpec, SweepSupervisor, TrialResult
from .telemetry.profile import profiled
from .telemetry.report import RunReport, build_report

__all__ = [
    "ApiResult",
    "EvalResult",
    "MintResult",
    "OptimizeResult",
    "RunReport",
    "SweepResult",
    "TrainResult",
    "TrialResult",
    "evaluate",
    "load_data",
    "load_model",
    "mint",
    "optimize_mask",
    "process_window",
    "promote",
    "publish_model",
    "report",
    "resolve_model",
    "rollback",
    "run_sweep",
    "save_model",
    "serve",
    "serve_loop",
    "train",
]

_UNSET = object()


def _model_profiled(profiler, model: "LithoGan"):
    """Attach ``profiler`` to all three LithoGAN networks for a block."""
    if profiler is None:
        return nullcontext()
    return profiled(
        profiler,
        model.cgan.generator, model.cgan.discriminator, model.center_cnn,
    )


# ---------------------------------------------------------------------------
# Result types
# ---------------------------------------------------------------------------


class ApiResult:
    """Common contract of every façade result type.

    Subclasses implement :meth:`summary`, a flat JSON-ready dict that leads
    with a ``"type"`` tag naming the producing workflow; :meth:`to_json`
    renders it canonically (sorted keys, trailing newline) and is the one
    serialization every CLI ``--report`` path writes, so per-command report
    formats cannot drift apart.
    """

    def summary(self) -> dict:
        """JSON-ready summary of this result; implemented per subclass."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement summary()"
        )

    def to_json(self, indent: int = 2) -> str:
        """Canonical JSON rendering of :meth:`summary`."""
        return json.dumps(self.summary(), indent=indent, sort_keys=True) + "\n"


@dataclasses.dataclass(frozen=True)
class MintResult(ApiResult):
    """What :func:`mint` produced: the dataset, and where it was saved."""

    dataset: PairedDataset
    path: Optional[Path] = None

    def __len__(self) -> int:
        return len(self.dataset)

    def summary(self) -> dict:
        """Sample count, resolution, and destination of the minted set."""
        return {
            "type": "mint",
            "samples": len(self.dataset),
            "image_size": self.dataset.image_size,
            "path": None if self.path is None else str(self.path),
        }


@dataclasses.dataclass(frozen=True)
class TrainResult(ApiResult):
    """What :func:`train` produced: the fitted model, history, and split."""

    model: LithoGan
    history: LithoGanHistory
    train_set: PairedDataset
    test_set: PairedDataset
    out_dir: Optional[Path] = None

    def summary(self) -> dict:
        """Epochs, final losses, split sizes, and the weight directory."""
        cgan = self.history.cgan
        return {
            "type": "train",
            "epochs": cgan.epochs_trained,
            "final_l1_loss": cgan.l1_loss[-1] if cgan.l1_loss else None,
            "final_generator_loss": (
                cgan.generator_loss[-1] if cgan.generator_loss else None
            ),
            "train_samples": len(self.train_set),
            "test_samples": len(self.test_set),
            "out_dir": None if self.out_dir is None else str(self.out_dir),
        }


@dataclasses.dataclass(frozen=True)
class EvalResult(ApiResult):
    """What :func:`evaluate` produced: the Table 3 row and its inputs.

    The full :class:`~repro.eval.EvaluationSummary` lives on
    ``summary_stats`` (the :meth:`ApiResult.summary` method owns the
    ``summary`` name under the unified result contract).
    """

    row: dict
    summary_stats: EvaluationSummary = dataclasses.field(repr=False)
    samples: int = 0

    def summary(self) -> dict:
        """The Table 3 row plus the scored sample count."""
        return {"type": "eval", "samples": self.samples, **self.row}


@dataclasses.dataclass(frozen=True)
class OptimizeResult(ApiResult):
    """What :func:`optimize_mask` produced: per-clip ILT outcomes.

    Every ``best`` mask inside ``outcomes`` is simulator-verified — the
    generator proxy never gets the final word.  The headline numbers are
    means over clips, with an unprintable mask charged half the resist
    window (see :meth:`repro.ilt.Verification.epe_capped`).
    """

    outcomes: tuple
    steps: int
    verifications: int
    process_windows: Optional[dict] = None

    @property
    def clips(self) -> int:
        """Number of clips optimized."""
        return len(self.outcomes)

    @property
    def epe_ilt_nm(self) -> float:
        """Mean EPE of the best verified masks, nm."""
        return float(np.mean([o.epe_ilt_nm for o in self.outcomes]))

    @property
    def epe_unoptimized_nm(self) -> float:
        """Mean EPE of the drawn (no-RET) masks, nm."""
        return float(np.mean([o.epe_unoptimized_nm for o in self.outcomes]))

    @property
    def epe_rule_opc_nm(self) -> float:
        """Mean EPE of the rule-based SRAF+OPC masks, nm."""
        return float(np.mean([o.epe_rule_opc_nm for o in self.outcomes]))

    @property
    def improved_vs_unoptimized(self) -> bool:
        """Mean EPE strictly below the unoptimized baseline."""
        return self.epe_ilt_nm < self.epe_unoptimized_nm

    @property
    def improved_vs_rule_opc(self) -> bool:
        """Mean EPE no worse than rule OPC (the descent's starting point)."""
        return self.epe_ilt_nm <= self.epe_rule_opc_nm

    def summary(self) -> dict:
        """Headline EPE comparison plus per-clip records."""
        payload = {
            "type": "optimize",
            "clips": self.clips,
            "steps": self.steps,
            "verifications": self.verifications,
            "epe_ilt_nm": round(self.epe_ilt_nm, 4),
            "epe_unoptimized_nm": round(self.epe_unoptimized_nm, 4),
            "epe_rule_opc_nm": round(self.epe_rule_opc_nm, 4),
            "improved_vs_unoptimized": self.improved_vs_unoptimized,
            "improved_vs_rule_opc": self.improved_vs_rule_opc,
            "per_clip": [o.summary() for o in self.outcomes],
        }
        if self.process_windows is not None:
            payload["process_windows"] = self.process_windows
        return payload


# ---------------------------------------------------------------------------
# Dataset synthesis and loading
# ---------------------------------------------------------------------------


def mint(config: ExperimentConfig, *,
         workers: Optional[int] = None,
         out: Optional[Union[str, Path]] = None,
         resist_model: str = "vtr",
         model_based_opc: bool = False,
         rng: Optional[np.random.Generator] = None,
         tracer=None, faults=None, hook=None, registry=None) -> MintResult:
    """Synthesize ``config.tech.num_clips`` paired samples, optionally saving.

    ``workers`` (default ``config.parallel.workers``) fans the synthesis out
    over a deterministic :class:`~repro.runtime.parallel.WorkerPool`; the
    result — and the saved archive's bytes — are identical for every worker
    count.  ``out`` writes the archive plus its integrity manifest via
    :func:`~repro.data.io.save_dataset`.
    """
    configure_kernel_cache(config.parallel)
    dataset = synthesize_dataset(
        config, rng=rng, resist_model=resist_model,
        model_based_opc=model_based_opc, tracer=tracer,
        workers=workers, faults=faults, hook=hook, registry=registry,
    )
    path = save_dataset(dataset, out) if out is not None else None
    return MintResult(dataset=dataset, path=path)


def load_data(path: Union[str, Path],
              config: Union[ExperimentConfig, Callable, None] = None, *,
              policy: Optional[str] = None,
              tracer=None,
              on_report: Optional[Callable] = None,
              on_repair: Optional[Callable] = None,
              progress: Optional[Callable] = None) -> PairedDataset:
    """Load a saved dataset, optionally enforcing an integrity ``policy``.

    ``policy=None`` is a plain archive-level load.  Otherwise the dataset is
    validated against its manifest sidecar and ``config``'s golden bounds:

    ``"strict"``
        Raise :class:`~repro.errors.DataIntegrityError` if any record is
        quarantined.
    ``"salvage"``
        Return the verified subset; fail closed below
        ``config.data.min_salvaged_records``.
    ``"repair"``
        Re-synthesize quarantined records from manifest provenance (fanned
        out per ``config.parallel``) and return the healed, reloaded dataset.

    ``config`` may also be a callable ``num_records -> ExperimentConfig``,
    for callers who size the config from the dataset they are loading.
    ``on_report(report)`` fires after validation (before any policy action,
    so it sees reports that are about to fail closed); ``on_repair(report)``
    fires after a successful repair; ``progress(message, warn=False)``
    receives the human-readable narration the CLI prints.
    """
    dataset = load_dataset(path)
    if policy is None:
        return dataset
    if config is None:
        raise ConfigError(
            f"load_data(policy={policy!r}) requires an ExperimentConfig "
            "to derive validation bounds from"
        )
    if callable(config):
        config = config(len(dataset))

    def _say(message: str, warn: bool = False) -> None:
        if progress is not None:
            progress(message, warn=warn)

    manifest = load_manifest(path)
    if manifest is None:
        _say(
            f"warning: no integrity manifest beside {path}; "
            "only structural validation is possible",
            warn=True,
        )
    report = DatasetValidator(config).validate(dataset, manifest)
    if on_report is not None:
        on_report(report)
    _say(f"data integrity ({policy}): {report.summary()}")
    if policy == DATA_POLICY_STRICT:
        strict_check(report, source=str(path))
        return dataset
    if policy == DATA_POLICY_SALVAGE:
        if report.ok:
            return dataset
        clean = np.array(report.clean_indices, dtype=int)
        if len(clean) < config.data.min_salvaged_records:
            raise DataIntegrityError(
                f"salvage would leave only {len(clean)} of "
                f"{report.num_records} records, below the configured "
                f"minimum of {config.data.min_salvaged_records}",
                indices=report.quarantined_indices,
                reasons=[issue.reasons for issue in report.issues],
            )
        _say(
            f"salvaged {len(clean)}/{report.num_records} records "
            f"(quarantined {list(report.quarantined_indices)})"
        )
        return dataset.subset(clean)
    if policy == DATA_POLICY_REPAIR:
        if report.ok:
            return dataset
        configure_kernel_cache(config.parallel)
        repair_report = repair_dataset(path, config, report=report,
                                       tracer=tracer)
        if on_repair is not None:
            on_repair(repair_report)
        _say(
            f"repaired {len(repair_report.repaired_indices)} record(s) by "
            f"deterministic re-synthesis "
            f"(hash-verified: {repair_report.verified_hashes})"
        )
        return load_dataset(path)
    raise ConfigError(f"unknown data policy {policy!r}")


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def train(config: ExperimentConfig, dataset: PairedDataset, *,
          checkpoints: Optional[Union[str, Path, CheckpointManager]] = None,
          resume: bool = False,
          recovery: Union[bool, RecoveryPolicy, None] = None,
          out: Optional[Union[str, Path]] = None,
          faults=None, hook=None, tracer=None,
          profiler=None) -> TrainResult:
    """Split ``dataset``, train LithoGAN, and optionally save the weights.

    ``checkpoints`` accepts either a prepared
    :class:`~repro.runtime.CheckpointManager` or a directory path (one is
    built from ``config.recovery``, which also sets the checkpoint cadence);
    ``recovery=True`` likewise builds a
    :class:`~repro.runtime.RecoveryPolicy` from the config.  ``resume=True``
    restarts bit-exactly from the latest checkpoint.  The split and the
    model share one generator seeded by ``config.training.seed``, so the
    held-out set matches what :func:`evaluate` reconstructs.
    """
    if dataset.image_size != config.model.image_size:
        raise ConfigError(
            f"dataset resolution {dataset.image_size} does not match "
            f"the model resolution {config.model.image_size}"
        )
    configure_kernel_cache(config.parallel)
    rng = np.random.default_rng(config.training.seed)
    train_set, test_set = dataset.split(config.training.train_fraction, rng)
    model = LithoGan(config, rng)
    policy = recovery
    if policy is True:
        policy = RecoveryPolicy(config.recovery)
    elif policy is False:
        policy = None
    with _model_profiled(profiler, model):
        history = model.fit(
            train_set, rng, hook=hook, tracer=tracer,
            checkpoints=checkpoints,
            resume_from=True if resume else None,
            recovery=policy, faults=faults,
        )
    out_dir = None
    if out is not None:
        out_dir = save_model(
            model, history, out,
            seed=config.training.seed, node=config.tech.name,
        )
    return TrainResult(
        model=model, history=history,
        train_set=train_set, test_set=test_set, out_dir=out_dir,
    )


def save_model(model: LithoGan, history: Optional[LithoGanHistory],
               out_dir: Union[str, Path], *,
               seed: Optional[int] = None,
               node: Optional[str] = None) -> Path:
    """Write a LithoGAN weight directory (the layout :func:`load_model` reads).

    Emits ``generator.npz`` / ``discriminator.npz`` / ``center_cnn.npz`` /
    ``center_scaling.npz`` plus, when ``history`` is given, a
    ``history.json`` with per-epoch losses and the run's seed/node stamp.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model.cgan.generator.save(out / "generator.npz")
    model.cgan.discriminator.save(out / "discriminator.npz")
    model.center_cnn.save(out / "center_cnn.npz")
    np.savez(
        out / "center_scaling.npz",
        mean=model._center_mean,
        std=model._center_std,
    )
    if history is not None:
        (out / "history.json").write_text(json.dumps({
            "generator_loss": history.cgan.generator_loss,
            "discriminator_loss": history.cgan.discriminator_loss,
            "l1_loss": history.cgan.l1_loss,
            "epoch_seconds": history.cgan.seconds,
            "center_loss": history.center.loss,
            "center_epoch_seconds": history.center.seconds,
            "seed": seed,
            "node": node,
        }, indent=2))
    return out


def load_model(model_dir: Union[str, Path], config: ExperimentConfig, *,
               seed: Optional[int] = None) -> LithoGan:
    """Restore saved LithoGAN weights, failing closed.

    Every load problem — a missing directory, an absent or truncated weight
    file, a mangled scaling archive — surfaces as a
    :class:`~repro.errors.CheckpointError` naming the offending path (the
    CLI maps it to exit code 3).  A model that cannot be fully restored must
    never serve or score.
    """
    if seed is None:
        seed = config.training.seed
    model = LithoGan(config, np.random.default_rng(seed))
    model_dir = Path(model_dir)
    model.cgan.generator.load(model_dir / "generator.npz")
    model.cgan.discriminator.load(model_dir / "discriminator.npz")
    model.center_cnn.load(model_dir / "center_cnn.npz")
    scaling_path = model_dir / "center_scaling.npz"
    scaling = read_npz(scaling_path, CheckpointError, "weight file")
    mean = scaling.get("mean", np.empty(0))
    std = scaling.get("std", np.empty(0))
    if mean.shape != (2,) or std.shape != (2,):
        raise CheckpointError(
            f"{scaling_path}: center scaling must be two (mean, std) pairs, "
            f"got shapes {mean.shape} and {std.shape}"
        )
    model._center_mean = mean.astype(np.float32)
    model._center_std = std.astype(np.float32)
    return model


# ---------------------------------------------------------------------------
# Model registry
# ---------------------------------------------------------------------------


def _registry_of(registry: Union[str, Path, ModelRegistry, None],
                 config: Optional[ExperimentConfig]) -> ModelRegistry:
    """Resolve a registry argument, falling back to ``config.registry.root``."""
    if isinstance(registry, ModelRegistry):
        return registry
    if registry is None and config is not None:
        registry = config.registry.root
    if registry is None:
        raise ConfigError(
            "no model registry configured: pass registry=<dir> or set "
            "config.registry.root"
        )
    return ModelRegistry(registry)


def publish_model(model: Union[LithoGan, str, Path], name: str, *,
                  registry: Union[str, Path, ModelRegistry, None] = None,
                  config: Optional[ExperimentConfig] = None,
                  history: Optional[LithoGanHistory] = None,
                  metrics: Optional[dict] = None,
                  inject_degenerate: bool = False) -> RegistryEntry:
    """Publish a model into the registry as the next version of ``name``.

    ``model`` may be a fitted :class:`~repro.core.LithoGan` (its weight
    directory is written to a temporary location first) or an existing
    weight directory.  ``config`` stamps the manifest's provenance digest;
    ``metrics`` records training/eval numbers alongside it.
    ``inject_degenerate`` zeroes the generator weights during staging — the
    registry/canary drill's deliberately bad version — without touching the
    source.  Returns the verified :class:`~repro.registry.RegistryEntry`.
    """
    store = _registry_of(registry, config)
    mutate = degrade_weights if inject_degenerate else None
    if isinstance(model, (str, Path)):
        return store.publish(
            name, model, config=config, metrics=metrics, mutate=mutate,
        )
    seed = None if config is None else config.training.seed
    node = None if config is None else config.tech.name
    with tempfile.TemporaryDirectory(prefix="repro-publish-") as staging:
        save_model(model, history, staging, seed=seed, node=node)
        return store.publish(
            name, staging, config=config, metrics=metrics, mutate=mutate,
        )


def promote(ref: str, *,
            registry: Union[str, Path, ModelRegistry, None] = None,
            config: Optional[ExperimentConfig] = None) -> RegistryEntry:
    """Point ``name``'s active pointer at the version in ``name@version``.

    A bare ``name`` (or ``name@latest``) promotes the latest published
    version.  The target is fully verified first; the previous active
    version joins the rollback history.
    """
    store = _registry_of(registry, config)
    name, version = parse_model_ref(ref)
    if version is None:
        version = "latest"
    return store.promote(name, version)


def rollback(name: str, *,
             registry: Union[str, Path, ModelRegistry, None] = None,
             config: Optional[ExperimentConfig] = None) -> tuple:
    """Walk ``name``'s active pointer back one promotion.

    Returns ``(from_version, to_version)``.  The restored version is
    re-verified before the pointer moves; a model with no promotion
    history raises :class:`~repro.errors.RegistryError`.
    """
    store = _registry_of(registry, config)
    return store.rollback(name)


def resolve_model(ref: str, config: ExperimentConfig, *,
                  registry: Union[str, Path, ModelRegistry, None] = None,
                  seed: Optional[int] = None):
    """Resolve ``name[@version|latest]`` to a served model, fail-closed.

    The registry entry is verified (manifest present, every weight file
    re-hashed) and then restored through :func:`load_model`; the result is
    ``(model, entry)``.  Any damage — corrupt manifest, checksum mismatch,
    missing file — raises :class:`~repro.errors.RegistryError` or
    :class:`~repro.errors.CheckpointError` naming the path; a version that
    cannot be verified is never served.
    """
    store = _registry_of(registry, config)
    name, version = parse_model_ref(ref)
    entry = store.resolve(name, version)
    model = load_model(entry.path, config, seed=seed)
    return model, entry


# ---------------------------------------------------------------------------
# Scoring and serving
# ---------------------------------------------------------------------------


def evaluate(config: ExperimentConfig, dataset: PairedDataset,
             model: Union[LithoGan, str, Path], *,
             tracer=None, profiler=None) -> EvalResult:
    """Score ``model`` on the held-out split of ``dataset`` (Table 3 row).

    ``model`` may be a fitted :class:`~repro.core.LithoGan` or a weight
    directory (restored fail-closed via :func:`load_model`).  The split is
    reconstructed with ``config.training.seed``, matching :func:`train`.
    """
    if isinstance(model, (str, Path)):
        model = load_model(model, config)
    rng = np.random.default_rng(config.training.seed)
    _, test = dataset.split(config.training.train_fraction, rng)
    with _model_profiled(profiler, model):
        predict_span = (tracer.span("predict", samples=len(test))
                        if tracer is not None else nullcontext())
        with predict_span:
            predictions = model.predict_resist(test.masks)
        nm_per_px = config.image.resist_nm_per_px(config.tech)
        score_span = (tracer.span("score", samples=len(test))
                      if tracer is not None else nullcontext())
        with score_span:
            _, summary = evaluate_predictions(
                "LithoGAN", test.resists[:, 0], predictions, nm_per_px,
                golden_centers=test.centers,
                predicted_centers=model.predict_centers(test.masks),
            )
    row = table3_row_dict(dataset.tech_name or config.tech.name, summary)
    return EvalResult(row=row, summary_stats=summary, samples=len(test))


def serve(model: Union[LithoGan, str, Path],
          clips: Union[np.ndarray, Sequence[np.ndarray]], *,
          config: ExperimentConfig,
          policy: Optional[ServingConfig] = None,
          deadline_s=_UNSET,
          limit: Optional[int] = None,
          faults=None, hook=None, tracer=None, simulator=None,
          profiler=None):
    """Hardened batch inference; returns the per-clip
    :class:`~repro.serving.BatchReport`.

    ``model`` may be a fitted LithoGAN or a weight directory.  ``policy``
    overrides ``config.serving`` wholesale (admission, guards, retries,
    fallback, breaker); ``deadline_s`` overrides just the batch deadline
    (``None`` disables it).  When ``config.parallel.workers > 1`` the
    per-clip evaluation ladders of each micro-batch run concurrently with
    serial-identical results.  ``faults`` drives the degradation drills.
    """
    from .serving import InferenceService

    if policy is not None:
        config = dataclasses.replace(config, serving=policy)
    configure_kernel_cache(config.parallel)
    if isinstance(model, (str, Path)):
        model = load_model(model, config)
    masks = clips if limit is None else clips[:limit]
    service = InferenceService(
        model, config, hook=hook, tracer=tracer, simulator=simulator,
    )
    kwargs = {"faults": faults}
    if deadline_s is not _UNSET:
        kwargs["deadline_s"] = deadline_s
    with _model_profiled(profiler, model):
        return service.serve_batch(masks, **kwargs)


def serve_loop(model: Union[LithoGan, str, Path], *,
               config: ExperimentConfig,
               quotas: Sequence = (),
               faults=None, hook=None, tracer=None, simulator=None,
               clock=None, start: bool = True,
               model_name: str = "model",
               model_version: Optional[int] = None):
    """Start the continuous-batching serving loop; returns the
    :class:`~repro.serving.InferenceServer`.

    ``model`` may be a fitted LithoGAN, a weight directory (restored
    fail-closed), or any duck-typed ``predict_raw`` provider (e.g. a
    :class:`~repro.serving.PlaybackModel`).  ``config.server`` sets the
    queue, watchdog and drain timeout, and ``config.serving.micro_batch``
    the batch size; ``quotas`` is a sequence of
    :class:`~repro.serving.TenantQuota`; ``model_name``/``model_version``
    label the incumbent slot for hot-swap/canary telemetry (e.g. a
    registry ``name@version``).  The server comes back already started
    (``start=False`` defers); use it as a context manager, or call
    ``close()`` to drain and stop:

    >>> with api.serve_loop(model, config=config) as srv:   # doctest: +SKIP
    ...     future = srv.submit(mask, tenant="opc")
    ...     clip = future.result(timeout=30.0)
    """
    from .serving import InferenceServer

    configure_kernel_cache(config.parallel)
    if isinstance(model, (str, Path)):
        model = load_model(model, config)
    loop = InferenceServer(
        model, config, quotas=quotas, hook=hook, tracer=tracer,
        simulator=simulator, faults=faults, clock=clock,
        model_name=model_name, model_version=model_version,
    )
    if start:
        loop.start()
    return loop


def process_window(config: ExperimentConfig, *,
                   array_type: str = "isolated",
                   rng: Optional[np.random.Generator] = None,
                   tracer=None):
    """Dose/defocus sweep of one synthesized clip; returns the
    :class:`~repro.sim.ProcessWindow`.

    The clip is drawn from ``config.tech`` with ``rng`` (default: seeded by
    ``config.training.seed``) for the requested contact-array family.
    """
    from .layout import ArrayType, build_mask_layout, generate_clip
    from .sim import sweep_process_window

    if rng is None:
        rng = np.random.default_rng(config.training.seed)
    family = ArrayType(array_type) if isinstance(array_type, str) else array_type
    clip = generate_clip(config.tech, rng, array_type=family)
    layout = build_mask_layout(clip)
    span = (tracer.span("sweep", array_type=family.value)
            if tracer is not None else nullcontext())
    with span:
        return sweep_process_window(layout, config)


# ---------------------------------------------------------------------------
# Inverse lithography
# ---------------------------------------------------------------------------


def optimize_mask(config: ExperimentConfig,
                  model: Union[LithoGan, str, Path], *,
                  clips: Optional[Sequence] = None,
                  num_clips: int = 1,
                  rng: Optional[np.random.Generator] = None,
                  compare_process_window: bool = False,
                  tracer=None, hook=None, profiler=None,
                  progress: Optional[Callable] = None) -> OptimizeResult:
    """Gradient-based inverse lithography over ``config.ilt``.

    ``model`` may be a fitted :class:`~repro.core.LithoGan` or a weight
    directory (restored fail-closed).  ``clips`` supplies the
    :class:`~repro.layout.ContactClip` targets directly; otherwise
    ``num_clips`` are synthesized with ``rng`` (default: seeded by
    ``config.training.seed``, cycling the three array families).  The loop
    itself draws no randomness, so results are bit-reproducible for a
    given model and clip set.

    Telemetry: ``tracer`` records per-step ``ilt_step`` spans, ``hook``
    (a :class:`~repro.telemetry.TelemetryHook`) receives the ``ilt_start``
    / ``ilt_step`` / ``ilt_end`` events, and ``profiler`` times each step's
    generator forward and input-gradient walk per layer.
    ``compare_process_window`` additionally sweeps dose/defocus for the
    optimized vs. rule-OPC layouts (expensive).

    Raises :class:`~repro.errors.IltError` when any clip finishes without
    one simulator-verified candidate.
    """
    from .ilt import MaskVerifier, optimize_clip, process_window_comparison
    from .layout import generate_clips

    configure_kernel_cache(config.parallel)
    if isinstance(model, (str, Path)):
        model = load_model(model, config)
    if clips is None:
        if rng is None:
            rng = np.random.default_rng(config.training.seed)
        clips = generate_clips(config.tech, rng, count=num_clips)
    clips = list(clips)
    if not clips:
        raise ConfigError("optimize_mask needs at least one clip")

    def _say(message: str) -> None:
        if progress is not None:
            progress(message)

    on_step = None
    if hook is not None:
        hook.emit("ilt_start", clips=len(clips), steps=config.ilt.steps)

        def on_step(step: int, loss: float) -> None:
            hook.emit("ilt_step", step=step, loss=loss)

    verifier = MaskVerifier(
        config, rigorous=config.ilt.rigorous, tracer=tracer
    )
    outcomes = []
    with _model_profiled(profiler, model):
        for index, clip in enumerate(clips):
            span = (tracer.span("ilt_clip", clip=index)
                    if tracer is not None else nullcontext())
            with span:
                outcome = optimize_clip(
                    config, model, clip, verifier=verifier, tracer=tracer,
                    on_step=on_step,
                )
            outcomes.append(outcome)
            _say(
                f"clip {index} ({clip.array_type.value}): "
                f"EPE {outcome.epe_ilt_nm:.2f} nm (unoptimized "
                f"{outcome.epe_unoptimized_nm:.2f}, rule OPC "
                f"{outcome.epe_rule_opc_nm:.2f})"
            )
    process_windows = None
    if compare_process_window:
        process_windows = {
            str(index): process_window_comparison(config, outcome)
            for index, outcome in enumerate(outcomes)
        }
    result = OptimizeResult(
        outcomes=tuple(outcomes),
        steps=config.ilt.steps,
        verifications=verifier.verifications,
        process_windows=process_windows,
    )
    if hook is not None:
        hook.emit(
            "ilt_end", verified=verifier.verifications,
            epe_ilt_nm=round(result.epe_ilt_nm, 4),
            epe_unoptimized_nm=round(result.epe_unoptimized_nm, 4),
            epe_rule_opc_nm=round(result.epe_rule_opc_nm, 4),
            improved=result.improved_vs_unoptimized,
        )
    return result


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def run_sweep(config: ExperimentConfig, grid, *,
              sweep_dir: Union[str, Path],
              resume: bool = False,
              metric: str = "ede_mean_nm",
              publish_best: Optional[str] = None,
              registry=None,
              trial_fn: Optional[Callable] = None,
              faults_for: Optional[Callable] = None,
              hook=None,
              sleep: Optional[Callable] = None,
              clock: Optional[Callable] = None,
              progress: Optional[Callable] = None,
              spec_payload: Optional[dict] = None) -> "SweepResult":
    """Run (or resume) a journaled multi-trial sweep of ``config``.

    ``grid`` maps dotted config paths to candidate values
    (``{"training.seed": [0, 1, 2]}``); the Cartesian product becomes the
    trial list, each trial named by its config digest.  Supervision —
    per-trial timeout/isolation, retry backoff, and the fail-closed
    ``max_failed_trials`` budget — comes from ``config.sweep``.  The journal
    lives at ``<sweep_dir>/journal.jsonl``; ``resume=True`` replays it and
    re-runs only trials that are not journaled as completed.

    ``publish_best`` publishes the winning trial's weight directory into the
    model registry under that name, stamped with the sweep and trial digests
    and the winning metric value.  ``trial_fn`` / ``faults_for`` / ``sleep``
    / ``clock`` / ``progress`` are supervisor injection points (drills and
    tests); see :class:`~repro.sweep.SweepSupervisor`.
    """
    configure_kernel_cache(config.parallel)
    spec = SweepSpec.from_grid(config, grid)
    kwargs = {}
    if sleep is not None:
        kwargs["sleep"] = sleep
    if clock is not None:
        kwargs["clock"] = clock
    supervisor = SweepSupervisor(
        spec, sweep_dir, trial_fn=trial_fn, faults_for=faults_for,
        hook=hook, progress=progress, **kwargs,
    )
    if spec_payload is None:
        # ordered pairs, not a dict — the journal writer sorts dict keys
        # and axis order decides trial order (hence the sweep digest)
        spec_payload = {
            "grid": [
                [path, list(values)] for path, values in spec.grid.items()
            ]
        }
    trials = supervisor.run(resume=resume, spec_payload=spec_payload)
    result = SweepResult(
        trials=tuple(trials),
        digest=spec.digest,
        journal=supervisor.journal.path,
        metric=metric,
    )
    if publish_best is not None:
        winner = result.best(metric)
        if winner.weights is None:
            raise ConfigError(
                f"winning trial {winner.name} recorded no weight directory; "
                "cannot publish it"
            )
        by_digest = {trial.digest: trial for trial in spec.trials}
        entry = publish_model(
            winner.weights, publish_best,
            registry=registry,
            config=by_digest[winner.digest].config,
            metrics={
                "sweep_digest": spec.digest,
                "trial_digest": winner.digest,
                "trial": winner.name,
                "params": dict(winner.params),
                metric: float(winner.metrics[metric]),
            },
        )
        result = dataclasses.replace(result, published=entry)
    return result


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def report(log: Union[str, Path], *,
           trace: Optional[Union[str, Path]] = None,
           metrics: Optional[Union[str, Path]] = None,
           profile: Optional[Union[str, Path]] = None) -> RunReport:
    """Correlate a run's artifacts into a health report.

    ``log`` is the JSONL event log a ``--log-json`` run wrote (required);
    ``trace`` / ``metrics`` / ``profile`` are the matching ``--trace-out`` /
    ``--metrics-out`` / ``--profile-out`` artifacts.  Fail-closed: any
    corrupt input raises :class:`~repro.errors.TelemetryError` naming the
    path — the CLI maps that to a non-zero exit.
    """
    return build_report(
        log, trace_path=trace, metrics_path=metrics, profile_path=profile,
    )
