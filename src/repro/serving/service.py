"""The serving ladder: admission → model → guard → retry → simulator fallback.

:class:`InferenceService` turns a trained LithoGAN into a batch-inference
endpoint hardened against the failure modes a research checkpoint meets in
production: malformed inputs, degenerate generator outputs, and overload.
Every admitted clip is *always* answered — the open question is only the
provenance of the answer:

``model``
    The generator output (possibly salvaged by re-thresholding or
    re-centering) passed the :class:`~repro.serving.guards.OutputGuard`.
``fallback_sim``
    The guard condemned the model output (or the circuit breaker had the
    model benched), so the compact-mode physics simulator re-derived the
    resist window from the mask encoding itself.

The per-clip recovery ladder, in order and stopping at the first success:

1. serve the model output if the guard passes it;
2. re-binarize the raw generator output at each configured retry threshold,
   keeping only the largest connected component;
3. despeckle at the default threshold (largest component only) and re-place;
4. simulate the mask through the physics pipeline (if fallback is enabled);
5. serve the original model output flagged ``degenerate`` — best effort,
   but never silence.

Overload protection wraps the ladder: a bounded admission queue sheds excess
clips with typed ``overload`` rejections, a per-batch :class:`Deadline`
collapses the ladder to best-effort once the budget is gone, and a
:class:`CircuitBreaker` benches the model after consecutive guard failures,
serving simulator-only until a half-open probe proves it healthy again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import ExperimentConfig
from ..core.recenter import binarize, recenter_to_predicted
from ..errors import ReproError
from ..geometry import keep_largest_component
from ..runtime.faults import FaultPlan
from ..runtime.parallel import WorkerPool
from ..telemetry.hooks import NULL_HOOK, TelemetryHook
from ..telemetry.trace import Tracer
from .admission import AdmittedBatch, Rejection, admit_masks
from .guards import GuardReport, OutputGuard, VERDICT_DEGENERATE
from .overload import CircuitBreaker, Deadline
from .rollout import SLOT_INCUMBENT

#: sentinel: "use config.serving.deadline_s" (None must mean "no deadline")
_CONFIG_DEADLINE = object()

#: provenance tags on served clips
PROVENANCE_MODEL = "model"
PROVENANCE_FALLBACK = "fallback_sim"

#: fallback causes (the ``cause`` field of fallback clips and telemetry)
CAUSE_DEGENERATE = "degenerate"
CAUSE_BREAKER = "breaker"


@dataclass(frozen=True)
class ServedClip:
    """One answered clip, with full provenance of how it was produced."""

    clip: int
    resist: np.ndarray
    provenance: str
    verdict: str
    guard: GuardReport
    attempts: Tuple[str, ...]
    cause: str
    seconds: float

    @property
    def fallback(self) -> bool:
        return self.provenance == PROVENANCE_FALLBACK

    def to_dict(self) -> dict:
        """JSON-ready summary (the resist array itself is omitted)."""
        return {
            "clip": self.clip,
            "provenance": self.provenance,
            "verdict": self.verdict,
            "guard": self.guard.to_dict(),
            "attempts": list(self.attempts),
            "cause": self.cause,
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class BatchReport:
    """Everything one :meth:`InferenceService.serve_batch` call produced."""

    served: Tuple[ServedClip, ...]
    rejections: Tuple[Rejection, ...]
    sanitized: int
    deadline_exceeded: bool
    breaker_transitions: Tuple[Tuple[str, str, str], ...]
    breaker_state: str
    seconds: float = field(default=0.0)

    @property
    def admitted(self) -> int:
        return len(self.served)

    @property
    def rejected(self) -> int:
        return len(self.rejections)

    @property
    def fallbacks(self) -> int:
        return sum(1 for clip in self.served if clip.fallback)

    def fallbacks_by_cause(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for clip in self.served:
            if clip.fallback:
                counts[clip.cause] = counts.get(clip.cause, 0) + 1
        return counts

    def verdicts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for clip in self.served:
            counts[clip.verdict] = counts.get(clip.verdict, 0) + 1
        return counts

    def resists(self) -> Dict[int, np.ndarray]:
        """Answered windows keyed by original batch position."""
        return {clip.clip: clip.resist for clip in self.served}

    def to_dict(self) -> dict:
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "sanitized": self.sanitized,
            "fallbacks": self.fallbacks,
            "fallbacks_by_cause": self.fallbacks_by_cause(),
            "verdicts": self.verdicts(),
            "deadline_exceeded": self.deadline_exceeded,
            "breaker_transitions": [
                list(edge) for edge in self.breaker_transitions
            ],
            "breaker_state": self.breaker_state,
            "seconds": self.seconds,
            "served": [clip.to_dict() for clip in self.served],
            "rejections": [r.to_dict() for r in self.rejections],
        }


class InferenceService:
    """Hardened batch inference over a trained LithoGAN (or stand-in).

    ``model`` is duck-typed: anything exposing
    ``predict_raw(masks) -> (mono, centers)`` serves — the real
    :class:`~repro.core.lithogan.LithoGan`, or a fake in drills.  The
    physics fallback simulator is built lazily on first use (compact mode,
    cached kernels), so serial model-only batches never pay for it; the
    threaded ladder builds it once, up front, and its threads share it.

    ``slot`` names the server slot the service was made for (the incumbent
    or the canary candidate).  Its breaker's ``breaker`` events carry it, so
    two slots sharing one hook keep separate breaker histories in the log.
    """

    def __init__(self, model, config: ExperimentConfig,
                 hook: Optional[TelemetryHook] = None,
                 tracer: Optional[Tracer] = None,
                 simulator=None, clock=None, slot: str = SLOT_INCUMBENT):
        self.model = model
        self.config = config
        self.serving = config.serving
        self.hook = hook if hook is not None else NULL_HOOK
        self.tracer = tracer if tracer is not None else Tracer()
        self.guard = OutputGuard(config)
        self.clock = clock
        self.slot = slot
        self.breaker = CircuitBreaker(
            threshold=self.serving.breaker_threshold,
            probe_after=self.serving.breaker_probe_after,
            on_transition=lambda source, target, reason: self.hook.emit(
                "breaker", slot=self.slot, from_state=source,
                to_state=target, reason=reason),
        )
        self._simulator = simulator

    # -- fallback --------------------------------------------------------------

    @property
    def simulator(self):
        if self._simulator is None:
            from ..sim.pipeline import LithographySimulator

            self._simulator = LithographySimulator(self.config)
        return self._simulator

    def _simulate_fallback(self, mask: np.ndarray) -> Optional[np.ndarray]:
        """Golden window from the physics pipeline, or None if it fails too."""
        try:
            return self.simulator.simulate_mask_image(mask)
        except ReproError:
            return None

    # -- the per-clip ladder ---------------------------------------------------

    def _place(self, shape: np.ndarray, center: np.ndarray) -> np.ndarray:
        return recenter_to_predicted(shape, center)

    def _model_candidate(self, mono: np.ndarray, center: np.ndarray,
                         threshold: float, despeckle: bool):
        """One ladder rung: binarize → (despeckle) → place → guard."""
        shape = binarize(mono, threshold)
        if despeckle:
            shape = keep_largest_component(shape)
        placed = self._place(shape, center)
        return placed, self.guard.check(placed, expected_center=center)

    def _evaluate_model_clip(self, clip: int, mask: np.ndarray,
                             mono: np.ndarray, center: np.ndarray,
                             deadline: Deadline
                             ) -> Tuple[ServedClip, Optional[bool], str]:
        """The recovery ladder as a *pure* evaluation.

        Touches no shared mutable state (breaker, hook, tracer), so it is
        safe to run concurrently across clips.  Returns the served clip
        plus the side effects for the caller to commit in clip order: the
        breaker outcome (``True`` success / ``False`` guard failure) and
        the fallback cause to report (empty when no fallback was served).
        """
        attempts: List[str] = ["model"]
        placed, report = self._model_candidate(
            mono, center, threshold=0.5, despeckle=False
        )
        best = (placed, report)

        if report.degenerate and not deadline.exceeded():
            # Rung 2: the generator often emits a plausible shape wrapped in
            # low-confidence haze or dropouts; a different threshold (largest
            # component only) frequently recovers it without re-running it.
            for threshold in self.serving.retry_thresholds:
                attempts.append(f"rethreshold:{threshold:g}")
                placed, report = self._model_candidate(
                    mono, center, threshold=threshold, despeckle=True
                )
                if not report.degenerate:
                    break
            if report.degenerate:
                # Rung 3: despeckle at the default threshold — fragments and
                # satellites go, the dominant blob is re-placed on its own.
                attempts.append("recenter")
                placed, report = self._model_candidate(
                    mono, center, threshold=0.5, despeckle=True
                )
            best = (placed, report)

        if not report.degenerate:
            return ServedClip(
                clip=clip, resist=best[0], provenance=PROVENANCE_MODEL,
                verdict=report.verdict, guard=report,
                attempts=tuple(attempts), cause="", seconds=0.0,
            ), True, ""

        # Ladder exhausted: this is the guard failure the breaker counts.
        if deadline.exceeded():
            attempts.append("deadline")
            return ServedClip(
                clip=clip, resist=best[0], provenance=PROVENANCE_MODEL,
                verdict=VERDICT_DEGENERATE, guard=best[1],
                attempts=tuple(attempts), cause="", seconds=0.0,
            ), False, ""
        if self.serving.fallback_enabled:
            attempts.append("fallback_sim")
            window = self._simulate_fallback(mask)
            if window is not None:
                report = self.guard.check(window)
                return ServedClip(
                    clip=clip, resist=window,
                    provenance=PROVENANCE_FALLBACK,
                    verdict=report.verdict, guard=report,
                    attempts=tuple(attempts), cause=CAUSE_DEGENERATE,
                    seconds=0.0,
                ), False, CAUSE_DEGENERATE
            attempts.append("fallback_failed")
        return ServedClip(
            clip=clip, resist=best[0], provenance=PROVENANCE_MODEL,
            verdict=VERDICT_DEGENERATE, guard=best[1],
            attempts=tuple(attempts), cause="", seconds=0.0,
        ), False, ""

    def _evaluate_breaker_clip(self, clip: int, mask: np.ndarray
                               ) -> Tuple[ServedClip, Optional[bool], str]:
        """Breaker open: simulator-only, the model is not invoked (pure)."""
        attempts = ("breaker", "fallback_sim")
        window = self._simulate_fallback(mask)
        if window is not None:
            report = self.guard.check(window)
            return ServedClip(
                clip=clip, resist=window, provenance=PROVENANCE_FALLBACK,
                verdict=report.verdict, guard=report, attempts=attempts,
                cause=CAUSE_BREAKER, seconds=0.0,
            ), None, CAUSE_BREAKER
        empty = np.zeros(
            (self.config.model.image_size,) * 2, dtype=np.float64
        )
        # The hook cause (third value) stays empty: no fallback *answer* was
        # produced, so no fallback event is reported for this clip.
        return ServedClip(
            clip=clip, resist=empty, provenance=PROVENANCE_FALLBACK,
            verdict=VERDICT_DEGENERATE, guard=self.guard.check(empty),
            attempts=attempts + ("fallback_failed",),
            cause=CAUSE_BREAKER, seconds=0.0,
        ), None, ""

    # -- the batch loop --------------------------------------------------------

    def _evaluate_payload(self, payload, deadline: Deadline):
        """Evaluate one clip's ladder, timed (pure: safe on pool threads)."""
        kind, clip, mask, out, center = payload
        start = time.perf_counter()
        if kind == "model":
            result, guard_ok, cause = self._evaluate_model_clip(
                clip, mask, out, center, deadline,
            )
        else:
            result, guard_ok, cause = self._evaluate_breaker_clip(clip, mask)
        return result, guard_ok, cause, time.perf_counter() - start

    def serve_batch(self,
                    masks: Union[np.ndarray, Sequence[np.ndarray]],
                    deadline_s=_CONFIG_DEADLINE,
                    faults: Optional[FaultPlan] = None) -> BatchReport:
        """Answer every admissible clip of one batch; see module docstring.

        ``deadline_s`` overrides ``config.serving.deadline_s`` when given
        explicitly (``None`` disables the deadline outright).  ``faults``
        poisons scheduled generator outputs *after* the forward pass and
        *before* the guard — the deterministic degradation drills run on it.

        Each micro-batch runs one generator forward over the clips the
        breaker lets through, then one per-clip loop in three steps: build
        the payloads in clip order (consuming faults), evaluate their
        ladders, and commit the breaker and hook effects and finish the
        clips in clip order.  Evaluation touches no shared state, so when
        ``config.parallel.workers > 1`` a micro-batch of several clips is
        evaluated on a thread pool; the breaker state machine and the event
        stream stay identical to a one-thread run.

        Raises :class:`~repro.errors.AdmissionError` only if the batch
        container itself is malformed; per-clip problems come back as typed
        rejections on the report, never as exceptions.
        """
        batch_start = time.perf_counter()
        if deadline_s is _CONFIG_DEADLINE:
            deadline_s = self.serving.deadline_s
        deadline = Deadline(deadline_s, clock=self.clock)

        admitted: AdmittedBatch = admit_masks(
            masks, self.config, capacity=self.serving.queue_capacity
        )
        self.hook.emit(
            "admission", admitted=admitted.admitted,
            rejected=admitted.rejected, sanitized=admitted.sanitized,
        )

        pool: Optional[WorkerPool] = None
        if self.config.parallel.workers > 1:
            pool = WorkerPool(
                workers=self.config.parallel.workers, backend="thread",
                timeout_s=self.config.parallel.timeout_s,
                tracer=self.tracer, hook=self.hook,
            )

        served: List[ServedClip] = []
        micro = max(1, self.serving.micro_batch)
        try:
            for cursor in range(0, admitted.admitted, micro):
                batch_masks = admitted.masks[cursor:cursor + micro]
                batch_indices = admitted.indices[cursor:cursor + micro]

                # Decide, clip by clip and in order, who may see the model.
                # The open-state probe schedule advances on every denied
                # clip, so a breaker can half-open mid-micro-batch.
                use_breaker = (self.serving.fallback_enabled
                               and not deadline.exceeded())
                allowed = [not use_breaker or self.breaker.allow_model()
                           for _ in batch_indices]
                model_rows = [i for i, ok in enumerate(allowed) if ok]

                forward_share = 0.0
                if model_rows:
                    forward_start = time.perf_counter()
                    with self.tracer.span("serve_forward",
                                          clips=len(model_rows)):
                        mono, centers = self.model.predict_raw(
                            batch_masks[model_rows]
                        )
                    forward_share = (
                        (time.perf_counter() - forward_start)
                        / len(model_rows)
                    )

                row_of = {row: k for k, row in enumerate(model_rows)}
                payloads = []
                for i, clip in enumerate(batch_indices):
                    if i in row_of:
                        out = mono[row_of[i]]
                        if faults is not None:
                            out = faults.degrade_output(clip, out)
                        payloads.append(("model", clip, batch_masks[i], out,
                                         centers[row_of[i]]))
                    else:
                        payloads.append(
                            ("breaker", clip, batch_masks[i], None, None))

                if pool is not None and len(payloads) > 1:
                    # Build the fallback simulator here, once, so the
                    # evaluation threads share it instead of racing to
                    # construct it.
                    self.simulator  # noqa: B018 — built on first use
                    evaluated = pool.map(
                        lambda payload: self._evaluate_payload(
                            payload, deadline),
                        payloads, task="serve_eval",
                    )
                else:
                    evaluated = [self._evaluate_payload(payload, deadline)
                                 for payload in payloads]

                for i, (result, guard_ok, cause, seconds) in enumerate(
                        evaluated):
                    if guard_ok is not None and use_breaker:
                        if guard_ok:
                            self.breaker.record_success()
                        else:
                            self.breaker.record_failure()
                    if cause:
                        self.hook.emit("fallback", clip=result.clip,
                                       cause=cause)
                    if i in row_of:
                        seconds += forward_share
                    served.append(self._finish_clip(result, seconds))
        finally:
            if pool is not None:
                pool.close()

        return BatchReport(
            served=tuple(served),
            rejections=admitted.rejections,
            sanitized=admitted.sanitized,
            deadline_exceeded=deadline.exceeded(),
            breaker_transitions=tuple(self.breaker.transitions),
            breaker_state=self.breaker.state,
            seconds=time.perf_counter() - batch_start,
        )

    def _finish_clip(self, result: ServedClip,
                     seconds: float) -> ServedClip:
        """Stamp the latency and emit the per-clip telemetry."""
        result = ServedClip(
            clip=result.clip, resist=result.resist,
            provenance=result.provenance, verdict=result.verdict,
            guard=result.guard, attempts=result.attempts,
            cause=result.cause, seconds=seconds,
        )
        self.tracer.add_record(
            "serve_clip", seconds, clip=result.clip,
            provenance=result.provenance, verdict=result.verdict,
        )
        self.hook.emit(
            "clip_served", clip=result.clip, provenance=result.provenance,
            verdict=result.verdict, seconds=seconds,
        )
        return result


def serve_latency_quantiles(tracer: Tracer,
                            quantiles: Sequence[float] = (0.5, 0.9, 0.99),
                            name: str = "serve_clip") -> Dict[str, float]:
    """Per-clip serve latency quantiles from a tracer's ``serve_clip`` spans.

    Returns ``{"p50": ..., "p90": ..., "p99": ...}`` (keys derive from the
    requested quantiles); empty when no clips were served.
    """
    seconds = [r.seconds for r in tracer.records if r.name == name]
    if not seconds:
        return {}
    values = np.percentile(
        np.asarray(seconds, dtype=np.float64),
        [100.0 * q for q in quantiles],
    )
    return {
        f"p{round(100 * q):d}": float(v)
        for q, v in zip(quantiles, values)
    }
