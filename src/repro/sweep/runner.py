"""The sweep supervisor: journaled trial execution with bounded retries.

:class:`SweepSupervisor` walks a :class:`~repro.sweep.spec.SweepSpec` trial
by trial, journaling every decision before acting on it.  One trial attempt
runs either inline (``isolation="none"``) or inside a one-task
:class:`~repro.runtime.parallel.WorkerPool` (``"thread"`` / ``"process"``),
which is what makes a wall-clock ``trial_timeout_s`` enforceable — a hung
trial surfaces as a :class:`~repro.errors.ParallelError` with
``kind="timeout"`` instead of wedging the sweep.

Failures are classified, not parsed: a :class:`~repro.errors.TrainingError`
is ``diverged``, a timeout-kind :class:`~repro.errors.ParallelError` is
``timeout``, any other worker failure is ``worker_death``.  Each failed
attempt retries on the deterministic exponential backoff of
:class:`~repro.runtime.retry.RetrySchedule` (shared with in-trial
divergence recovery); a trial whose retries are exhausted is marked failed
and **its siblings keep running** — until more than
``max_failed_trials`` trials have failed, at which point the sweep fails
closed with a :class:`~repro.errors.SweepError` naming every failed trial
digest.  ``KeyboardInterrupt`` journals the in-flight trial as
``interrupted`` and re-raises, so a Ctrl-C'd sweep resumes cleanly.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..errors import ParallelError, SweepError, TrainingError
from ..runtime.parallel import WorkerPool
from ..runtime.retry import RetrySchedule
from .journal import JOURNAL_NAME, SweepJournal, read_journal, replay_journal
from .spec import SweepSpec, TrialSpec

__all__ = [
    "SweepResult",
    "SweepSupervisor",
    "TrialResult",
    "classify_failure",
    "run_default_trial",
]

#: wall-clock ceiling handed to isolation pools when no trial timeout is
#: configured (the pool requires a positive bound; one day is "unbounded"
#: for any trial this repo can express)
_UNBOUNDED_TIMEOUT_S = 86_400.0


def classify_failure(exc: BaseException) -> str:
    """Map a trial failure onto its machine-readable reason tag."""
    if isinstance(exc, ParallelError):
        return "timeout" if exc.kind == "timeout" else "worker_death"
    if isinstance(exc, TrainingError):
        return "diverged"
    return "error"


def run_default_trial(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The standard trial body: mint, train, evaluate, save weights.

    Module-level (picklable) so ``isolation="process"`` works out of the
    box.  Trials run with ``recovery=None``: a single non-finite loss is an
    immediate :class:`~repro.errors.TrainingError`, because the sweep-level
    retry *is* the recovery — one supervisor owns the retry budget instead
    of two nested ones fighting.
    """
    from .. import api  # local import: api re-exports this module

    config = payload["config"]
    trial_dir = Path(payload["trial_dir"])
    faults = payload.get("faults")
    minted = api.mint(config, faults=faults)
    trained = api.train(
        config, minted.dataset, recovery=None, faults=faults,
        out=trial_dir / "model",
    )
    scored = api.evaluate(config, minted.dataset, trained.model)
    return {"metrics": scored.row, "weights": str(trial_dir / "model")}


@dataclasses.dataclass(frozen=True)
class TrialResult:
    """One trial's terminal outcome, as the journal records it."""

    index: int
    name: str
    digest: str
    params: Dict[str, Any]
    status: str               # "completed" | "failed"
    attempts: int
    reason: str = ""          # failure classification, empty on success
    metrics: Dict[str, Any] = dataclasses.field(default_factory=dict)
    seconds: float = 0.0
    weights: Optional[str] = None
    #: True when this outcome was replayed from the journal, not re-run
    resumed: bool = False

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "trial": self.name,
            "digest": self.digest,
            "params": dict(self.params),
            "status": self.status,
            "attempts": self.attempts,
            "reason": self.reason,
            "metrics": dict(self.metrics),
            "seconds": self.seconds,
            "weights": self.weights,
            "resumed": self.resumed,
        }


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """What a sweep produced: every trial's outcome plus provenance."""

    trials: Tuple[TrialResult, ...]
    digest: str
    journal: Path
    metric: str = "ede_mean_nm"
    #: the registry entry --publish-best created, when requested
    published: Optional[Any] = None

    @property
    def completed(self) -> Tuple[TrialResult, ...]:
        return tuple(t for t in self.trials if t.status == "completed")

    @property
    def failed(self) -> Tuple[TrialResult, ...]:
        return tuple(t for t in self.trials if t.status == "failed")

    def ranking(self, metric: Optional[str] = None
                ) -> Tuple[TrialResult, ...]:
        """Completed trials, best first (lower metric value is better)."""
        metric = metric or self.metric
        scored = [t for t in self.completed if metric in t.metrics]
        return tuple(sorted(
            scored, key=lambda t: (float(t.metrics[metric]), t.index)
        ))

    def best(self, metric: Optional[str] = None) -> TrialResult:
        ranked = self.ranking(metric)
        if not ranked:
            raise SweepError(
                f"no completed trial carries metric "
                f"{metric or self.metric!r}; cannot rank"
            )
        return ranked[0]

    def format_ranking(self, metric: Optional[str] = None) -> str:
        """The comparative ranking table ``repro sweep`` prints."""
        metric = metric or self.metric
        ranked = self.ranking(metric)
        unranked = [t for t in self.trials if t not in ranked]
        lines = [
            f"sweep {self.digest[:12]}: {len(self.completed)}/"
            f"{len(self.trials)} trials completed, ranked by {metric}"
        ]
        for place, trial in enumerate(ranked, start=1):
            params = ", ".join(
                f"{k}={v}" for k, v in sorted(trial.params.items())
            ) or "(base)"
            flags = " resumed" if trial.resumed else ""
            lines.append(
                f"  #{place} {trial.name}  {metric}="
                f"{float(trial.metrics[metric]):.4f}  "
                f"attempts={trial.attempts}{flags}  [{params}]"
            )
        for trial in unranked:
            lines.append(
                f"  -- {trial.name}  {trial.status}"
                + (f" ({trial.reason})" if trial.reason else "")
                + f"  attempts={trial.attempts}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "digest": self.digest,
            "journal": str(self.journal),
            "metric": self.metric,
            "trials": [t.to_dict() for t in self.trials],
            "completed": len(self.completed),
            "failed": len(self.failed),
            "published": getattr(self.published, "label", None),
        }


class SweepSupervisor:
    """Executes one sweep under journaled, bounded-retry supervision.

    ``trial_fn(payload)`` is the trial body (default
    :func:`run_default_trial`); ``faults_for(index, attempt)`` builds the
    fault plan one attempt runs under (drills only).  ``sleep`` and
    ``clock`` are injectable so retry backoff and durations are testable
    without wall-clock waits; ``progress(message)`` receives the CLI's
    narration; ``hook`` gets the ``trial_*`` telemetry events.
    """

    def __init__(self, spec: SweepSpec, sweep_dir: Union[str, Path], *,
                 trial_fn: Optional[Callable] = None,
                 faults_for: Optional[Callable] = None,
                 hook=None,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic,
                 progress: Optional[Callable] = None) -> None:
        self.spec = spec
        self.sweep_dir = Path(sweep_dir)
        self.journal = SweepJournal(self.sweep_dir / JOURNAL_NAME)
        self.trial_fn = trial_fn if trial_fn is not None else run_default_trial
        self.faults_for = faults_for
        self.hook = hook
        self.sleep = sleep
        self.clock = clock
        self.progress = progress
        knobs = spec.base.sweep
        self.knobs = knobs
        self.schedule = RetrySchedule(
            max_retries=knobs.max_retries,
            base_delay_s=knobs.retry_delay_s,
            factor=knobs.retry_factor,
            max_delay_s=knobs.retry_max_delay_s,
        )

    def _say(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    # -- journal bootstrap ---------------------------------------------------

    def _bootstrap(self, resume: bool,
                   spec_payload: Optional[Dict[str, Any]]
                   ) -> Dict[str, Dict[str, Any]]:
        """Open or replay the journal; return completed trials by digest."""
        records = (read_journal(self.journal.path)
                   if self.journal.path.exists() else [])
        if records and not resume:
            raise SweepError(
                f"sweep journal {self.journal.path} already exists; "
                "pass resume=True (CLI: --resume) to continue it, or "
                "choose a fresh sweep directory"
            )
        if not records:
            self.journal.sweep_start(
                digest=self.spec.digest, trials=len(self.spec),
                spec=spec_payload or {},
            )
            return {}
        state = replay_journal(records)
        if state.sweep is None:
            raise SweepError(
                f"sweep journal {self.journal.path} has no sweep_start "
                "record; it was truncated at birth — start fresh"
            )
        if state.sweep.get("digest") != self.spec.digest:
            raise SweepError(
                f"sweep journal {self.journal.path} was written for sweep "
                f"{state.sweep.get('digest', '?')[:12]}, not "
                f"{self.spec.digest[:12]}; refusing to resume a different "
                "spec"
            )
        return state.completed()

    # -- execution -----------------------------------------------------------

    def _execute(self, trial: TrialSpec, attempt: int) -> Dict[str, Any]:
        """Run one attempt under the configured isolation."""
        faults = (self.faults_for(trial.index, attempt)
                  if self.faults_for is not None else None)
        payload = {
            "config": trial.config,
            "trial_dir": str(self.sweep_dir / "trials" / trial.name),
            "faults": faults,
        }
        if self.knobs.isolation == "none":
            return self.trial_fn(payload)
        timeout = self.knobs.trial_timeout_s
        # A fresh one-task pool per attempt: a timed-out or crashed pool is
        # closed by the failure path, and attempts must not share state.
        with WorkerPool(workers=1, backend=self.knobs.isolation,
                        timeout_s=timeout if timeout is not None
                        else _UNBOUNDED_TIMEOUT_S) as pool:
            return pool.map(
                self.trial_fn, [payload], task=f"trial:{trial.name}",
            )[0]

    def _run_trial(self, trial: TrialSpec) -> TrialResult:
        """Supervise one trial to a terminal state (never raises for a
        trial-local failure; only ``KeyboardInterrupt`` escapes)."""
        attempt = 0
        started = self.clock()
        while True:
            attempt += 1
            self.journal.trial_start(
                digest=trial.digest, trial=trial.name, index=trial.index,
                attempt=attempt,
            )
            if self.hook is not None:
                self.hook.emit("trial_start", digest=trial.digest,
                               attempt=attempt, trial=trial.name)
            try:
                outcome = self._execute(trial, attempt)
            except KeyboardInterrupt:
                seconds = self.clock() - started
                self.journal.trial_end(
                    digest=trial.digest, trial=trial.name,
                    status="interrupted", attempts=attempt,
                    reason="interrupted", seconds=seconds,
                )
                if self.hook is not None:
                    self.hook.emit(
                        "trial_end", digest=trial.digest,
                        status="interrupted", trial=trial.name,
                        attempts=attempt, reason="interrupted",
                        seconds=seconds,
                    )
                raise
            except Exception as exc:  # noqa: BLE001 — classified below
                reason = classify_failure(exc)
                if self.schedule.exhausted(attempt):
                    seconds = self.clock() - started
                    self.journal.trial_end(
                        digest=trial.digest, trial=trial.name,
                        status="failed", attempts=attempt, reason=reason,
                        seconds=seconds,
                    )
                    if self.hook is not None:
                        self.hook.emit(
                            "trial_end", digest=trial.digest,
                            status="failed", trial=trial.name,
                            attempts=attempt, reason=reason, seconds=seconds,
                        )
                    self._say(
                        f"{trial.name}: FAILED ({reason}) after "
                        f"{attempt} attempt(s): {exc}"
                    )
                    return TrialResult(
                        index=trial.index, name=trial.name,
                        digest=trial.digest, params=trial.params,
                        status="failed", attempts=attempt, reason=reason,
                        seconds=seconds,
                    )
                delay = self.schedule.delay_s(attempt)
                self.journal.trial_retry(
                    digest=trial.digest, trial=trial.name, attempt=attempt,
                    reason=reason, delay_s=delay,
                )
                if self.hook is not None:
                    self.hook.emit(
                        "trial_retry", digest=trial.digest, attempt=attempt,
                        reason=reason, trial=trial.name, delay_s=delay,
                    )
                self._say(
                    f"{trial.name}: attempt {attempt} failed ({reason}); "
                    f"retrying in {delay:g}s"
                )
                self.sleep(delay)
                continue
            seconds = self.clock() - started
            metrics = dict(outcome.get("metrics") or {})
            weights = outcome.get("weights")
            self.journal.trial_end(
                digest=trial.digest, trial=trial.name, status="completed",
                attempts=attempt, seconds=seconds, metrics=metrics,
                weights=weights,
            )
            if self.hook is not None:
                self.hook.emit(
                    "trial_end", digest=trial.digest, status="completed",
                    trial=trial.name, attempts=attempt, reason="",
                    seconds=seconds,
                )
            self._say(
                f"{trial.name}: completed in {seconds:.2f}s "
                f"({attempt} attempt(s))"
            )
            return TrialResult(
                index=trial.index, name=trial.name, digest=trial.digest,
                params=trial.params, status="completed", attempts=attempt,
                metrics=metrics, seconds=seconds, weights=weights,
            )

    def run(self, *, resume: bool = False,
            spec_payload: Optional[Dict[str, Any]] = None
            ) -> List[TrialResult]:
        """Run (or resume) the sweep; returns every trial's outcome.

        Completed trials found in the journal are **not** re-run — they come
        back as ``resumed=True`` results carrying their journaled metrics.
        Raises :class:`~repro.errors.SweepError` once more than
        ``max_failed_trials`` trials have failed; the journal still holds a
        ``trial_end`` for each, so a later resume retries exactly those.
        """
        done = self._bootstrap(resume, spec_payload)
        results: List[TrialResult] = []
        failed: List[str] = []
        for trial in self.spec.trials:
            record = done.get(trial.digest)
            if record is not None:
                self._say(f"{trial.name}: already completed (journal); "
                          "skipping")
                results.append(TrialResult(
                    index=trial.index, name=trial.name, digest=trial.digest,
                    params=trial.params, status="completed",
                    attempts=int(record.get("attempts") or 0),
                    metrics=dict(record.get("metrics") or {}),
                    seconds=float(record.get("seconds") or 0.0),
                    weights=record.get("weights"),
                    resumed=True,
                ))
                continue
            result = self._run_trial(trial)
            results.append(result)
            if result.status == "failed":
                failed.append(result.digest)
                if len(failed) > self.knobs.max_failed_trials:
                    raise SweepError(
                        f"sweep failure budget exhausted: {len(failed)} "
                        f"trial(s) failed (allowed "
                        f"{self.knobs.max_failed_trials}); failed digests: "
                        + ", ".join(d[:12] for d in failed),
                        failed=failed,
                    )
        return results
