"""The continuous-batching serving loop: a long-lived inference server.

:class:`~repro.serving.service.InferenceService` answers one batch and
returns; production traffic is a *stream*.  :class:`InferenceServer` turns
the one-shot service into an always-on loop:

* **Submission.** :meth:`InferenceServer.submit` enqueues one clip on a
  :class:`~repro.serving.overload.BoundedWorkQueue` and immediately returns
  a :class:`ServeFuture`.  Admission is tenant-aware: a tenant over its hard
  ``max_queued`` cap is shed at the door, and when the queue is full the
  :class:`~repro.serving.tenancy.TenancyController` decides whether the
  newcomer displaces a request from a tenant over its proportional fair
  share (the victim's future fails with a typed
  :class:`~repro.errors.OverloadError`) or is shed itself.  Either way the
  caller always gets a future that *will* resolve — shed requests resolve
  instantly with the typed error, they are never dropped.
* **Batching.** Whenever the executor is free, a batcher thread takes
  whatever is queued, up to ``serving.micro_batch`` requests, without
  waiting for more, and runs it as one forward batch through the full
  :class:`~repro.serving.service.InferenceService` degradation ladder.
  Batches run one at a time, so requests that arrive during a batch join
  the next one.  Each batch is recorded as a ``batch_coalesce`` tracer
  span.
* **Deadlines.** Every request carries a
  :class:`~repro.serving.overload.Deadline` (its own, or the config
  default).  Requests already expired when their batch closes are answered
  with :class:`~repro.errors.DeadlineError` without touching the model, and
  the *tightest* remaining budget in the batch becomes the batch deadline
  inside the ladder, so one slow batch degrades to best-effort instead of
  blowing every caller's budget.
* **Watchdog.** A second thread watches executor progress.  If work is
  pending but no batch has completed for ``watchdog_s`` (a wedged BLAS
  call, a hung fallback), it fails every in-flight and queued future with
  ``OverloadError(reason="wedged")`` and flips the server into a wedged
  state that refuses new submissions — callers get typed answers, never a
  hang.
* **Drain.** :meth:`InferenceServer.close` stops intake and, by default,
  drains: queued requests are still served (bounded by
  ``drain_timeout_s``); anything left after the timeout is shed with
  ``reason="shutdown"``.  The invariant, chaos-drilled by the CLI soak
  tests: every admitted request is answered or explicitly shed — never
  dropped.

* **Hot swap.** The model lives in a *slot* each batch captures once at
  its batch boundary: :meth:`InferenceServer.swap_model` replaces the slot
  atomically, in-flight batches finish on the old model, and every admitted
  request is still answered or shed typed — never dropped mid-swap.
  :meth:`InferenceServer.start_canary` adds a *candidate* slot and routes a
  configured fraction of batches to it while a
  :class:`~repro.serving.rollout.RolloutController` compares guard-verdict
  and fallback rates against the incumbent over a sliding window; a
  candidate that regresses past the margin is **automatically rolled
  back** (typed ``rollback`` telemetry, incumbent keeps serving).  Shadow
  mode mirrors incumbent batches through the candidate without affecting
  responses.

Request deadlines and the watchdog's stall measurement run on the
injectable monotonic ``clock``, so deadline and wedge drills advance a
fake clock instead of sleeping.  The condition-variable *waits* themselves
still poll on short real-time bounds (a fake clock cannot wake a thread),
which the loops treat purely as a polling cadence.

:func:`run_soak` is the sustained-load harness: it ramps synthetic QPS
across tenants against a server, then drains and audits the invariant,
producing the :class:`SoakReport` that ``repro-litho serve --soak
--report`` writes and ``tests/test_cli.py::TestServeSoak`` audits under
injected slow batches, degenerate outputs and a wedged executor.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ExperimentConfig
from ..errors import DeadlineError, OverloadError, ReproError, ServingError
from ..runtime.faults import FaultPlan
from ..telemetry.hooks import NULL_HOOK, TelemetryHook
from ..telemetry.trace import Tracer
from .overload import BoundedWorkQueue, Deadline, MONOTONIC_CLOCK
from .rollout import (
    MODE_CANARY,
    MODE_SHADOW,
    SLOT_CANDIDATE,
    SLOT_INCUMBENT,
    RolloutController,
)
from .service import InferenceService, ServedClip
from .tenancy import DEFAULT_TENANT, TenancyController, TenantQuota

#: machine-readable shed reasons (the ``reason`` tag on shed answers)
SHED_QUOTA = "quota"
SHED_OVERLOAD = "overload"
SHED_EVICTED = "evicted"
SHED_WEDGED = "wedged"
SHED_SHUTDOWN = "shutdown"
SHED_DEADLINE = "deadline"

#: sentinel: "use config.server.default_deadline_s"
_CONFIG_DEADLINE = object()

#: server lifecycle states
STATE_NEW = "new"
STATE_RUNNING = "running"
STATE_DRAINING = "draining"
STATE_CLOSED = "closed"


class ServeFuture:
    """The pending answer for one submitted clip.

    Resolves exactly once — with a :class:`ServedClip` or a typed
    :class:`~repro.errors.ServingError` — and remembers *when* (monotonic),
    so end-to-end latency includes queueing, not just the ladder.  First
    resolution wins; late resolutions (a watchdog racing a finishing batch)
    are ignored.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._result: Optional[ServedClip] = None
        self._error: Optional[ServingError] = None
        self.resolved_at: Optional[float] = None

    def done(self) -> bool:
        return self._event.is_set()

    def set_result(self, clip: ServedClip) -> bool:
        with self._lock:
            if self._event.is_set():
                return False
            self._result = clip
            self.resolved_at = MONOTONIC_CLOCK()
            self._event.set()
            return True

    def set_error(self, error: ServingError) -> bool:
        with self._lock:
            if self._event.is_set():
                return False
            self._error = error
            self.resolved_at = MONOTONIC_CLOCK()
            self._event.set()
            return True

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until resolved (or ``timeout`` elapses); True if resolved."""
        return self._event.wait(timeout)

    def error(self) -> Optional[ServingError]:
        """The typed failure, or None (unresolved or resolved with a clip)."""
        return self._error

    def result(self, timeout: Optional[float] = None) -> ServedClip:
        """The answered clip; raises the typed error for shed requests.

        Raises :class:`TimeoutError` if the future is still unresolved
        after ``timeout`` seconds (None = wait forever).
        """
        if not self._event.wait(timeout):
            raise TimeoutError("serve request not answered yet")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


class ServeRequest:
    """One queued clip: identity, tenant, deadline, and its future."""

    __slots__ = ("request", "tenant", "mask", "deadline", "future",
                 "submitted_at")

    def __init__(self, request: int, tenant: str, mask: np.ndarray,
                 deadline: Deadline, future: ServeFuture):
        self.request = request
        self.tenant = tenant
        self.mask = mask
        self.deadline = deadline
        self.future = future
        self.submitted_at = MONOTONIC_CLOCK()

    def latency(self) -> Optional[float]:
        """Submit-to-answer seconds, or None while unresolved."""
        resolved = self.future.resolved_at
        if resolved is None:
            return None
        return resolved - self.submitted_at


class _BatchFaults:
    """Translates ladder-local clip positions to global request IDs.

    ``InferenceService.serve_batch`` calls ``faults.degrade_output`` with
    the clip's *position inside the batch*; the server schedules degenerate
    faults by global request ID.  This adapter remaps, so
    ``FaultPlan.inject_degenerate(request_id)`` poisons exactly that
    request no matter which batch it lands in.
    """

    def __init__(self, plan: FaultPlan, request_ids: Sequence[int]):
        self._plan = plan
        self._ids = tuple(request_ids)

    def degrade_output(self, clip: int, array: np.ndarray) -> np.ndarray:
        return self._plan.degrade_output(self._ids[clip], array)


class InferenceServer:
    """Long-lived continuous-batching server over one trained model.

    Usable as a context manager (``with InferenceServer(...) as server:``);
    exit drains and closes.  ``quotas`` registers per-tenant weights/caps;
    unregistered tenants get weight ``1.0`` and no cap.  ``faults`` is the
    chaos hook: degenerate outputs are scheduled by global request ID, slow
    batches and wedges by forward-batch index.  ``clock`` (default real
    monotonic) drives request deadlines and the watchdog's stall
    measurement — see the module docstring.
    ``model_name``/``model_version`` label the incumbent slot for swap and
    rollback telemetry (registry-served models use ``name@version``).
    """

    def __init__(self, model, config: ExperimentConfig,
                 quotas: Sequence[TenantQuota] = (),
                 hook: Optional[TelemetryHook] = None,
                 tracer: Optional[Tracer] = None,
                 simulator=None,
                 faults: Optional[FaultPlan] = None,
                 clock=None,
                 model_name: str = "model",
                 model_version: Optional[int] = None):
        self.config = config
        self.server_config = config.server
        self.hook = hook if hook is not None else NULL_HOOK
        self.tracer = tracer if tracer is not None else Tracer()
        self.faults = faults
        self.clock = clock if clock is not None else MONOTONIC_CLOCK
        self._given_clock = clock
        self._simulator = simulator
        self.service = self._make_service(model, SLOT_INCUMBENT)
        self._model_name = model_name
        self._model_version = model_version
        self._candidate_service: Optional[InferenceService] = None
        self._candidate_name: Optional[str] = None
        self._candidate_version: Optional[int] = None
        self._rollout: Optional[RolloutController] = None
        self._on_rollback = None
        self._swaps = 0
        self._rollbacks = 0
        self.tenancy = TenancyController(quotas)
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._queue = BoundedWorkQueue(
            self.server_config.queue_capacity,
            on_full=lambda depth, capacity: self.hook.emit(
                "queue_full", depth=depth, capacity=capacity),
        )
        self._inflight: List[ServeRequest] = []
        self._state = STATE_NEW
        self._wedged = False
        self._next_request = 0
        self._batches = 0
        self._last_progress = self.clock()
        self._interrupt = threading.Event()
        self._watchdog_stop = threading.Event()
        self._batcher: Optional[threading.Thread] = None
        self._watchdog: Optional[threading.Thread] = None

    def _make_service(self, model, slot: str) -> InferenceService:
        return InferenceService(
            model, self.config, hook=self.hook, tracer=self.tracer,
            simulator=self._simulator, clock=self._given_clock, slot=slot,
        )

    @staticmethod
    def _slot_label(name: str, version: Optional[int]) -> str:
        return name if version is None else f"{name}@{version}"

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "InferenceServer":
        """Spawn the batcher and watchdog threads; idempotent."""
        with self._lock:
            if self._state == STATE_RUNNING:
                return self
            if self._state != STATE_NEW:
                raise OverloadError(
                    "cannot restart a closed server", reason=SHED_SHUTDOWN
                )
            self._state = STATE_RUNNING
        self._batcher = threading.Thread(
            target=self._batcher_loop, name="serve-batcher", daemon=True
        )
        self._watchdog = threading.Thread(
            target=self._watchdog_loop, name="serve-watchdog", daemon=True
        )
        self._batcher.start()
        self._watchdog.start()
        return self

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def state(self) -> str:
        return self._state

    @property
    def wedged(self) -> bool:
        return self._wedged

    @property
    def batches(self) -> int:
        """Forward batches executed so far."""
        return self._batches

    @property
    def queue(self) -> BoundedWorkQueue:
        return self._queue

    # -- model slots / rollout -------------------------------------------------

    @property
    def model_label(self) -> str:
        """The incumbent slot's ``name`` or ``name@version`` label."""
        return self._slot_label(self._model_name, self._model_version)

    @property
    def candidate_label(self) -> Optional[str]:
        if self._candidate_name is None:
            return None
        return self._slot_label(self._candidate_name, self._candidate_version)

    def swap_model(self, model, *, name: str = "model",
                   version: Optional[int] = None,
                   reason: str = "swap") -> str:
        """Atomically replace the incumbent model slot; returns its label.

        The swap takes effect at the next batch boundary: the executor
        captures the slot reference once per batch, so an in-flight batch
        finishes on the old model and every admitted request is answered.
        Any active canary/shadow candidate is discarded — it was being
        compared against a model that no longer serves.
        """
        service = self._make_service(model, SLOT_INCUMBENT)
        with self._lock:
            if self._wedged:
                raise OverloadError(
                    "cannot swap the model slot of a wedged server",
                    reason=SHED_WEDGED,
                )
            previous = self.model_label
            self.service = service
            self._model_name = name
            self._model_version = version
            self._swaps += 1
            self._clear_candidate_locked()
            label = self.model_label
            self.hook.emit(
                "model_swap", model=name,
                version=str(version) if version is not None else label,
                previous=previous, reason=reason, slot=SLOT_INCUMBENT,
            )
        return label

    def start_canary(self, model, *, name: str = "candidate",
                     version: Optional[int] = None,
                     fraction: Optional[float] = None,
                     window: Optional[int] = None,
                     min_samples: Optional[int] = None,
                     margin: Optional[float] = None,
                     mode: str = MODE_CANARY,
                     on_rollback=None) -> str:
        """Install ``model`` as the candidate slot; returns its label.

        In canary mode a deterministic ``fraction`` of batches route to the
        candidate; in shadow mode (``mode="shadow"``) the candidate only
        sees mirrored traffic and never answers a caller.  Health knobs
        default from ``config.registry``.  ``on_rollback`` (optional
        callable, invoked with the :class:`RolloutVerdict` dict) runs after
        an automatic rollback — the CLI uses it to move the registry's
        promotion pointer.
        """
        registry_cfg = self.config.registry
        controller = RolloutController(
            mode,
            fraction=fraction if fraction is not None
            else registry_cfg.canary_fraction,
            window=window if window is not None else registry_cfg.window,
            min_samples=min_samples if min_samples is not None
            else registry_cfg.min_samples,
            margin=margin if margin is not None
            else registry_cfg.rollback_margin,
        )
        service = self._make_service(model, SLOT_CANDIDATE)
        with self._lock:
            if self._wedged:
                raise OverloadError(
                    "cannot start a rollout on a wedged server",
                    reason=SHED_WEDGED,
                )
            if self._candidate_service is not None:
                raise OverloadError(
                    f"a candidate ({self.candidate_label}) is already being "
                    "rolled out", reason="rollout",
                )
            self._candidate_service = service
            self._candidate_name = name
            self._candidate_version = version
            self._rollout = controller
            self._on_rollback = on_rollback
            label = self.candidate_label
            self.hook.emit(
                "model_swap", model=name,
                version=str(version) if version is not None else label,
                previous=self.model_label, reason=mode, slot=SLOT_CANDIDATE,
            )
        return label

    def promote_candidate(self, reason: str = "promote") -> str:
        """Swap the candidate into the incumbent slot; returns its label.

        Promotion is caller-driven — the controller only ever *rolls back*
        automatically.  The swap is atomic at the batch boundary exactly
        like :meth:`swap_model`, and the promoted model serves through a
        fresh incumbent-slot service with a closed breaker.
        """
        with self._lock:
            if self._candidate_service is None or self._rollout is None:
                raise OverloadError(
                    "no candidate rollout to promote", reason="rollout",
                )
            rates = self._rollout.rates()
            previous = self.model_label
            self.service = self._make_service(
                self._candidate_service.model, SLOT_INCUMBENT)
            self._model_name = self._candidate_name
            self._model_version = self._candidate_version
            self._swaps += 1
            name = self._model_name
            version = self._model_version
            self._clear_candidate_locked()
            label = self.model_label
            self.hook.emit(
                "canary_verdict", model=name, verdict="promote",
                candidate_rate=rates[SLOT_CANDIDATE]["bad_rate"],
                incumbent_rate=rates[SLOT_INCUMBENT]["bad_rate"],
                samples=rates[SLOT_CANDIDATE]["samples"],
            )
            self.hook.emit(
                "model_swap", model=name,
                version=str(version) if version is not None else label,
                previous=previous, reason=reason, slot=SLOT_INCUMBENT,
            )
        return label

    def _clear_candidate_locked(self) -> None:
        self._candidate_service = None
        self._candidate_name = None
        self._candidate_version = None
        self._rollout = None
        self._on_rollback = None

    def _auto_rollback_locked(self, verdict):
        """Discard a regressed candidate; returns the caller's callback."""
        name = self._candidate_name or "candidate"
        from_label = self.candidate_label or name
        callback = self._on_rollback
        self._clear_candidate_locked()
        self._rollbacks += 1
        self.hook.emit(
            "canary_verdict", model=name, verdict="rollback",
            candidate_rate=verdict.candidate_rate,
            incumbent_rate=verdict.incumbent_rate,
            samples=verdict.candidate_samples,
        )
        self.hook.emit(
            "rollback", phase="serving", model=name,
            from_version=from_label, to_version=self.model_label,
            candidate_rate=verdict.candidate_rate,
            incumbent_rate=verdict.incumbent_rate,
            reason="canary_regression",
        )
        if callback is None:
            return None
        payload = verdict.to_dict()
        return lambda: callback(payload)

    def _note_batch_outcome(self, slot: str, clips=(),
                            failures: int = 0) -> None:
        """Feed one batch's health into the rollout window; maybe roll back."""
        callback = None
        with self._lock:
            rollout = self._rollout
            if rollout is None:
                return
            rollout.record(slot, clips)
            if failures:
                rollout.record_failures(slot, failures)
            verdict = rollout.verdict()
            if verdict is not None:
                callback = self._auto_rollback_locked(verdict)
        if callback is not None:
            callback()  # registry pointer updates happen outside the lock

    # -- submission ------------------------------------------------------------

    def submit(self, mask: np.ndarray, tenant: str = DEFAULT_TENANT,
               deadline_s=_CONFIG_DEADLINE) -> ServeFuture:
        """Enqueue one clip; returns a future that always resolves.

        Load shedding (tenant quota, full queue, fair-share eviction)
        resolves the future immediately with a typed
        :class:`~repro.errors.OverloadError` — check ``future.error()``.
        Only *server-level* refusal raises from here: submitting to a
        server that is shutting down or wedged.
        """
        future = ServeFuture()
        with self._lock:
            if self._wedged:
                raise OverloadError(
                    "server executor is wedged", reason=SHED_WEDGED
                )
            if self._state in (STATE_DRAINING, STATE_CLOSED):
                raise OverloadError(
                    "server is shutting down", reason=SHED_SHUTDOWN
                )
            if deadline_s is _CONFIG_DEADLINE:
                deadline_s = self.server_config.default_deadline_s
            request = ServeRequest(
                self._next_request, tenant, np.asarray(mask),
                Deadline(deadline_s, clock=self.clock), future,
            )
            self._next_request += 1
            self.tenancy.note_submitted(tenant)
            if self.tenancy.quota_exceeded(tenant):
                self._shed_locked(
                    request, SHED_QUOTA,
                    f"tenant {tenant!r} is at its max_queued cap",
                )
                return future
            if self._queue.full and not self._make_room_locked(tenant):
                try:
                    self._queue.push(request)  # counts the shed, fires on_full
                except OverloadError:
                    pass
                self._shed_locked(
                    request, SHED_OVERLOAD,
                    f"queue full ({self._queue.capacity} requests)",
                )
                return future
            self._queue.push(request)
            self.tenancy.note_enqueued(tenant)
            self.hook.emit("queue_depth", depth=self._queue.depth())
            self._work.notify_all()
        return future

    def _make_room_locked(self, arriving: str) -> bool:
        """Fair shedding: evict a queued request of an over-share tenant.

        Returns True when a slot was freed for ``arriving``.  The victim is
        the tenant furthest over its proportional fair share; its *newest*
        queued request is evicted (oldest requests are closest to being
        served — evicting the newcomer's peer minimizes wasted queue time).
        """
        victim_tenant = self.tenancy.pick_victim(
            self._queue.capacity, arriving
        )
        if victim_tenant is None:
            return False
        victim: Optional[ServeRequest] = None
        for queued in reversed(self._queue.snapshot()):
            if queued.tenant == victim_tenant:
                victim = queued
                break
        if victim is None or not self._queue.remove(victim):
            return False
        self.tenancy.note_dequeued(victim.tenant)
        self._shed_locked(
            victim, SHED_EVICTED,
            f"evicted for tenant {arriving!r} under fair shedding",
        )
        return True

    def _shed_locked(self, request: ServeRequest, reason: str,
                     detail: str) -> None:
        """Answer one request with a typed overload error and account it."""
        error: ServingError
        if reason == SHED_DEADLINE:
            error = DeadlineError(
                detail, clip=request.request, reason=reason
            )
        else:
            error = OverloadError(detail, clip=request.request, reason=reason)
        if request.future.set_error(error):
            self.tenancy.note_shed(request.tenant)
            self.hook.emit("shed", request=request.request,
                           tenant=request.tenant, reason=reason)

    # -- the batcher -----------------------------------------------------------

    def _batcher_loop(self) -> None:
        while True:
            collected = self._collect_batch()
            if collected is None:
                return
            requests, waited_s = collected
            self._execute_batch(requests, waited_s)

    def _collect_batch(self):
        """Block until requests are queued; None means the loop should exit.

        Takes whatever is queued, up to ``serving.micro_batch`` requests,
        without waiting for more, so each batch is one forward pass.
        """
        with self._work:
            while self._queue.depth() == 0:
                if self._state != STATE_RUNNING or self._wedged:
                    return None
                self._work.wait(0.05)
            if self._wedged or self._state == STATE_CLOSED:
                return None
            opened = self.clock()
            requests = self._queue.pop_many(self.config.serving.micro_batch)
            for request in requests:
                self.tenancy.note_dequeued(request.tenant)
            self._inflight = list(requests)
            self.hook.emit("queue_depth", depth=self._queue.depth())
            return requests, self.clock() - opened

    def _interruptible_sleep(self, seconds: float) -> None:
        """A fault-injected stall the watchdog/shutdown can cut short."""
        self._interrupt.wait(seconds)

    def _execute_batch(self, requests: List[ServeRequest],
                       waited_s: float) -> None:
        try:
            self._execute_batch_inner(requests, waited_s)
        finally:
            # Nothing may leave the executor unanswered, whatever happened.
            self._finish_batch(requests)

    def _execute_batch_inner(self, requests: List[ServeRequest],
                             waited_s: float) -> None:
        batch_index = self._batches
        self._batches += 1

        if self.faults is not None:
            delay = self.faults.batch_delay(batch_index)
            if delay > 0:
                self._interruptible_sleep(delay)
            wedge = self.faults.wedge_delay(batch_index)
            if wedge > 0:
                self._interruptible_sleep(wedge)

        # Requests answered while we slept (watchdog) or already past their
        # deadline are settled without touching the model.
        live: List[ServeRequest] = []
        for request in requests:
            if request.future.done():
                continue
            if request.deadline.exceeded():
                with self._lock:
                    self._shed_locked(
                        request, SHED_DEADLINE,
                        f"deadline ({request.deadline.seconds}s) expired "
                        "before the batch executed",
                    )
                continue
            live.append(request)
        if not live or self._wedged:
            return

        budgets = [
            request.deadline.remaining() for request in live
            if request.deadline.seconds is not None
        ]
        batch_deadline = min(budgets) if budgets else None
        masks = [request.mask for request in live]
        faults = (
            _BatchFaults(self.faults, [r.request for r in live])
            if self.faults is not None else None
        )
        # The batch boundary: capture the serving slot exactly once.  A
        # concurrent swap_model replaces self.service for *later* batches;
        # this one finishes on the model it started with.
        with self._lock:
            rollout = self._rollout
            candidate = self._candidate_service
            shadow = (
                candidate if rollout is not None
                and rollout.mode == MODE_SHADOW else None
            )
            if (rollout is not None and candidate is not None
                    and rollout.route_to_candidate()):
                service, slot = candidate, SLOT_CANDIDATE
            else:
                service, slot = self.service, SLOT_INCUMBENT
        with self.tracer.span(
            "batch_coalesce", batch=batch_index, size=len(live),
            waited_ms=waited_s * 1000.0, queue_depth=self._queue.depth(),
            slot=slot,
        ):
            try:
                report = service.serve_batch(
                    masks, deadline_s=batch_deadline, faults=faults,
                )
            except ReproError as exc:
                for request in live:
                    if isinstance(exc, ServingError):
                        error: ServingError = type(exc)(
                            str(exc), clip=request.request,
                            reason=exc.reason or "batch",
                        )
                    else:
                        error = OverloadError(
                            f"batch execution failed: {exc}",
                            clip=request.request, reason="batch",
                        )
                    request.future.set_error(error)
                # A crashing slot is maximally bad news for its window.
                self._note_batch_outcome(slot, failures=len(live))
                return

        served = {clip.clip: clip for clip in report.served}
        rejected = {rej.clip: rej for rej in report.rejections}
        for position, request in enumerate(live):
            if position in served:
                clip = dataclasses.replace(
                    served[position], clip=request.request
                )
                if request.future.set_result(clip):
                    self.tenancy.note_served(request.tenant)
            elif position in rejected:
                rejection = rejected[position]
                error = type(rejection.error)(
                    str(rejection.error), clip=request.request,
                    reason=rejection.reason,
                )
                request.future.set_error(error)
        self._note_batch_outcome(slot, report.served)
        if shadow is not None:
            self._mirror_batch(shadow, masks, batch_deadline)

    def _mirror_batch(self, candidate: InferenceService,
                      masks: List[np.ndarray],
                      batch_deadline: Optional[float]) -> None:
        """Shadow mode: run the candidate on mirrored inputs, stats only.

        Every caller was already answered from the incumbent before this
        runs; nothing the candidate does here — good, degenerate, or a
        crash — can affect a response.  Faults are *not* mirrored: shadow
        scores the candidate's own behavior on clean inputs.
        """
        try:
            report = candidate.serve_batch(masks, deadline_s=batch_deadline)
        except ReproError:
            self._note_batch_outcome(SLOT_CANDIDATE, failures=len(masks))
            return
        self._note_batch_outcome(SLOT_CANDIDATE, report.served)

    def _finish_batch(self, requests: List[ServeRequest]) -> None:
        with self._lock:
            # Nothing may leave the executor unanswered, whatever happened.
            for request in requests:
                if not request.future.done():
                    self._shed_locked(
                        request, SHED_WEDGED,
                        "request left unanswered by the executor",
                    )
            self._inflight = []
            self._last_progress = self.clock()
            self._work.notify_all()

    # -- the watchdog ----------------------------------------------------------

    def _watchdog_loop(self) -> None:
        poll = max(min(self.server_config.watchdog_s / 10.0, 0.05), 0.005)
        stall_started: Optional[float] = None
        seen_progress = self._last_progress
        while not self._watchdog_stop.wait(poll):
            with self._lock:
                pending = bool(self._inflight) or self._queue.depth() > 0
                progress = self._last_progress
            # Stall time is measured on the injected clock so wedge drills
            # advance a fake clock; the poll above is only a wakeup cadence.
            now = self.clock()
            if not pending or progress != seen_progress:
                seen_progress = progress
                stall_started = now if pending else None
                continue
            if stall_started is None:
                stall_started = now
                continue
            if now - stall_started >= self.server_config.watchdog_s:
                self._declare_wedged()
                return

    def _declare_wedged(self) -> None:
        """Fail every pending request; refuse all future work."""
        with self._lock:
            self._wedged = True
            queued = self._queue.pop_many(self._queue.depth())
            for request in queued:
                self.tenancy.note_dequeued(request.tenant)
            victims = list(self._inflight) + queued
            self._inflight = []
            for request in victims:
                self._shed_locked(
                    request, SHED_WEDGED,
                    f"executor made no progress for "
                    f"{self.server_config.watchdog_s}s",
                )
            self.hook.emit("queue_depth", depth=self._queue.depth())
            self._interrupt.set()
            self._work.notify_all()

    # -- shutdown --------------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop intake; drain (default) or shed the queue; join the threads.

        After ``close`` returns, every request ever accepted by
        :meth:`submit` has a resolved future.
        """
        with self._lock:
            if self._state == STATE_CLOSED:
                return
            started = self._state == STATE_RUNNING
            self._state = STATE_DRAINING if drain else STATE_CLOSED
            if not drain:
                for request in self._queue.pop_many(self._queue.depth()):
                    self.tenancy.note_dequeued(request.tenant)
                    self._shed_locked(
                        request, SHED_SHUTDOWN, "server closed without drain"
                    )
                self.hook.emit("queue_depth", depth=self._queue.depth())
            self._work.notify_all()
        if started and self._batcher is not None:
            self._batcher.join(timeout=self.server_config.drain_timeout_s)
        self._watchdog_stop.set()
        self._interrupt.set()
        with self._lock:
            self._state = STATE_CLOSED
            leftovers = self._queue.pop_many(self._queue.depth())
            for request in leftovers:
                self.tenancy.note_dequeued(request.tenant)
            leftovers.extend(self._inflight)
            self._inflight = []
            for request in leftovers:
                self._shed_locked(
                    request, SHED_SHUTDOWN,
                    "drain timeout expired before the request was served",
                )
            self.hook.emit("queue_depth", depth=self._queue.depth())
            self._work.notify_all()
        if started and self._batcher is not None:
            self._batcher.join(timeout=1.0)
        if started and self._watchdog is not None:
            self._watchdog.join(timeout=1.0)

    # -- introspection ---------------------------------------------------------

    def stats(self) -> "ServerStats":
        with self._lock:
            tenants = self.tenancy.snapshot()
            rollout = self._rollout
            return ServerStats(
                state=self._state,
                wedged=self._wedged,
                submitted=sum(t["submitted"] for t in tenants.values()),
                served=sum(t["served"] for t in tenants.values()),
                shed=sum(t["shed"] for t in tenants.values()),
                batches=self._batches,
                queue_depth=self._queue.depth(),
                queue_high_water=self._queue.high_water,
                queue_shed=self._queue.shed,
                breaker_state=self.service.breaker.state,
                tenants=tenants,
                model=self.model_label,
                candidate=self.candidate_label,
                rollout_mode=rollout.mode if rollout is not None else None,
                rollout_rates=rollout.rates() if rollout is not None else None,
                swaps=self._swaps,
                rollbacks=self._rollbacks,
            )


@dataclass(frozen=True)
class ServerStats:
    """A point-in-time snapshot of server health and tenant accounting."""

    state: str
    wedged: bool
    submitted: int
    served: int
    shed: int
    batches: int
    queue_depth: int
    queue_high_water: int
    queue_shed: int
    breaker_state: str
    tenants: Dict[str, dict]
    model: str = "model"
    candidate: Optional[str] = None
    rollout_mode: Optional[str] = None
    rollout_rates: Optional[Dict[str, dict]] = None
    swaps: int = 0
    rollbacks: int = 0

    @property
    def answered(self) -> int:
        return self.served + self.shed

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# Sustained-load soak harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SoakReport:
    """What one ramping-QPS soak produced; the body of ``serve --report``."""

    duration_s: float
    qps_start: float
    qps_end: float
    submitted: int
    served: int
    shed: int
    deadline_expired: int
    refused: int
    unanswered: int
    batches: int
    wedged: bool
    throughput_clips_per_s: float
    latency_p50_ms: Optional[float]
    latency_p99_ms: Optional[float]
    shed_by_reason: Dict[str, int] = field(default_factory=dict)
    tenants: Dict[str, dict] = field(default_factory=dict)
    model: str = "model"
    swaps: int = 0
    rollbacks: int = 0

    @property
    def answered(self) -> int:
        return self.served + self.shed + self.deadline_expired

    @property
    def shed_rate(self) -> float:
        if self.submitted == 0:
            return 0.0
        return self.shed / self.submitted

    def fairness_gap(self) -> float:
        """Max spread of per-tenant shed rates (equal-weight tenants).

        Under proportional fair shedding, equal-weight tenants submitting
        comparable load should shed at comparable rates; the gap between
        the hardest- and lightest-shed tenant is the fairness audit the
        soak drill bounds.
        """
        rates = [
            t["shed"] / t["submitted"]
            for t in self.tenants.values() if t["submitted"] > 0
        ]
        if len(rates) < 2:
            return 0.0
        return max(rates) - min(rates)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["answered"] = self.answered
        out["shed_rate"] = self.shed_rate
        out["fairness_gap"] = self.fairness_gap()
        return out


def _quantile_ms(latencies: List[float], q: float) -> Optional[float]:
    if not latencies:
        return None
    return float(np.quantile(np.asarray(latencies), q) * 1000.0)


def run_soak(server: InferenceServer, masks: Sequence[np.ndarray], *,
             duration_s: float = 5.0, qps_start: float = 20.0,
             qps_end: float = 100.0,
             tenants: Sequence[str] = (DEFAULT_TENANT,),
             deadline_s=_CONFIG_DEADLINE) -> SoakReport:
    """Drive a ramping-QPS synthetic load, drain, and audit the answers.

    Submissions cycle round-robin over ``masks`` and ``tenants``; the
    instantaneous rate ramps linearly from ``qps_start`` to ``qps_end``
    over ``duration_s``.  When the ramp ends the server is closed with a
    full drain, so ``unanswered`` *must* come back 0 — any other value
    means the serving loop dropped a request, which is the one thing it
    may never do.  The server is left closed; a soak is a destructive
    audit, not a health check.
    """
    if duration_s <= 0:
        raise OverloadError(
            f"soak duration must be > 0, got {duration_s}", reason="config"
        )
    if qps_start <= 0 or qps_end <= 0:
        raise OverloadError(
            "soak QPS bounds must be > 0, got "
            f"({qps_start}, {qps_end})", reason="config"
        )
    if not masks:
        raise OverloadError("soak needs at least one mask", reason="config")
    server.start()
    futures: List[Tuple[ServeFuture, float, str]] = []
    refused = 0
    start = MONOTONIC_CLOCK()
    index = 0
    while True:
        now = MONOTONIC_CLOCK()
        elapsed = now - start
        if elapsed >= duration_s:
            break
        qps = qps_start + (qps_end - qps_start) * (elapsed / duration_s)
        mask = masks[index % len(masks)]
        tenant = tenants[index % len(tenants)]
        try:
            if deadline_s is _CONFIG_DEADLINE:
                future = server.submit(mask, tenant=tenant)
            else:
                future = server.submit(
                    mask, tenant=tenant, deadline_s=deadline_s
                )
            futures.append((future, now, tenant))
        except OverloadError:
            # Wedged or shutting down: the request was never admitted.
            refused += 1
        index += 1
        interval = 1.0 / qps
        spent = MONOTONIC_CLOCK() - now
        if interval > spent:
            time.sleep(interval - spent)

    server.close(drain=True)

    served = 0
    shed = 0
    deadline_expired = 0
    unanswered = 0
    shed_by_reason: Dict[str, int] = {}
    latencies: List[float] = []
    for future, submitted_at, _tenant in futures:
        if not future.done():
            unanswered += 1
            continue
        error = future.error()
        if error is None:
            served += 1
            latencies.append(future.resolved_at - submitted_at)
        elif isinstance(error, DeadlineError):
            deadline_expired += 1
        else:
            shed += 1
            reason = error.reason or "unknown"
            shed_by_reason[reason] = shed_by_reason.get(reason, 0) + 1
    wall = MONOTONIC_CLOCK() - start
    stats = server.stats()
    return SoakReport(
        duration_s=wall,
        qps_start=qps_start,
        qps_end=qps_end,
        submitted=len(futures),
        served=served,
        shed=shed,
        deadline_expired=deadline_expired,
        refused=refused,
        unanswered=unanswered,
        batches=stats.batches,
        wedged=stats.wedged,
        throughput_clips_per_s=served / wall if wall > 0 else 0.0,
        latency_p50_ms=_quantile_ms(latencies, 0.50),
        latency_p99_ms=_quantile_ms(latencies, 0.99),
        shed_by_reason=shed_by_reason,
        tenants=stats.tenants,
        model=stats.model,
        swaps=stats.swaps,
        rollbacks=stats.rollbacks,
    )
