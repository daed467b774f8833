"""Telemetry events: the one event table and the JSONL run log.

:data:`EVENTS` is the one place an event is defined.  Each :class:`Event`
row gives the event's name, a one-line description, its required fields
with their checks, its metric side effects, and what it adds to
``repro report``.  Everything else reads the table: producers call
``hook.emit(event, **fields)``
(:class:`~repro.telemetry.hooks.TelemetryHook`), the
:class:`~repro.telemetry.hooks.RunLoggerHook` bridge writes the line and
applies the metrics, :func:`validate_run_log` checks the fields, and
:func:`~repro.telemetry.report.build_report` checks them too before it
applies the report tallies.

A :class:`RunLogger` appends one JSON object per line to a log file, flushing
after every event so a killed run still leaves a readable prefix.  Events are
schema-versioned and carry a monotonically-assigned run ID plus a per-run
sequence number, so multiple runs can share one log file and still be teased
apart afterwards.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (IO, Any, Callable, Dict, List, Mapping, Optional, Tuple,
                    Union)

from ..errors import TelemetryError
from .metrics import MetricsRegistry

#: bump when the event record layout changes incompatibly
SCHEMA_VERSION = 1

#: decisions a canary_verdict event may record
CANARY_VERDICTS = ("promote", "rollback")

#: terminal states a trial_end event may record
TRIAL_STATUSES = ("completed", "failed", "interrupted")

#: circuit-breaker states and the transitions a valid serve log may record
BREAKER_STATES = ("closed", "open", "half_open")
BREAKER_TRANSITIONS = (
    ("closed", "open"),
    ("open", "half_open"),
    ("half_open", "closed"),
    ("half_open", "open"),
)

Check = Callable[[Any], bool]
MetricEffect = Callable[[MetricsRegistry, Mapping[str, Any]], None]
#: ``repro report``'s sections, ``{section: {key: tally}}``
Sections = Dict[str, Dict[str, Any]]
#: adds one checked record to the report's sections
ReportTally = Callable[[Sections, Mapping[str, Any]], None]


# -- field checks -------------------------------------------------------------

def _integer(value: Any) -> bool:
    return isinstance(value, int)


def _count(value: Any) -> bool:
    return isinstance(value, int) and value >= 0


def _positive(value: Any) -> bool:
    return isinstance(value, int) and value >= 1


def _seconds(value: Any) -> bool:
    return isinstance(value, (int, float)) and value >= 0


def _number(value: Any) -> bool:
    return isinstance(value, (int, float))


def _given(value: Any) -> bool:
    return bool(value)


def _one_of(*choices: str) -> Check:
    return lambda value: value in choices


# -- record rules (fields checked against each other) -------------------------

def _within_total(record: Mapping[str, Any]) -> Optional[str]:
    if record["quarantined"] > record["total"]:
        return (f"quarantines {record['quarantined']} of only "
                f"{record['total']} records")
    return None


def _serving_names_model(record: Mapping[str, Any]) -> Optional[str]:
    if record["phase"] == "serving" and not record.get("model"):
        return "rolls back serving without naming its model"
    return None


def _at_capacity(record: Mapping[str, Any]) -> Optional[str]:
    if record["depth"] < record["capacity"]:
        return (f"records depth {record['depth']} below capacity "
                f"{record['capacity']} — the queue was not full")
    return None


# -- metric side effects ------------------------------------------------------

def _inc(name: str, *labels: str,
         amount: Optional[str] = None) -> MetricEffect:
    """Count one (or the ``amount`` field) into ``name``, labeled by fields."""
    def effect(registry: MetricsRegistry, fields: Mapping[str, Any]) -> None:
        registry.counter(name, labels={key: fields[key] for key in labels}
                         ).inc(fields[amount] if amount else 1)
    return effect


def _observe(name: str, value: str, *labels: str) -> MetricEffect:
    """Observe the ``value`` field in histogram ``name``."""
    def effect(registry: MetricsRegistry, fields: Mapping[str, Any]) -> None:
        registry.histogram(name, labels={key: fields[key] for key in labels}
                           ).observe(fields[value])
    return effect


def _set(name: str, value: str) -> MetricEffect:
    """Set gauge ``name`` to the ``value`` field."""
    def effect(registry: MetricsRegistry, fields: Mapping[str, Any]) -> None:
        registry.gauge(name).set(fields[value])
    return effect


def _rollback_counter(registry: MetricsRegistry,
                      fields: Mapping[str, Any]) -> None:
    if fields["phase"] == "serving":
        registry.counter("serve_rollbacks_total",
                         labels={"model": fields["model"]}).inc()
    else:
        registry.counter("rollbacks_total",
                         labels={"phase": fields["phase"]}).inc()


def _breaker_gauge(registry: MetricsRegistry,
                   fields: Mapping[str, Any]) -> None:
    # a model_swap naming a slot gives that slot a new, closed breaker
    if fields.get("slot"):
        code = {"closed": 0, "half_open": 1, "open": 2}.get(
            fields.get("to_state", "closed"), -1)
        registry.gauge("serve_breaker_state",
                       labels={"slot": fields["slot"]}).set(code)


def _active_version(registry: MetricsRegistry,
                    fields: Mapping[str, Any]) -> None:
    gauge = registry.gauge("serve_active_version",
                           labels={"model": fields["model"]})
    try:
        gauge.set(int(fields["version"]))
    except (TypeError, ValueError):
        pass  # unversioned (inline) models have no numeric version


def _trial_outcome(registry: MetricsRegistry,
                   fields: Mapping[str, Any]) -> None:
    if fields["status"] in ("completed", "failed"):
        registry.counter(f"sweep_trials_{fields['status']}_total").inc()


# -- report tallies -----------------------------------------------------------

def _tally(section: str, key: str,
           amount: Optional[str] = None) -> ReportTally:
    """Add one (or the ``amount`` field) to ``section[key]``."""
    def tally(report: Sections, fields: Mapping[str, Any]) -> None:
        report[section][key] += fields[amount] if amount else 1
    return tally


def _tally_by(section: str, key: str, label: str) -> ReportTally:
    """Count one under the ``label`` field's value in ``section[key]``."""
    def tally(report: Sections, fields: Mapping[str, Any]) -> None:
        counts = report[section][key]
        name = str(fields[label])
        counts[name] = counts.get(name, 0) + 1
    return tally


def _stage_totals(report: Sections, fields: Mapping[str, Any]) -> None:
    stats = report["stages"].setdefault(
        str(fields["stage"]), {"seconds": 0.0, "count": 0})
    stats["seconds"] += float(fields["seconds"])
    # a stage_end aggregates count spans of that stage
    stats["count"] += int(fields.get("count") or 1)


def _serving_rollback(report: Sections, fields: Mapping[str, Any]) -> None:
    if fields["phase"] == "serving":
        report["serving"]["rollbacks"] += 1


def _trial_digest(report: Sections, fields: Mapping[str, Any]) -> None:
    report["sweep"]["digests"].add(str(fields["digest"]))


def _trial_status(report: Sections, fields: Mapping[str, Any]) -> None:
    report["sweep"][fields["status"]] += 1


def _ilt_outcome(report: Sections, fields: Mapping[str, Any]) -> None:
    ilt = report["ilt"]
    if fields.get("improved"):
        ilt["improved"] += 1
    ilt["epes"].append(float(fields["epe_ilt_nm"]))


# -- the table ----------------------------------------------------------------

@dataclass(frozen=True)
class Event:
    """One row of the event table.

    ``fields`` maps each required field to its check; ``rule`` (optional)
    checks a record whose fields passed and returns a problem or None.
    ``metrics`` run on every emit through a registry-backed bridge;
    ``report`` tallies add each checked record to ``repro report``.
    Rows with ``logged=False`` only feed metrics and write no log line.
    """

    name: str
    doc: str
    fields: Mapping[str, Check]
    metrics: Tuple[MetricEffect, ...] = ()
    report: Tuple[ReportTally, ...] = ()
    rule: Optional[Callable[[Mapping[str, Any]], Optional[str]]] = None
    logged: bool = True


EVENTS: Dict[str, Event] = {row.name: row for row in (
    Event("run_start", "First event of a run: command, node, seed, build.",
          {}),
    Event("epoch_end", "One training epoch: phase, losses, wall seconds.",
          {"epoch": _integer, "phase": _given, "seconds": _seconds},
          (_observe("train_epoch_seconds", "seconds", "phase"),
           _inc("train_epochs_total", "phase"))),
    Event("checkpoint", "A training checkpoint was written to path.",
          {"phase": _given, "epoch": _integer, "path": _given},
          (_inc("checkpoints_total", "phase"),)),
    Event("rollback", "Divergence recovery, a canary or an operator rolled "
          "state back.",
          {"phase": _given}, (_rollback_counter,),
          report=(_tally("incidents", "rollbacks"), _serving_rollback),
          rule=_serving_names_model),
    Event("stage_end", "Total seconds and span count of one traced stage.",
          {"stage": _given, "seconds": _seconds}, report=(_stage_totals,)),
    Event("eval_end", "Evaluation summary: a machine-readable Table 3 row.",
          {}, (_inc("evals_total"),)),
    Event("admission", "Serve-batch admission: admitted, rejected, "
          "sanitized counts.",
          {"admitted": _count, "rejected": _count},
          (_inc("serve_admitted_total", amount="admitted"),
           _inc("serve_rejected_total", amount="rejected")),
          report=(_tally("incidents", "rejected_inputs", amount="rejected"),)),
    Event("clip_served", "One clip was answered: provenance and seconds.",
          {},
          (_inc("serve_clips_total", "provenance"),
           _observe("serve_clip_seconds", "seconds")),
          logged=False),
    Event("fallback", "A served clip degraded to the simulator; names the "
          "cause.",
          {"clip": _integer, "cause": _given},
          (_inc("serve_fallbacks_total", "cause"),),
          report=(_tally("incidents", "fallbacks"),)),
    Event("breaker", "A serving slot's circuit breaker changed state.",
          {"slot": _given,
           "from_state": _one_of(*BREAKER_STATES),
           "to_state": _one_of(*BREAKER_STATES)},
          (_breaker_gauge, _inc("serve_breaker_transitions_total",
                                "slot", "to_state")),
          report=(_tally("incidents", "breaker_transitions"),)),
    Event("queue_full", "The serving work queue refused a push at capacity.",
          {"depth": _count, "capacity": _count},
          (_inc("serve_queue_full_total"),), rule=_at_capacity),
    Event("shed", "A serving-loop request was refused or evicted.",
          {"request": _integer, "tenant": _given, "reason": _given},
          (_inc("serve_shed_total", "tenant"),),
          report=(_tally("incidents", "requests_shed"),
                  _tally_by("serving", "sheds_by_tenant", "tenant"))),
    Event("queue_depth", "The serving-loop queue depth after a transition.",
          {}, (_set("serve_queue_depth", "depth"),), logged=False),
    Event("model_swap", "A model filled a serving slot (named by slot) at "
          "a batch boundary, or a registry pointer moved (no slot).",
          {"model": _given, "version": _given, "reason": _given},
          (_inc("serve_model_swaps_total", "model"), _active_version,
           _breaker_gauge),
          report=(_tally("serving", "swaps"),)),
    Event("canary_verdict", "A canary or shadow rollout reached a verdict.",
          {"model": _given, "verdict": _one_of(*CANARY_VERDICTS)},
          (_inc("serve_canary_verdicts_total", "verdict"),),
          report=(_tally_by("serving", "canary_verdicts", "verdict"),)),
    Event("data_quarantine", "A dataset integrity pass quarantined records.",
          {"quarantined": _count, "total": _count},
          (_inc("data_records_quarantined_total", amount="quarantined"),
           _inc("data_validations_total")),
          report=(_tally("incidents", "records_quarantined",
                         amount="quarantined"),),
          rule=_within_total),
    Event("data_repair", "Quarantined records were re-synthesized and "
          "verified.",
          {"repaired": _count},
          (_inc("data_records_repaired_total", amount="repaired"),),
          report=(_tally("incidents", "records_repaired",
                         amount="repaired"),)),
    Event("worker_crash", "A parallel worker died, timed out, or raised.",
          {"shard": _count, "task": _given},
          (_inc("parallel_worker_failures_total", "task"),),
          report=(_tally("incidents", "worker_crashes"),)),
    Event("trial_start", "A sweep trial attempt began (attempt is 1-based).",
          {"digest": _given, "attempt": _positive}, report=(_trial_digest,)),
    Event("trial_retry", "A failed sweep trial attempt will be retried.",
          {"digest": _given, "attempt": _positive, "reason": _given},
          (_inc("sweep_trials_retried_total", "reason"),),
          report=(_tally_by("sweep", "retries_by_reason", "reason"),)),
    Event("trial_end", "A sweep trial reached a terminal status.",
          {"digest": _given, "status": _one_of(*TRIAL_STATUSES)},
          (_trial_outcome,), report=(_trial_digest, _trial_status)),
    Event("ilt_start", "An ILT run began: clips and steps per clip.",
          {"clips": _positive, "steps": _positive},
          report=(_tally("ilt", "runs"),)),
    Event("ilt_step", "One ILT gradient step and its proxy loss.",
          {"step": _count}, (_inc("ilt_steps_total"),),
          report=(_tally("ilt", "steps"),)),
    Event("ilt_end", "An ILT run finished: verifications and mean EPEs.",
          {"verified": _count, "epe_ilt_nm": _number},
          (_inc("ilt_verifications_total", amount="verified"),
           _set("ilt_epe_nm", "epe_ilt_nm")),
          report=(_tally("ilt", "verifications", amount="verified"),
                  _ilt_outcome)),
    Event("run_end", "Last event of a run: status and total seconds.",
          {"status": _given}),
)}

#: event types a well-formed run log may contain
EVENT_TYPES = tuple(name for name, row in EVENTS.items() if row.logged)

#: process-wide monotonic run-ID source
_RUN_COUNTER = itertools.count(1)


def next_run_id() -> str:
    """A monotonically increasing run identifier.

    The counter gives ordering within a process; the PID salt keeps IDs
    from colliding when several processes append to one shared log file.
    """
    return f"run-{os.getpid()}-{next(_RUN_COUNTER):04d}"


class RunLogger:
    """Incremental JSONL event writer for one run.

    Opens the file in append mode and flushes every record, so concurrent
    tails and post-crash reads both see a valid prefix of the stream.
    Usable as a context manager; closing does *not* implicitly emit
    ``run_end`` — a missing terminal event is the signature of a killed run.
    """

    def __init__(self, path: Union[str, Path],
                 run_id: Optional[str] = None) -> None:
        self.path = Path(path)
        self.run_id = run_id if run_id is not None else next_run_id()
        self._seq = 0
        self._lock = threading.Lock()
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            handle: Optional[IO[str]] = open(self.path, "a", encoding="utf-8")
        except OSError as exc:
            raise TelemetryError(
                f"cannot open run log {self.path}: {exc}"
            ) from exc
        self._handle = handle

    # -- core ---------------------------------------------------------------

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event record and flush; returns the record.

        Thread-safe: ``seq`` is assigned and the line written under one
        lock, so concurrent emitters get unique, file-ordered sequence
        numbers and whole lines.
        """
        if event not in EVENT_TYPES:
            raise TelemetryError(
                f"unknown event type {event!r}; expected one of {EVENT_TYPES}"
            )
        with self._lock:
            if self._handle is None:
                raise TelemetryError(
                    f"RunLogger for {self.path} is closed (run {self.run_id})"
                )
            record: Dict[str, Any] = {
                "schema_version": SCHEMA_VERSION,
                "run_id": self.run_id,
                "seq": self._seq,
                "time_unix": time.time(),
                "event": event,
            }
            record.update(fields)
            self._handle.write(json.dumps(record, sort_keys=False) + "\n")
            self._handle.flush()
            self._seq += 1
        return record

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    @property
    def closed(self) -> bool:
        return self._handle is None

    def __enter__(self) -> "RunLogger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_run_log(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a JSONL run log, tolerating a truncated final line.

    A run killed mid-write leaves at most one torn record at the end of the
    file; that trailing garbage is dropped, but corruption anywhere *else*
    raises :class:`TelemetryError` (it means something other than a crash
    mangled the log).
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    events: List[Dict[str, Any]] = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                break  # torn final write from a killed run
            raise TelemetryError(
                f"corrupt run log {path}: undecodable line {index + 1}"
            )
        if not isinstance(record, dict):
            raise TelemetryError(
                f"corrupt run log {path}: line {index + 1} is not an object"
            )
        events.append(record)
    return events


def split_runs(events: List[Dict[str, Any]]) -> List[List[Dict[str, Any]]]:
    """Group a (possibly multi-run) event stream into per-run event lists.

    A new run begins at every ``run_start``; events before the first
    ``run_start`` (the tail of a previously truncated run) form their own
    leading group.
    """
    runs: List[List[Dict[str, Any]]] = []
    for record in events:
        if record.get("event") == "run_start" or not runs:
            runs.append([])
        runs[-1].append(record)
    return runs


def _check_fields(row: Event, record: Mapping[str, Any], index: int) -> None:
    for key, check in row.fields.items():
        if key not in record:
            raise TelemetryError(f"{row.name} {index} is missing {key!r}")
        if not check(record[key]):
            raise TelemetryError(
                f"{row.name} {index} has bad {key} {record[key]!r}"
            )
    problem = row.rule(record) if row.rule is not None else None
    if problem:
        raise TelemetryError(f"{row.name} {index} {problem}")


def validate_run_log(events: List[Dict[str, Any]],
                     require_run_end: bool = True) -> None:
    """Check that an event list is a well-formed single-run stream.

    Every record needs the envelope (consistent schema version and run ID)
    and a logged event type from :data:`EVENTS`, whose row's field checks
    it must pass.  Four rules span events: ``seq`` strictly increases;
    epochs strictly increase within a phase, except that a ``rollback``
    rewinds its phase to the restored epoch; each slot's ``breaker``
    transitions follow the closed/open/half-open state machine from a
    closed breaker, which a ``model_swap`` naming the slot closes again;
    and (unless ``require_run_end=False``, for
    crash-truncated logs) the stream opens with ``run_start`` and ends
    with ``run_end``.  Raises
    :class:`TelemetryError` on the first violation.
    """
    if not events:
        raise TelemetryError("run log contains no events")
    first = events[0]
    if first.get("event") != "run_start":
        raise TelemetryError(
            f"run log must open with run_start, got {first.get('event')!r}"
        )
    run_id = first.get("run_id")
    last_seq = -1
    last_epoch: Dict[str, int] = {}
    # every slot's breaker starts a serve run closed
    breaker_states: Dict[str, str] = {}
    for index, record in enumerate(events):
        for key in ("schema_version", "run_id", "seq", "event", "time_unix"):
            if key not in record:
                raise TelemetryError(f"event {index} missing {key!r}: {record}")
        if record["schema_version"] != SCHEMA_VERSION:
            raise TelemetryError(
                f"event {index} has schema_version {record['schema_version']}, "
                f"expected {SCHEMA_VERSION}"
            )
        if record["run_id"] != run_id:
            raise TelemetryError(
                f"event {index} belongs to run {record['run_id']!r}, "
                f"expected {run_id!r}"
            )
        event = record["event"]
        if event not in EVENT_TYPES:
            raise TelemetryError(f"event {index} has unknown type {event!r}")
        if record["seq"] <= last_seq:
            raise TelemetryError(
                f"event {index} seq {record['seq']} not after {last_seq}"
            )
        last_seq = record["seq"]
        _check_fields(EVENTS[event], record, index)
        if event == "epoch_end":
            phase, epoch = record["phase"], record["epoch"]
            if epoch <= last_epoch.get(phase, 0):
                raise TelemetryError(
                    f"epoch_end {index} epoch {epoch} does not increase "
                    f"within phase {phase!r}"
                )
            last_epoch[phase] = epoch
        elif event == "rollback":
            # Recovery rewound this phase; later epoch_end events may repeat
            # epochs after the restored one.
            restored = record.get("epoch", 0)
            last_epoch[record["phase"]] = (
                restored if isinstance(restored, int) else 0
            )
        elif event == "breaker":
            source, target = record["from_state"], record["to_state"]
            if (source, target) not in BREAKER_TRANSITIONS:
                raise TelemetryError(
                    f"breaker {index} records illegal transition "
                    f"{source!r} -> {target!r}"
                )
            slot = record["slot"]
            state = breaker_states.get(slot, "closed")
            if source != state:
                raise TelemetryError(
                    f"breaker {index} transitions from {source!r} but the "
                    f"{slot} breaker was {state!r}"
                )
            breaker_states[slot] = target
        elif event == "model_swap" and record.get("slot"):
            # a new service fills the slot, with a new closed breaker
            breaker_states[record["slot"]] = "closed"
        elif event == "run_end" and index != len(events) - 1:
            raise TelemetryError("run_end must be the final event")
    if require_run_end and events[-1]["event"] != "run_end":
        raise TelemetryError(
            f"run log ends with {events[-1]['event']!r}, expected run_end "
            "(pass require_run_end=False for crash-truncated logs)"
        )
