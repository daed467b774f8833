"""Run health reports: correlate event logs, traces, metrics, and profiles.

``repro report`` is the human entry point; :func:`build_report` is the
library one.  It takes the artifacts a run leaves behind — the JSONL event
log (required), and optionally the merged Chrome trace, the metrics
snapshot, and a layer profile — and folds them into one :class:`RunReport`:
per-run outcomes, per-stage time breakdown, worker utilization and skew,
incident counts (fallbacks, quarantines, rollbacks, worker crashes, shed
requests), a serving-lifecycle summary (model swaps, canary verdicts,
serving rollbacks, sheds per tenant), sweep and ILT summaries, and the top
hot layers.  What each event adds to those sections is declared by its
row of :data:`~repro.telemetry.events.EVENTS` (``report`` tallies); the
log is read in one fold that applies them.

Reading is **fail-closed**: a corrupt input, or a record of a known event
type that fails its row's field checks or carries a field the report
cannot convert, raises :class:`~repro.errors.TelemetryError` naming the
offending path (the CLI maps that to a non-zero exit), but *unknown event
types* are tolerated and counted — a newer writer must not brick an older
reader.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import TelemetryError
from .events import (EVENT_TYPES, EVENTS, Sections, _check_fields,
                     read_run_log, split_runs)
from .export import validate_chrome_trace
from .profile import ProfileReport

#: export format version for report JSON artifacts
REPORT_SCHEMA_VERSION = 1

#: counter families the report surfaces as headline totals
_HEADLINE_COUNTERS = (
    "parallel_tasks_total",
    "parallel_worker_failures_total",
    "train_epochs_total",
    "rollbacks_total",
    "serve_clips_total",
    "serve_fallbacks_total",
    "serve_model_swaps_total",
    "serve_rollbacks_total",
    "serve_shed_total",
    "data_records_quarantined_total",
    "data_records_repaired_total",
    "sweep_trials_completed_total",
    "sweep_trials_retried_total",
    "sweep_trials_failed_total",
    "ilt_steps_total",
    "ilt_verifications_total",
)


@dataclass(frozen=True)
class RunSummary:
    """One run's outcome, distilled from its event slice."""

    run_id: str
    command: str
    status: str           # run_end status, or "truncated" if none arrived
    seconds: float
    events: int
    build: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "command": self.command,
            "status": self.status,
            "seconds": self.seconds,
            "events": self.events,
            "build": dict(self.build),
        }


@dataclass(frozen=True)
class WorkerUsage:
    """Busy time one worker lane accumulated across ``parallel_shard`` spans."""

    worker: str
    shards: int
    busy_s: float

    def to_dict(self) -> dict:
        return {
            "worker": self.worker,
            "shards": self.shards,
            "busy_s": self.busy_s,
        }


def _sorted_section(section: Dict[str, Any]) -> dict:
    """A section with its keys, and those of its nested counts, sorted."""
    return {key: dict(sorted(value.items())) if isinstance(value, dict)
            else value for key, value in sorted(section.items())}


@dataclass(frozen=True)
class RunReport:
    """The correlated health report ``repro report`` renders."""

    runs: Tuple[RunSummary, ...]
    stages: Dict[str, Dict[str, float]]
    incidents: Dict[str, int]
    unknown_events: int
    workers: Tuple[WorkerUsage, ...] = ()
    worker_skew: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    hot_layers: Tuple[dict, ...] = ()
    profile_forward_s: float = 0.0
    profile_backward_s: float = 0.0
    sources: Dict[str, str] = field(default_factory=dict)
    #: serving-lifecycle summary: model swaps, canary verdicts, serving
    #: rollbacks, and requests shed per tenant
    serving: Dict[str, Any] = field(default_factory=dict)
    #: sweep-health summary: distinct trials seen, terminal statuses, and
    #: retry counts per failure reason
    sweep: Dict[str, Any] = field(default_factory=dict)
    #: inverse-lithography summary: runs, gradient steps, simulator
    #: verifications, mean EPE, and how many runs improved on rule OPC
    ilt: Dict[str, Any] = field(default_factory=dict)

    @property
    def healthy(self) -> bool:
        """True when every run completed with an ``ok`` status."""
        return bool(self.runs) and all(
            run.status == "ok" for run in self.runs
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "healthy": self.healthy,
            "runs": [run.to_dict() for run in self.runs],
            "stages": {name: dict(stats)
                       for name, stats in sorted(self.stages.items())},
            "incidents": dict(sorted(self.incidents.items())),
            "unknown_events": self.unknown_events,
            "workers": [usage.to_dict() for usage in self.workers],
            "worker_skew": self.worker_skew,
            "counters": dict(sorted(self.counters.items())),
            "hot_layers": [dict(layer) for layer in self.hot_layers],
            "profile": {
                "forward_s": self.profile_forward_s,
                "backward_s": self.profile_backward_s,
            },
            "sources": dict(self.sources),
            "serving": _sorted_section(self.serving),
            "sweep": _sorted_section(self.sweep),
            "ilt": _sorted_section(self.ilt),
        }

    def format_text(self) -> str:
        """The human-readable report body."""
        lines: List[str] = []
        lines.append(f"runs: {len(self.runs)} "
                     f"({'healthy' if self.healthy else 'UNHEALTHY'})")
        for run in self.runs:
            build = run.build or {}
            version = build.get("version", "?")
            sha = build.get("git_sha") or "nogit"
            lines.append(
                f"  {run.run_id:<18} {run.command:<16} {run.status:<10} "
                f"{run.seconds:>8.2f}s  {run.events:>4} events  "
                f"[v{version}@{sha}]"
            )
        if self.stages:
            lines.append("stages:")
            ranked = sorted(self.stages.items(),
                            key=lambda item: (-item[1]["seconds"], item[0]))
            total = sum(stats["seconds"] for _, stats in ranked) or 1.0
            for name, stats in ranked:
                lines.append(
                    f"  {name:<24} {stats['seconds']:>9.3f}s "
                    f"x{int(stats['count']):<5} "
                    f"{stats['seconds'] / total:>5.1%}"
                )
        if self.workers:
            lines.append(f"workers: {len(self.workers)} lanes, "
                         f"skew {self.worker_skew:.2f}x")
            for usage in self.workers:
                lines.append(
                    f"  {usage.worker:<6} {usage.shards:>4} shards "
                    f"{usage.busy_s:>9.3f}s busy"
                )
        serving = self.serving or {}
        verdicts = serving.get("canary_verdicts", {})
        if (any(serving.get(key) for key in
                ("swaps", "rollbacks", "sheds_by_tenant"))
                or any(verdicts.values())):
            parts = [
                f"swaps={serving.get('swaps', 0)}",
                f"rollbacks={serving.get('rollbacks', 0)}",
                "canary promote={}/rollback={}".format(
                    verdicts.get("promote", 0), verdicts.get("rollback", 0)),
            ]
            sheds = serving.get("sheds_by_tenant", {})
            if sheds:
                parts.append("shed " + " ".join(
                    f"{tenant}={count}"
                    for tenant, count in sorted(sheds.items())))
            lines.append("serving: " + ", ".join(parts))
        sweep = self.sweep or {}
        if sweep.get("trials"):
            parts = [
                f"trials={sweep.get('trials', 0)}",
                f"completed={sweep.get('completed', 0)}",
                f"failed={sweep.get('failed', 0)}",
                f"interrupted={sweep.get('interrupted', 0)}",
            ]
            retries = sweep.get("retries_by_reason", {})
            if retries:
                parts.append("retries " + " ".join(
                    f"{reason}={count}"
                    for reason, count in sorted(retries.items())))
            lines.append("sweep: " + ", ".join(parts))
        ilt = self.ilt or {}
        if ilt.get("runs"):
            parts = [
                f"runs={ilt.get('runs', 0)}",
                f"steps={ilt.get('steps', 0)}",
                f"verifications={ilt.get('verifications', 0)}",
            ]
            epe = ilt.get("epe_ilt_nm")
            if epe is not None:
                parts.append(f"epe={epe:.2f}nm")
            parts.append(f"improved={ilt.get('improved', 0)}")
            lines.append("ilt: " + ", ".join(parts))
        active = {name: count for name, count in self.incidents.items()
                  if count}
        lines.append("incidents: " + (
            ", ".join(f"{name}={count}"
                      for name, count in sorted(active.items()))
            if active else "none"
        ))
        if self.unknown_events:
            lines.append(
                f"unknown event types tolerated: {self.unknown_events}"
            )
        if self.counters:
            lines.append("counters:")
            for name, value in sorted(self.counters.items()):
                lines.append(f"  {name:<36} {value:g}")
        if self.hot_layers:
            lines.append("hot layers (top {}):".format(len(self.hot_layers)))
            for layer in self.hot_layers:
                lines.append(
                    f"  {layer['network']}[{layer['index']}] "
                    f"{layer['op']:<8} {layer['total_s']:>9.4f}s "
                    f"{layer['flops'] / 1e9:>8.3f} gflops"
                )
        return "\n".join(lines)

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(self.to_dict(), indent=2) + "\n",
                            encoding="utf-8")
        except OSError as exc:
            raise TelemetryError(
                f"cannot write report to {path}: {exc}"
            ) from exc
        return path


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _load_json(path: Union[str, Path], what: str) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise TelemetryError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TelemetryError(f"corrupt {what} {path}: {exc}") from exc


def _summarize_runs(runs: List[List[dict]],
                    ) -> Tuple[List[RunSummary], Sections, int]:
    """Fold every record into run summaries and the report's sections.

    A known record must pass its :data:`EVENTS` row's field checks, and
    then adds what the row's ``report`` tallies declare; records of any
    other type are only counted.
    """
    summaries: List[RunSummary] = []
    # sweep digests and ILT EPEs are collected, then counted and averaged
    sections: Sections = {
        "stages": {},
        "incidents": {
            "fallbacks": 0, "breaker_transitions": 0, "rollbacks": 0,
            "worker_crashes": 0, "records_quarantined": 0,
            "records_repaired": 0, "rejected_inputs": 0, "requests_shed": 0,
        },
        "serving": {
            "swaps": 0,
            "rollbacks": 0,
            "canary_verdicts": {"promote": 0, "rollback": 0},
            "sheds_by_tenant": {},
        },
        "sweep": {
            "digests": set(),
            "completed": 0,
            "failed": 0,
            "interrupted": 0,
            "retries_by_reason": {},
        },
        "ilt": {
            "runs": 0,
            "steps": 0,
            "verifications": 0,
            "improved": 0,
            "epes": [],
        },
    }
    unknown = 0
    for events in runs:
        first = events[0]
        command = str(first.get("command", "?"))
        status = "truncated"
        seconds = 0.0
        if first.get("event") != "run_start":
            # tail of an earlier truncated run: no run_start to anchor it
            command, status = "?", "orphaned"
        for index, record in enumerate(events):
            event = record.get("event")
            if event not in EVENT_TYPES:
                unknown += 1
                continue
            row = EVENTS[event]
            _check_fields(row, record, index)
            for tally in row.report:
                tally(sections, record)
            if event == "run_end":
                status = str(record["status"])
                seconds = float(record.get("seconds") or 0.0)
        summaries.append(RunSummary(
            run_id=str(first.get("run_id", "?")),
            command=command,
            status=status,
            seconds=seconds,
            events=len(events),
            build=dict(first.get("build") or {}),
        ))
    sweep, ilt = sections["sweep"], sections["ilt"]
    sweep["trials"] = len(sweep.pop("digests"))
    epes = ilt.pop("epes")
    if epes:
        ilt["epe_ilt_nm"] = sum(epes) / len(epes)
    return summaries, sections, unknown


def _worker_usage(trace: dict) -> Tuple[List[WorkerUsage], float]:
    lanes: Dict[str, Dict[str, float]] = {}
    for event in trace.get("traceEvents", ()):
        if event.get("ph") != "X" or event.get("name") != "parallel_shard":
            continue
        args = event.get("args", {})
        worker = str(args.get("worker") or f"w{args.get('shard', '?')}")
        lane = lanes.setdefault(worker, {"shards": 0, "busy_s": 0.0})
        lane["shards"] += 1
        lane["busy_s"] += float(event.get("dur", 0.0)) / 1e6
    usage = [
        WorkerUsage(worker=worker, shards=int(lane["shards"]),
                    busy_s=lane["busy_s"])
        for worker, lane in sorted(lanes.items())
    ]
    busy = [lane.busy_s for lane in usage]
    mean = sum(busy) / len(busy) if busy else 0.0
    skew = (max(busy) / mean) if mean > 0 else 0.0
    return usage, skew


def _counter_totals(snapshot: dict) -> Dict[str, float]:
    metrics = snapshot.get("metrics", snapshot)
    totals: Dict[str, float] = {}
    for name in _HEADLINE_COUNTERS:
        family = metrics.get(name)
        if not isinstance(family, dict):
            continue
        totals[name] = sum(
            float(series.get("value", 0.0))
            for series in family.get("series", ())
        )
    return totals


def build_report(log_path: Union[str, Path], *,
                 trace_path: Optional[Union[str, Path]] = None,
                 metrics_path: Optional[Union[str, Path]] = None,
                 profile_path: Optional[Union[str, Path]] = None,
                 ) -> RunReport:
    """Correlate a run's artifacts into a :class:`RunReport`.

    Only the event log is required.  Each optional artifact is validated
    before use; any corruption raises :class:`TelemetryError` naming the
    path, so callers fail closed rather than reporting from bad data.
    """
    log_path = Path(log_path)
    if not log_path.exists():
        raise TelemetryError(f"run log not found: {log_path}")
    events = read_run_log(log_path)
    if not events:
        raise TelemetryError(f"run log {log_path} contains no events")
    try:
        summaries, sections, unknown = _summarize_runs(split_runs(events))
    except (TelemetryError, TypeError, ValueError) as exc:
        # a required field failed its row's check, or an optional one the
        # report converts (run_start build, stage_end count, run_end
        # seconds) has the wrong type
        raise TelemetryError(f"invalid run log {log_path}: {exc}") from exc
    sources = {"log": str(log_path)}

    workers: List[WorkerUsage] = []
    skew = 0.0
    if trace_path is not None:
        trace = _load_json(trace_path, "trace")
        try:
            validate_chrome_trace(trace)
        except TelemetryError as exc:
            raise TelemetryError(f"invalid trace {trace_path}: {exc}") from exc
        workers, skew = _worker_usage(trace)
        sources["trace"] = str(trace_path)

    counters: Dict[str, float] = {}
    if metrics_path is not None:
        snapshot = _load_json(metrics_path, "metrics snapshot")
        if not isinstance(snapshot, dict) or "metrics" not in snapshot:
            raise TelemetryError(
                f"invalid metrics snapshot {metrics_path}: expected an "
                "object with a 'metrics' key"
            )
        counters = _counter_totals(snapshot)
        sources["metrics"] = str(metrics_path)

    hot_layers: Tuple[dict, ...] = ()
    forward_s = backward_s = 0.0
    if profile_path is not None:
        profile = ProfileReport.load(profile_path)
        hot_layers = tuple(row.to_dict() for row in profile.top_layers(5))
        forward_s, backward_s = profile.forward_s, profile.backward_s
        sources["profile"] = str(profile_path)

    return RunReport(
        runs=tuple(summaries),
        unknown_events=unknown,
        workers=tuple(workers),
        worker_skew=skew,
        counters=counters,
        hot_layers=hot_layers,
        profile_forward_s=forward_s,
        profile_backward_s=backward_s,
        sources=sources,
        **sections,
    )
