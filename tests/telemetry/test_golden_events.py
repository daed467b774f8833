"""Golden records and metrics for every event the code base emits.

``golden_events.json`` was recorded from the per-event hook callbacks and
direct ``RunLogger`` writes that the event table replaced: one entry per
callback (plus the branches of the ones whose metrics branch), per
command-line write, and for one inverse-lithography run, each into a fresh
log and registry.  Records omit ``time_unix`` and ``run_id``.  The two
``breaker`` entries were edited afterwards to add the ``slot`` field and
metric label.  Driving the same events through ``hook.emit`` must
reproduce every entry, except for the differences listed in ``ALLOWED``.
"""

import json
from pathlib import Path

import pytest

from repro.telemetry import EVENT_TYPES, MetricsRegistry, RunLogger
from repro.telemetry import RunLoggerHook, read_run_log

GOLDEN = json.loads(
    (Path(__file__).with_name("golden_events.json")).read_text())

BUILD = {"package": "repro-litho", "version": "1.0.0", "git_sha": "abc1234"}


def _emit(event, **fields):
    return lambda hook: hook.emit(event, **fields)


def _ilt_run(hook):
    hook.emit("ilt_start", clips=1, steps=2)
    hook.emit("ilt_step", step=0, loss=0.5)
    hook.emit("ilt_step", step=1, loss=0.25)
    hook.emit("ilt_end", verified=5, epe_ilt_nm=1.2346,
              epe_unoptimized_nm=2.5, epe_rule_opc_nm=1.75, improved=True)


#: the same events, with the same fields, through the one emit path
CALLS = {
    "on_run_start": _emit(
        "run_start", command="train", node="N10", seed=1, build=BUILD),
    "on_epoch_end": lambda hook: hook.on_epoch_end(
        1, 1.25, 2.5, 0.375, 0.5),
    "on_aux_epoch_end": lambda hook: hook.on_aux_epoch_end(
        1, 0.75, 0.25, phase="center-cnn"),
    "on_checkpoint": _emit(
        "checkpoint", phase="cgan", epoch=2,
        path="ckpt/cgan/step-000002.npz", loss=0.3),
    "on_rollback": _emit(
        "rollback", phase="cgan", epoch=1, failed_epoch=2, retries=1,
        learning_rate=0.0001, reason="non_finite_loss"),
    "on_phase_end": _emit("stage_end", stage="cgan", seconds=1.5,
                          kind="phase"),
    "on_stage_end": _emit("stage_end", stage="optical", seconds=0.125),
    "on_eval_end": _emit("eval_end", ede_mean_nm=1.5, samples=4),
    "on_admission": _emit("admission", admitted=6, rejected=2, sanitized=1),
    "on_clip_served": _emit("clip_served", clip=3, provenance="model",
                            verdict="ok", seconds=0.02),
    "on_fallback": _emit("fallback", clip=4, cause="degenerate"),
    "on_breaker": _emit("breaker", slot="incumbent", from_state="closed",
                        to_state="open", reason="consecutive_failures"),
    "on_breaker[half_open]": _emit(
        "breaker", slot="incumbent", from_state="open", to_state="half_open",
        reason="probe"),
    "on_queue_full": _emit("queue_full", depth=8, capacity=8),
    "on_shed": _emit("shed", request=17, tenant="opc", reason="quota"),
    "on_queue_depth": _emit("queue_depth", depth=5),
    "on_model_swap": _emit("model_swap", model="litho", version="2",
                           previous="litho@1", reason="swap"),
    "on_model_swap[inline]": _emit("model_swap", model="inline",
                                   version="inline", previous="",
                                   reason="swap"),
    "on_canary_verdict": _emit(
        "canary_verdict", model="litho", verdict="rollback",
        candidate_rate=0.75, incumbent_rate=0.0, samples=16),
    "on_serve_rollback": _emit(
        "rollback", phase="serving", model="litho", from_version="litho@2",
        to_version="litho@1", candidate_rate=0.75, incumbent_rate=0.0,
        reason="canary_regression"),
    "on_data_quarantine": _emit(
        "data_quarantine", quarantined=2, total=12, reasons={"hash": 2},
        manifest_missing=False),
    "on_data_repair": _emit("data_repair", repaired=2, indices=[1, 4]),
    "on_worker_crash": _emit("worker_crash", shard=3, task="mint",
                             detail="exit code 13"),
    "on_trial_start": _emit("trial_start", digest="d1", attempt=1,
                            trial="trial-000"),
    "on_trial_retry": _emit("trial_retry", digest="d1", attempt=1,
                            reason="diverged", trial="trial-000",
                            delay_s=0.5),
    "on_trial_end": _emit("trial_end", digest="d1", status="completed",
                          trial="trial-000", attempts=2, reason="",
                          seconds=4.5),
    "on_trial_end[failed]": _emit(
        "trial_end", digest="d2", status="failed", trial="trial-001",
        attempts=3, reason="timeout", seconds=9.0),
    "on_trial_end[interrupted]": _emit(
        "trial_end", digest="d3", status="interrupted", trial="trial-002",
        attempts=1, reason="interrupted", seconds=1.0),
    "on_run_end": _emit("run_end", status="ok", seconds=3.0),
    "cli:run_start": _emit(
        "run_start", command="evaluate", node="N10", seed=1, build=BUILD),
    "cli:data_quarantine": _emit(
        "data_quarantine", quarantined=2, total=12, reasons={"hash": 2},
        manifest_missing=False),
    "cli:data_repair": _emit("data_repair", repaired=2, indices=[1, 4]),
    "cli:eval_end": _emit("eval_end", node="N10", samples=4,
                          ede_mean_nm=1.5, epe_mean_nm=0.75),
    "cli:model_swap": _emit("model_swap", model="litho", version="2",
                            previous="", reason="promote"),
    "cli:rollback": _emit("rollback", phase="registry", model="litho",
                          from_version=2, to_version=1, reason="operator"),
    "cli:stage_end": _emit("stage_end", stage="optical", seconds=2.0,
                           count=8),
    "cli:run_end": _emit("run_end", status="ok", seconds=3.0, clips=8),
    "ilt": _ilt_run,
}


def _counter(value, **labels):
    return {"labels": labels, "type": "counter", "value": value}


#: metric families that differ from the recording, by design:
#: ``{entry: {family: series list, or None when the family is gone}}``
ALLOWED = {
    # stage metrics come only from Tracer.record_into
    "on_phase_end": {"stage_seconds": None},
    "on_stage_end": {"stage_seconds": None},
    # command-line writes now go through the table's metric side effects
    "cli:eval_end": {"evals_total": [_counter(1.0)]},
    "cli:model_swap": {
        "serve_model_swaps_total": [_counter(1.0, model="litho")],
        "serve_active_version": [
            {"labels": {"model": "litho"}, "type": "gauge", "value": 2.0}],
    },
    "cli:rollback": {"rollbacks_total": [_counter(1.0, phase="registry")]},
    # the ILT gauge takes the logged, rounded EPE
    "ilt": {"ilt_epe_nm": [
        {"labels": {}, "type": "gauge", "value": 1.2346}]},
}


def _expected_metrics(entry):
    metrics = dict(entry["metrics"])
    for family, series in ALLOWED.get(entry["call"], {}).items():
        if series is None:
            metrics.pop(family)
        else:
            kind = series[0]["type"]
            metrics[family] = {"type": kind, "help": "", "series": series}
    return metrics


@pytest.mark.parametrize("entry", GOLDEN, ids=[e["call"] for e in GOLDEN])
def test_emit_reproduces_the_recorded_events(entry, tmp_path):
    path = tmp_path / "run.jsonl"
    registry = MetricsRegistry()
    with RunLogger(path, run_id="run-golden") as logger:
        CALLS[entry["call"]](RunLoggerHook(logger=logger, registry=registry))
    records = read_run_log(path)
    for record in records:
        assert record.pop("run_id") == "run-golden"
        record.pop("time_unix")
    assert records == entry["records"]
    # same key order too, so log lines read (and diff) as before
    assert [list(r) for r in records] == [list(r) for r in entry["records"]]
    assert registry.snapshot() == _expected_metrics(entry)


def test_every_recorded_entry_is_driven():
    assert [entry["call"] for entry in GOLDEN] == list(CALLS)


def test_recorded_events_cover_every_logged_event_type():
    # so TestGoldenLog in test_report.py pins what every row adds to the
    # report: a new logged row needs a golden record first
    recorded = {record["event"] for entry in GOLDEN
                for record in entry["records"]}
    assert set(EVENT_TYPES) <= recorded
