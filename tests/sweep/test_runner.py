"""Supervisor mechanics: retries, budgets, resume, interrupts, timeouts."""

import dataclasses
import time

import pytest

from repro.config import SweepConfig, tiny
from repro.errors import (
    ParallelError,
    SweepError,
    TrainingError,
)
from repro.sweep import (
    SweepResult,
    SweepSpec,
    SweepSupervisor,
    TrialResult,
    classify_failure,
    read_journal,
    replay_journal,
)
from repro.telemetry.hooks import TelemetryHook


def make_spec(n=3, **sweep_kwargs):
    base = dataclasses.replace(tiny(), sweep=SweepConfig(**sweep_kwargs))
    return SweepSpec.from_grid(base, {"training.seed": list(range(n))})


def make_supervisor(tmp_path, spec, **kwargs):
    kwargs.setdefault("sleep", lambda s: None)
    return SweepSupervisor(spec, tmp_path / "sweep", **kwargs)


def ok_trial(payload):
    seed = payload["config"].training.seed
    return {"metrics": {"ede_mean_nm": float(seed)}, "weights": None}


class TestClassifyFailure:
    def test_mapping(self):
        timeout = ParallelError("t", shard=0, task="x", kind="timeout")
        crash = ParallelError("c", shard=0, task="x", kind="crash")
        plain = ParallelError("e", shard=0, task="x", kind="error")
        assert classify_failure(timeout) == "timeout"
        assert classify_failure(crash) == "worker_death"
        assert classify_failure(plain) == "worker_death"
        assert classify_failure(TrainingError("nan")) == "diverged"
        assert classify_failure(RuntimeError("boom")) == "error"


class TestRetries:
    def test_retries_on_backoff_then_completes(self, tmp_path):
        spec = make_spec(1, max_retries=2, retry_delay_s=0.5,
                         retry_factor=2.0)
        calls = []
        sleeps = []

        def flaky(payload):
            calls.append(1)
            if len(calls) < 3:
                raise TrainingError("loss=nan")
            return ok_trial(payload)

        supervisor = make_supervisor(
            tmp_path, spec, trial_fn=flaky, sleep=sleeps.append)
        results = supervisor.run()
        assert [r.status for r in results] == ["completed"]
        assert results[0].attempts == 3
        assert sleeps == [0.5, 1.0]  # deterministic exponential backoff
        records = read_journal(supervisor.journal.path)
        kinds = [r["kind"] for r in records]
        assert kinds == ["sweep_start", "trial_start", "trial_retry",
                         "trial_start", "trial_retry", "trial_start",
                         "trial_end"]
        retries = [r for r in records if r["kind"] == "trial_retry"]
        assert all(r["reason"] == "diverged" for r in retries)
        assert [r["delay_s"] for r in retries] == [0.5, 1.0]

    def test_exhausted_retries_mark_trial_failed(self, tmp_path):
        spec = make_spec(2, max_retries=1, max_failed_trials=2)

        def doomed_first(payload):
            if payload["config"].training.seed == 0:
                raise TrainingError("loss=nan")
            return ok_trial(payload)

        supervisor = make_supervisor(tmp_path, spec, trial_fn=doomed_first)
        results = supervisor.run()
        assert [r.status for r in results] == ["failed", "completed"]
        assert results[0].attempts == 2
        assert results[0].reason == "diverged"

    def test_budget_exhaustion_raises_with_failed_digests(self, tmp_path):
        spec = make_spec(3, max_retries=0, max_failed_trials=0)

        def always_fails(payload):
            raise RuntimeError("boom")

        supervisor = make_supervisor(tmp_path, spec, trial_fn=always_fails)
        with pytest.raises(SweepError, match="failure budget exhausted"
                           ) as excinfo:
            supervisor.run()
        assert excinfo.value.failed == (spec.trials[0].digest,)
        # fail-fast: siblings after the budget blew never started
        state = replay_journal(read_journal(supervisor.journal.path))
        assert state.status_of(spec.trials[2].digest) == "pending"


class TestResume:
    def test_completed_trials_replay_without_rerunning(self, tmp_path):
        spec = make_spec(3)
        supervisor = make_supervisor(tmp_path, spec, trial_fn=ok_trial)
        first = supervisor.run()
        assert all(r.status == "completed" for r in first)

        def must_not_run(payload):
            raise AssertionError("completed trial was re-run")

        resumed = make_supervisor(tmp_path, spec, trial_fn=must_not_run)
        results = resumed.run(resume=True)
        assert [r.status for r in results] == ["completed"] * 3
        assert all(r.resumed for r in results)
        assert [r.metrics for r in results] == [r.metrics for r in first]

    def test_failed_trials_rerun_on_resume(self, tmp_path):
        spec = make_spec(2, max_retries=0, max_failed_trials=1)
        attempts = {"n": 0}

        def fails_once(payload):
            if payload["config"].training.seed == 0 and attempts["n"] == 0:
                attempts["n"] += 1
                raise TrainingError("loss=nan")
            return ok_trial(payload)

        first = make_supervisor(tmp_path, spec, trial_fn=fails_once).run()
        assert [r.status for r in first] == ["failed", "completed"]
        results = make_supervisor(
            tmp_path, spec, trial_fn=fails_once).run(resume=True)
        assert [r.status for r in results] == ["completed", "completed"]
        assert results[1].resumed and not results[0].resumed

    def test_existing_journal_without_resume_rejected(self, tmp_path):
        spec = make_spec(1)
        make_supervisor(tmp_path, spec, trial_fn=ok_trial).run()
        with pytest.raises(SweepError, match="already exists"):
            make_supervisor(tmp_path, spec, trial_fn=ok_trial).run()

    def test_resume_refuses_a_different_spec(self, tmp_path):
        make_supervisor(tmp_path, make_spec(2), trial_fn=ok_trial).run()
        other = make_spec(3)
        with pytest.raises(SweepError, match="refusing to resume"):
            make_supervisor(
                tmp_path, other, trial_fn=ok_trial).run(resume=True)


class TestInterrupt:
    def test_interrupt_journals_in_flight_trial_and_reraises(self, tmp_path):
        spec = make_spec(2)

        def interrupted(payload):
            raise KeyboardInterrupt

        supervisor = make_supervisor(tmp_path, spec, trial_fn=interrupted)
        with pytest.raises(KeyboardInterrupt):
            supervisor.run()
        state = replay_journal(read_journal(supervisor.journal.path))
        assert state.status_of(spec.trials[0].digest) == "interrupted"
        assert state.status_of(spec.trials[1].digest) == "pending"


class TestIsolationTimeout:
    def test_hung_trial_times_out_with_typed_reason(self, tmp_path):
        spec = make_spec(1, isolation="thread", trial_timeout_s=0.3,
                         max_retries=0, max_failed_trials=1)

        def hangs(payload):
            time.sleep(30)

        start = time.perf_counter()
        supervisor = make_supervisor(tmp_path, spec, trial_fn=hangs)
        results = supervisor.run()
        assert time.perf_counter() - start < 10.0
        assert results[0].status == "failed"
        assert results[0].reason == "timeout"

    def test_repro_errors_cross_the_isolation_boundary(self, tmp_path):
        spec = make_spec(1, isolation="thread", max_retries=0,
                         max_failed_trials=1)

        def diverges(payload):
            raise TrainingError("loss=nan")

        results = make_supervisor(tmp_path, spec, trial_fn=diverges).run()
        assert results[0].reason == "diverged"


class TestHooks:
    def test_trial_callbacks_fire_in_order(self, tmp_path):
        spec = make_spec(1, max_retries=1)
        calls = []

        class Recorder(TelemetryHook):
            def emit(self, event, **fields):
                if event == "trial_start":
                    calls.append(("start", fields["attempt"]))
                elif event == "trial_retry":
                    calls.append(("retry", fields["attempt"],
                                  fields["reason"]))
                elif event == "trial_end":
                    calls.append(("end", fields["status"],
                                  fields["attempts"]))

        flaky = {"failed": False}

        def fails_once(payload):
            if not flaky["failed"]:
                flaky["failed"] = True
                raise TrainingError("loss=nan")
            return ok_trial(payload)

        make_supervisor(
            tmp_path, spec, trial_fn=fails_once, hook=Recorder()).run()
        assert calls == [
            ("start", 1), ("retry", 1, "diverged"),
            ("start", 2), ("end", "completed", 2),
        ]


class TestSweepResult:
    def _result(self):
        trials = (
            TrialResult(index=0, name="trial-000-aaaa", digest="a",
                        params={"training.seed": 0}, status="completed",
                        attempts=1, metrics={"ede_mean_nm": 2.0}),
            TrialResult(index=1, name="trial-001-bbbb", digest="b",
                        params={"training.seed": 1}, status="completed",
                        attempts=2, metrics={"ede_mean_nm": 1.0}),
            TrialResult(index=2, name="trial-002-cccc", digest="c",
                        params={"training.seed": 2}, status="failed",
                        attempts=2, reason="diverged"),
        )
        return SweepResult(trials=trials, digest="s" * 64,
                           journal=None)

    def test_ranking_lower_is_better(self):
        result = self._result()
        assert [t.index for t in result.ranking()] == [1, 0]
        assert result.best().index == 1

    def test_failed_trials_listed_unranked(self):
        text = self._result().format_ranking()
        assert "#1 trial-001-bbbb" in text
        assert "-- trial-002-cccc  failed (diverged)" in text

    def test_best_without_metric_raises(self):
        result = self._result()
        with pytest.raises(SweepError, match="cannot rank"):
            result.best("unknown_metric")

    def test_to_dict_counts(self):
        payload = self._result().to_dict()
        assert payload["completed"] == 2 and payload["failed"] == 1
        assert payload["published"] is None
