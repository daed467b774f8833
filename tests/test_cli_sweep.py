"""The ``repro sweep`` group end to end: run, fault drill, status, resume.

Like the other CLI suites this runs the real reduced() 64x64 pipeline at
minimum scale — one full sweep is minted/trained/evaluated once per module
and the journal-driven commands (status, resume, exit codes) replay it.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.sweep import read_journal, replay_journal


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_sweep")


@pytest.fixture(scope="module")
def sweep_dir(workspace):
    """One 2-trial sweep with a NaN injected into trial 0's first attempt."""
    out = workspace / "sweep"
    code = main([
        "sweep", "--seed", "0", "--out", str(out),
        "run", "--clips", "6", "--epochs", "1", "--workers", "1",
        "--param", "training.seed=0,1",
        "--inject-nan", "0",
        "--max-retries", "1", "--retry-delay", "0.01", "--max-failed", "1",
        "--report", str(workspace / "report.json"),
    ])
    assert code == 0
    return out


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(
            ["sweep", "--out", "sw", "run", "--param", "training.seed=0,1"])
        assert args.action == "run"
        assert args.isolation == "none"
        assert args.max_retries == 1
        assert args.max_failed == 0
        assert args.metric == "ede_mean_nm"

    def test_out_is_a_group_flag(self):
        # --out belongs to the sweep group and must precede the action.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "run", "--out", "sw",
                 "--param", "training.seed=0,1"])

    def test_param_values_parse_as_json(self):
        from repro.cli import _parse_param

        assert _parse_param("training.seed=0,1") == (
            "training.seed", [0, 1])
        assert _parse_param("training.learning_rate=0.001") == (
            "training.learning_rate", [0.001])

    def test_trial_site_spec(self):
        from repro.cli import _parse_trial_site

        assert _parse_trial_site("2", "--inject-nan") == (2, False)
        assert _parse_trial_site("2:all", "--inject-nan") == (2, True)


class TestSweepRun:
    def test_journal_records_typed_retry_and_completion(self, sweep_dir):
        records = read_journal(sweep_dir / "journal.jsonl")
        state = replay_journal(records)
        assert state.sweep is not None
        assert len(state.completed()) == 2
        retries = [r for r in records if r["kind"] == "trial_retry"]
        assert [r["reason"] for r in retries] == ["diverged"]
        # exactly-once accounting: trial 0 took 2 attempts, trial 1 one
        assert sorted(state.attempts.values()) == [1, 2]

    def test_report_ranks_completed_trials(self, workspace, sweep_dir):
        payload = json.loads((workspace / "report.json").read_text())
        assert payload["completed"] == 2 and payload["failed"] == 0
        metrics = [t["metrics"]["ede_mean_nm"] for t in payload["trials"]]
        assert all(isinstance(v, float) for v in metrics)

    def test_spec_payload_saved_for_resume(self, sweep_dir):
        records = read_journal(sweep_dir / "journal.jsonl")
        spec = records[0]["spec"]
        # ordered pairs, immune to the journal writer's key sorting
        assert spec["grid"] == [["training.seed", [0, 1]]]
        assert spec["args"]["clips"] == 6


class TestSweepStatus:
    def test_text_lists_every_trial(self, sweep_dir, capsys):
        code = main(["sweep", "--out", str(sweep_dir), "status"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2/2 trials journaled" in out
        assert out.count("completed") == 2

    def test_json_is_pure_and_parseable(self, sweep_dir, capsys):
        code = main(["sweep", "--out", str(sweep_dir), "status", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["journaled_trials"] == 2
        statuses = [t["status"] for t in payload["trials"].values()]
        assert statuses == ["completed", "completed"]


class TestSweepResume:
    def test_resume_skips_completed_trials(self, sweep_dir, capsys):
        code = main(["sweep", "--out", str(sweep_dir), "resume"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("already completed (journal); skipping") == 2
        # no new attempts were journaled
        state = replay_journal(read_journal(sweep_dir / "journal.jsonl"))
        assert sorted(state.attempts.values()) == [1, 2]

    def test_rerun_without_resume_is_rejected(self, sweep_dir, capsys):
        code = main([
            "sweep", "--seed", "0", "--out", str(sweep_dir),
            "run", "--clips", "6", "--epochs", "1",
            "--param", "training.seed=0,1",
        ])
        assert code == 7
        assert "already exists" in capsys.readouterr().err


class TestFailureBudget:
    def test_exhausted_budget_exits_7(self, workspace, capsys):
        out = workspace / "doomed"
        code = main([
            "sweep", "--seed", "0", "--out", str(out),
            "run", "--clips", "6", "--epochs", "1",
            "--param", "training.seed=0,1",
            "--inject-nan", "0:all",
            "--max-retries", "0", "--max-failed", "0",
        ])
        assert code == 7
        assert "failure budget exhausted" in capsys.readouterr().err
        # the failed trial is journaled, so a resume would retry exactly it
        state = replay_journal(read_journal(out / "journal.jsonl"))
        statuses = {state.status_of(d) for d in state.latest}
        assert statuses == {"failed"}


class TestKillAndResume:
    def test_sigkill_then_resume_runs_each_trial_exactly_once(
            self, workspace, capsys):
        out = workspace / "killed"
        journal = out / "journal.jsonl"
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        sweep = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "sweep", "--seed", "0",
             "--out", str(out), "run", "--clips", "6", "--epochs", "1",
             "--workers", "2", "--param", "training.seed=0,1,2",
             "--inject-nan", "0", "--inject-worker-crash", "1",
             "--max-retries", "1", "--retry-delay", "0.01",
             "--max-failed", "2"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        deadline = time.monotonic() + 300
        try:
            # Trials run in order, so once trial 1's injected crash is
            # journaled trial 0 has completed and trial 1 is mid-retry.
            while not journal.exists() or not any(
                    r.get("reason") == "worker_death"
                    for r in read_journal(journal)):
                assert sweep.poll() is None, "sweep exited before the kill"
                assert time.monotonic() < deadline, "sweep never crashed"
                time.sleep(0.1)
        finally:
            if sweep.poll() is None:  # unreaped, so its group still exists
                os.killpg(sweep.pid, signal.SIGKILL)
            sweep.wait(timeout=30)
        before = replay_journal(read_journal(journal))
        assert 0 < len(before.completed()) < 3

        assert main(["sweep", "--out", str(out), "resume"]) == 0
        capsys.readouterr()
        records = read_journal(journal)
        after = replay_journal(records)
        assert len(after.completed()) == 3
        for digest in before.completed():
            assert after.attempts[digest] == before.attempts[digest]
        reasons = {r["reason"] for r in records if r["kind"] == "trial_retry"}
        assert {"diverged", "worker_death"} <= reasons
