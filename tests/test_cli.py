"""The repro-litho command-line interface, exercised end to end at tiny scale.

The CLI hard-codes the ``reduced()`` (64x64) preset, so these tests mint a
real 64x64 dataset with very few clips and 1-2 epochs — slowish but a true
end-to-end pass through mint -> train -> evaluate.
"""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data import load_dataset
from repro.telemetry import read_run_log, split_runs, validate_run_log


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dataset_path(workspace):
    path = workspace / "tiny_n10.npz"
    code = main([
        "mint", "--node", "N10", "--clips", "8",
        "--seed", "1", "--out", str(path),
    ])
    assert code == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mint_defaults(self):
        args = build_parser().parse_args(["mint", "--out", "x.npz"])
        assert args.node == "N10"
        assert args.clips == 120

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestMintTrainEvaluate:
    def test_mint_writes_loadable_dataset(self, dataset_path):
        dataset = load_dataset(dataset_path)
        assert len(dataset) == 8
        assert dataset.tech_name == "N10"
        assert dataset.image_size == 64  # the CLI's reduced preset

    @pytest.fixture(scope="class")
    def model_dir(self, workspace, dataset_path):
        out = workspace / "model"
        code = main([
            "train", "--dataset", str(dataset_path), "--epochs", "1",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        return out

    def test_train_saves_all_artifacts(self, model_dir):
        for name in (
            "generator.npz",
            "discriminator.npz",
            "center_cnn.npz",
            "center_scaling.npz",
            "history.json",
        ):
            assert (model_dir / name).exists(), name

    def test_evaluate_runs(self, dataset_path, model_dir, capsys):
        code = main([
            "evaluate", "--dataset", str(dataset_path),
            "--model", str(model_dir), "--epochs", "1", "--seed", "1",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "LithoGAN" in output
        assert "EDE" in output

    def test_missing_dataset_reports_error(self, workspace, capsys):
        code = main([
            "train", "--dataset", str(workspace / "absent.npz"),
            "--out", str(workspace / "m2"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err.lower()


class TestTelemetryFlags:
    """The ISSUE acceptance path: train with --log-json / --metrics-out."""

    @pytest.fixture(scope="class")
    def telemetry_run(self, workspace, dataset_path):
        log = workspace / "run.jsonl"
        metrics = workspace / "metrics.json"
        out = workspace / "model_telemetry"
        code = main([
            "train", "--dataset", str(dataset_path), "--epochs", "2",
            "--seed", "1", "--out", str(out),
            "--log-json", str(log), "--metrics-out", str(metrics),
        ])
        assert code == 0
        return log, metrics, out

    def test_run_log_parses_and_is_well_formed(self, telemetry_run):
        log, _, _ = telemetry_run
        events = read_run_log(log)
        validate_run_log(events)

    def test_event_sequence(self, telemetry_run):
        log, _, _ = telemetry_run
        events = read_run_log(log)
        assert events[0]["event"] == "run_start"
        assert events[0]["command"] == "train"
        assert events[-1]["event"] == "run_end"
        assert events[-1]["status"] == "ok"
        assert events[-1]["seconds"] > 0

    def test_one_epoch_end_per_epoch_with_losses_and_seconds(
            self, telemetry_run):
        log, _, _ = telemetry_run
        cgan_epochs = [
            e for e in read_run_log(log)
            if e["event"] == "epoch_end" and e.get("phase") == "cgan"
        ]
        assert [e["epoch"] for e in cgan_epochs] == [1, 2]
        for event in cgan_epochs:
            for key in ("d_loss", "g_loss", "l1"):
                assert np.isfinite(event[key])
            assert event["seconds"] > 0

    def test_phase_spans_logged_as_stage_end(self, telemetry_run):
        log, _, _ = telemetry_run
        stages = {
            e["stage"] for e in read_run_log(log)
            if e["event"] == "stage_end"
        }
        assert {"cgan", "center-cnn"} <= stages

    def test_metrics_json_has_counters_and_latency_histograms(
            self, telemetry_run):
        _, metrics, _ = telemetry_run
        payload = json.loads(metrics.read_text())
        assert payload["schema_version"] == 1
        families = payload["metrics"]
        clips = families["clips_processed_total"]["series"][0]
        assert clips["type"] == "counter" and clips["value"] > 0
        stage_series = families["stage_seconds"]["series"]
        stage_labels = {s["labels"]["stage"] for s in stage_series}
        assert {"cgan", "center-cnn"} <= stage_labels
        for series in stage_series:
            assert series["type"] == "histogram"
            assert series["count"] >= 1
        epoch_series = families["train_epoch_seconds"]["series"]
        phases = {s["labels"]["phase"] for s in epoch_series}
        assert "cgan" in phases

    def test_history_json_gains_epoch_seconds(self, telemetry_run):
        _, _, out = telemetry_run
        history = json.loads((out / "history.json").read_text())
        assert len(history["epoch_seconds"]) == 2
        assert all(s > 0 for s in history["epoch_seconds"])

    def test_mint_and_evaluate_share_a_log_file(self, workspace, dataset_path,
                                                telemetry_run, capsys):
        log = workspace / "shared.jsonl"
        path = workspace / "mint_telemetry.npz"
        code = main([
            "mint", "--clips", "4", "--seed", "3",
            "--out", str(path), "--log-json", str(log),
        ])
        assert code == 0
        _, _, model_dir = telemetry_run
        code = main([
            "evaluate", "--dataset", str(dataset_path),
            "--model", str(model_dir), "--epochs", "2", "--seed", "1",
            "--log-json", str(log),
        ])
        assert code == 0
        runs = split_runs(read_run_log(log))
        assert len(runs) == 2
        for run in runs:
            validate_run_log(run)
        mint_stages = {
            e["stage"] for e in runs[0] if e["event"] == "stage_end"
        }
        assert {"rasterize", "optical", "resist", "contour"} <= mint_stages
        assert any(e["event"] == "eval_end" for e in runs[1])
        capsys.readouterr()
        assert main(["report", "--log", str(log), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [run["command"] for run in payload["runs"]] == \
            ["mint", "evaluate"]

    def test_evaluate_json_flag_prints_table3_row(self, dataset_path,
                                                  telemetry_run, capsys):
        _, _, model_dir = telemetry_run
        code = main([
            "evaluate", "--dataset", str(dataset_path),
            "--model", str(model_dir), "--epochs", "2", "--seed", "1",
            "--json",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        row = json.loads(stdout[: stdout.rindex("}") + 1])
        assert row["method"] == "LithoGAN"
        assert row["dataset"] == "N10"
        for key in ("ede_mean_nm", "pixel_accuracy", "mean_iou",
                    "cd_error_mean_nm", "num_samples"):
            assert key in row

    def test_failed_run_emits_run_end_error(self, workspace, capsys):
        log = workspace / "err.jsonl"
        code = main([
            "train", "--dataset", str(workspace / "absent.npz"),
            "--out", str(workspace / "m_err"), "--log-json", str(log),
        ])
        assert code == 1
        capsys.readouterr()
        events = read_run_log(log)
        validate_run_log(events)
        assert events[-1]["event"] == "run_end"
        assert events[-1]["status"] == "error"
        assert "not found" in events[-1]["error"]

    def test_log_json_creates_parent_directories(self, workspace, capsys):
        log = workspace / "deep" / "nested" / "run.jsonl"
        code = main([
            "process-window", "--node", "N10", "--seed", "4",
            "--log-json", str(log),
        ])
        assert code == 0
        capsys.readouterr()
        validate_run_log(read_run_log(log))

    def test_run_summary_line_printed_without_flags(self, capsys):
        code = main(["process-window", "--node", "N10", "--seed", "4"])
        assert code == 0
        assert "run summary: command=process-window" in capsys.readouterr().out


@pytest.fixture(scope="module")
def serve_model_dir(workspace, dataset_path):
    """A quickly trained model for serving/fail-closed tests."""
    out = workspace / "serve_model"
    code = main([
        "train", "--dataset", str(dataset_path), "--epochs", "1",
        "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    return out


class TestFailClosedWeights:
    """Missing/corrupted weights: distinct exit code 3, one-line error."""

    def assert_fails_closed(self, argv, capsys, expect_in_error):
        code = main(argv)
        assert code == 3
        err = capsys.readouterr().err
        assert expect_in_error in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_evaluate_missing_model_dir(self, workspace, dataset_path,
                                        capsys):
        missing = workspace / "no_such_model"
        self.assert_fails_closed(
            ["evaluate", "--dataset", str(dataset_path),
             "--model", str(missing)],
            capsys, str(missing / "generator.npz"),
        )

    def test_predict_missing_model_dir(self, workspace, dataset_path,
                                       capsys):
        missing = workspace / "still_no_model"
        self.assert_fails_closed(
            ["predict", "--dataset", str(dataset_path),
             "--model", str(missing)],
            capsys, str(missing / "generator.npz"),
        )

    @pytest.fixture
    def damaged_model(self, workspace, serve_model_dir):
        import shutil

        damaged = workspace / "damaged_model"
        if damaged.exists():
            shutil.rmtree(damaged)
        shutil.copytree(serve_model_dir, damaged)
        return damaged

    def test_corrupted_weight_file(self, dataset_path, damaged_model,
                                   capsys):
        (damaged_model / "generator.npz").write_text("not an archive")
        self.assert_fails_closed(
            ["evaluate", "--dataset", str(dataset_path),
             "--model", str(damaged_model)],
            capsys, str(damaged_model / "generator.npz"),
        )

    def test_damaged_deflate_weight_file(self, dataset_path, damaged_model,
                                         damage_deflate, capsys):
        damage_deflate(damaged_model / "generator.npz")
        self.assert_fails_closed(
            ["evaluate", "--dataset", str(dataset_path),
             "--model", str(damaged_model)],
            capsys, str(damaged_model / "generator.npz"),
        )

    def test_missing_center_scaling(self, dataset_path, damaged_model,
                                    capsys):
        (damaged_model / "center_scaling.npz").unlink()
        self.assert_fails_closed(
            ["predict", "--dataset", str(dataset_path),
             "--model", str(damaged_model)],
            capsys, str(damaged_model / "center_scaling.npz"),
        )

    def test_weight_failure_still_logs_run_end(self, workspace,
                                               dataset_path, capsys):
        log = workspace / "failclosed.jsonl"
        code = main([
            "predict", "--dataset", str(dataset_path),
            "--model", str(workspace / "ghost_model"),
            "--log-json", str(log),
        ])
        assert code == 3
        capsys.readouterr()
        events = read_run_log(log)
        validate_run_log(events)
        assert events[-1]["status"] == "error"


class TestPredict:
    """The serving subcommand: every admitted clip answered, exit 0."""

    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["predict", "--dataset", "d.npz", "--model", "m/"]
        )
        assert args.deadline is None
        assert args.inject_degenerate is None
        assert not args.no_fallback

    def test_serves_every_clip(self, workspace, dataset_path,
                               serve_model_dir, capsys):
        report_path = workspace / "serve_report.json"
        code = main([
            "predict", "--dataset", str(dataset_path),
            "--model", str(serve_model_dir), "--seed", "1",
            "--limit", "6", "--report", str(report_path),
        ])
        assert code == 0
        assert "served 6/6" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert report["requested"] == 6
        assert report["admitted"] == 6
        assert report["rejected"] == 0
        assert sorted(c["clip"] for c in report["served"]) == list(range(6))
        assert report["latency_quantiles_s"].keys() == {"p50", "p90", "p99"}

    def test_degradation_drill_reports_injected_fallbacks(
            self, workspace, dataset_path, serve_model_dir, capsys):
        report_path = workspace / "drill_report.json"
        code = main([
            "predict", "--dataset", str(dataset_path),
            "--model", str(serve_model_dir), "--seed", "1",
            "--inject-degenerate", "0.25", "--report", str(report_path),
        ])
        assert code == 0
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        injected = report["injected_degenerate"]
        assert len(injected) == 2  # 25% of 8, deterministic under --seed
        assert report["admitted"] == 8
        assert len(report["served"]) == 8  # degraded clips still answered
        # a 1-epoch model may fall back on its own outputs too, so the
        # guarantee here is containment, not equality (equality is asserted
        # against the golden playback model in tests/serving)
        fallback_clips = [
            c["clip"] for c in report["served"]
            if c["provenance"] == "fallback_sim"
        ]
        assert set(injected) <= set(fallback_clips)
        assert report["fallbacks"] == len(fallback_clips)

    def test_no_fallback_mode_never_simulates(self, workspace, dataset_path,
                                              serve_model_dir, capsys):
        code = main([
            "predict", "--dataset", str(dataset_path),
            "--model", str(serve_model_dir), "--seed", "1",
            "--limit", "4", "--no-fallback",
            "--inject-degenerate", "0.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fallbacks: 0" in out
        assert "served 4/4" in out

    def test_serve_run_log_validates(self, workspace, dataset_path,
                                     serve_model_dir, capsys):
        log = workspace / "serve.jsonl"
        code = main([
            "predict", "--dataset", str(dataset_path),
            "--model", str(serve_model_dir), "--seed", "1",
            "--limit", "4", "--inject-degenerate", "0.5",
            "--log-json", str(log),
        ])
        assert code == 0
        capsys.readouterr()
        events = read_run_log(log)
        validate_run_log(events)
        kinds = [e["event"] for e in events]
        assert "admission" in kinds
        assert events[-1]["status"] == "ok"

    def test_bad_injection_fraction_is_a_usage_error(
            self, dataset_path, serve_model_dir, capsys):
        code = main([
            "predict", "--dataset", str(dataset_path),
            "--model", str(serve_model_dir),
            "--inject-degenerate", "1.5",
        ])
        assert code == 2
        assert "inject-degenerate" in capsys.readouterr().err


class TestDataPolicy:
    """--data-policy: validate, quarantine, salvage, or repair on load."""

    @pytest.fixture
    def corrupt_copy(self, dataset_path, tmp_path):
        """A private corrupted copy of the shared dataset (2 bad records)."""
        import shutil

        from repro.data import manifest_path_for
        from repro.runtime import FaultPlan

        copy = tmp_path / "ds.npz"
        shutil.copy(dataset_path, copy)
        shutil.copy(manifest_path_for(dataset_path), manifest_path_for(copy))
        chosen = FaultPlan(seed=13).corrupt_random_records(copy, 2)
        return copy, chosen

    def test_parser_accepts_policies(self):
        for command in ("train", "evaluate"):
            args = build_parser().parse_args([
                command, "--dataset", "d.npz", "--model", "m/",
                "--data-policy", "salvage",
            ] if command == "evaluate" else [
                command, "--dataset", "d.npz", "--out", "m/",
                "--data-policy", "salvage",
            ])
            assert args.data_policy == "salvage"
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "evaluate", "--dataset", "d.npz", "--model", "m/",
                "--data-policy", "paranoid",
            ])

    def test_strict_passes_clean_dataset(self, dataset_path, serve_model_dir,
                                         capsys):
        code = main([
            "evaluate", "--dataset", str(dataset_path),
            "--model", str(serve_model_dir), "--epochs", "1", "--seed", "1",
            "--data-policy", "strict",
        ])
        assert code == 0
        assert "all 8 records verified" in capsys.readouterr().out

    def test_strict_fails_closed_with_exit_4(self, corrupt_copy,
                                             serve_model_dir, capsys):
        copy, chosen = corrupt_copy
        code = main([
            "evaluate", "--dataset", str(copy),
            "--model", str(serve_model_dir), "--epochs", "1", "--seed", "1",
            "--data-policy", "strict",
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        for index in chosen:
            assert str(index) in err

    def test_salvage_proceeds_on_the_verified_subset(self, corrupt_copy,
                                                     serve_model_dir,
                                                     tmp_path, capsys):
        copy, chosen = corrupt_copy
        log = tmp_path / "salvage.jsonl"
        code = main([
            "evaluate", "--dataset", str(copy),
            "--model", str(serve_model_dir), "--epochs", "1", "--seed", "1",
            "--data-policy", "salvage", "--log-json", str(log),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"salvaged {8 - len(chosen)}/8 records" in out
        events = read_run_log(log)
        validate_run_log(events)
        quarantine = next(
            e for e in events if e["event"] == "data_quarantine")
        assert quarantine["quarantined"] == len(chosen)
        assert quarantine["total"] == 8
        assert not quarantine["manifest_missing"]

    def test_repair_heals_then_strict_passes(self, corrupt_copy,
                                             serve_model_dir, tmp_path,
                                             capsys):
        from repro.data import (
            dataset_record_hashes,
            load_dataset,
            load_manifest,
        )

        copy, chosen = corrupt_copy
        log = tmp_path / "repair.jsonl"
        code = main([
            "evaluate", "--dataset", str(copy),
            "--model", str(serve_model_dir), "--epochs", "1", "--seed", "1",
            "--data-policy", "repair", "--log-json", str(log),
        ])
        assert code == 0
        assert f"repaired {len(chosen)} record(s)" in capsys.readouterr().out
        manifest = load_manifest(copy)
        assert dataset_record_hashes(load_dataset(copy)) == \
            manifest.record_hashes
        events = read_run_log(log)
        validate_run_log(events)
        repair = next(e for e in events if e["event"] == "data_repair")
        assert repair["repaired"] == len(chosen)
        assert repair["indices"] == list(chosen)
        # the healed archive now passes the fail-closed policy
        code = main([
            "evaluate", "--dataset", str(copy),
            "--model", str(serve_model_dir), "--epochs", "1", "--seed", "1",
            "--data-policy", "strict",
        ])
        assert code == 0
        capsys.readouterr()

    def test_repaired_evaluate_matches_uncorrupted_baseline(
            self, dataset_path, corrupt_copy, serve_model_dir, capsys):
        copy, _ = corrupt_copy
        code = main([
            "evaluate", "--dataset", str(copy),
            "--model", str(serve_model_dir), "--epochs", "1", "--seed", "1",
            "--data-policy", "repair", "--json",
        ])
        assert code == 0
        repaired_out = capsys.readouterr().out
        code = main([
            "evaluate", "--dataset", str(dataset_path),
            "--model", str(serve_model_dir), "--epochs", "1", "--seed", "1",
            "--json",
        ])
        assert code == 0
        baseline_out = capsys.readouterr().out

        def row(text):
            return json.loads(text[text.index("{"): text.rindex("}") + 1])

        assert row(repaired_out) == row(baseline_out)

    def test_legacy_archive_warns_but_loads(self, dataset_path,
                                            serve_model_dir, tmp_path,
                                            capsys):
        import shutil

        copy = tmp_path / "legacy.npz"
        shutil.copy(dataset_path, copy)  # no manifest sidecar
        code = main([
            "evaluate", "--dataset", str(copy),
            "--model", str(serve_model_dir), "--epochs", "1", "--seed", "1",
            "--data-policy", "strict",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "no integrity manifest" in captured.err

    def test_counters_exported_via_metrics_out(self, corrupt_copy,
                                               serve_model_dir, tmp_path,
                                               capsys):
        copy, chosen = corrupt_copy
        metrics = tmp_path / "metrics.json"
        code = main([
            "evaluate", "--dataset", str(copy),
            "--model", str(serve_model_dir), "--epochs", "1", "--seed", "1",
            "--data-policy", "repair", "--metrics-out", str(metrics),
        ])
        assert code == 0
        capsys.readouterr()
        families = json.loads(metrics.read_text())["metrics"]
        assert families["data_records_quarantined_total"]["series"][0][
            "value"] == len(chosen)
        assert families["data_records_repaired_total"]["series"][0][
            "value"] == len(chosen)
        assert families["data_validations_total"]["series"][0]["value"] == 1


class TestProcessWindow:
    def test_runs_and_reports(self, capsys):
        code = main([
            "process-window", "--node", "N10", "--seed", "4",
            "--array-type", "isolated",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "nominal CD" in output
        assert "depth of focus" in output


class TestCrashRecovery:
    """Kill a training run mid-schedule, then resume it from checkpoints."""

    def test_resume_without_checkpoint_dir_is_an_error(self, workspace,
                                                       dataset_path, capsys):
        code = main([
            "train", "--dataset", str(dataset_path),
            "--out", str(workspace / "m3"), "--resume",
        ])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_zero_checkpoint_cadence_is_a_one_line_error(
            self, workspace, dataset_path, capsys):
        ckpts = workspace / "zero_cadence_ckpts"
        log = workspace / "zero_cadence.jsonl"
        code = main([
            "train", "--dataset", str(dataset_path), "--epochs", "1",
            "--out", str(workspace / "zero_cadence_model"),
            "--checkpoint-dir", str(ckpts), "--checkpoint-every", "0",
            "--log-json", str(log),
        ])
        assert code != 0
        err = capsys.readouterr().err
        assert "checkpoint_every must be >= 1, got 0" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        events = [record["event"] for record in read_run_log(log)]
        assert "epoch_end" not in events
        assert not (ckpts / "cgan" / "manifest.json").exists()

    def test_interrupt_then_resume_completes(self, workspace, dataset_path,
                                             capsys):
        out = workspace / "recovered_model"
        ckpts = workspace / "ckpts"
        log = workspace / "recovery.jsonl"

        code = main([
            "train", "--dataset", str(dataset_path), "--epochs", "1",
            "--seed", "1", "--out", str(out),
            "--checkpoint-dir", str(ckpts), "--log-json", str(log),
            "--inject-interrupt", "center-cnn:5:0",
        ])
        assert code == 130
        assert "interrupted" in capsys.readouterr().err
        assert not (out / "generator.npz").exists()
        assert (ckpts / "cgan" / "manifest.json").exists()
        assert (ckpts / "center-cnn" / "manifest.json").exists()

        code = main([
            "train", "--dataset", str(dataset_path), "--epochs", "1",
            "--seed", "1", "--out", str(out),
            "--checkpoint-dir", str(ckpts), "--log-json", str(log),
            "--resume",
        ])
        assert code == 0
        capsys.readouterr()
        assert (out / "generator.npz").exists()

        runs = split_runs(read_run_log(log))
        assert len(runs) == 2
        statuses = [run[-1].get("status") for run in runs]
        assert statuses == ["interrupted", "ok"]
        validate_run_log(runs[-1])
        resumed_events = [record["event"] for record in runs[-1]]
        assert "checkpoint" in resumed_events
        # cgan finished before the kill: the resumed run re-trains only the
        # center CNN, so it must not emit any cgan epoch_end events
        cgan_epochs = [
            record for record in runs[-1]
            if record["event"] == "epoch_end"
            and record.get("phase") == "cgan"
        ]
        assert cgan_epochs == []


class TestServeSoak:
    """`serve` over golden playback: tenants, chaos faults, the watchdog."""

    def soak(self, dataset_path, tmp_path, capsys, *extra):
        report = tmp_path / "soak.json"
        code = main([
            "serve", "--dataset", str(dataset_path), "--seed", "1",
            "--soak", "--report", str(report), *extra,
        ])
        assert code == 0, capsys.readouterr().err
        return json.loads(report.read_text())

    def test_chaos_soak_answers_every_request_fairly(
            self, dataset_path, tmp_path, capsys):
        log = tmp_path / "soak.jsonl"
        report = self.soak(
            dataset_path, tmp_path, capsys, "--duration", "1.5",
            "--tenants", "opc:2,ilt:1", "--inject-slow-every", "10:0.05",
            "--inject-degenerate", "0.1", "--fairness-bound", "0.5",
            "--log-json", str(log),
        )
        assert report["unanswered"] == 0
        assert report["answered"] == report["submitted"]
        assert report["served"] > 0
        assert not report["wedged"]
        assert report["fairness_gap"] <= 0.5
        assert set(report["tenants"]) == {"opc", "ilt"}
        assert all(t["submitted"] > 0 for t in report["tenants"].values())
        assert report["latency_p50_ms"] <= report["latency_p99_ms"]
        validate_run_log(read_run_log(log))

    def test_wedged_executor_fails_typed_not_hung(
            self, dataset_path, tmp_path, capsys):
        report = self.soak(
            dataset_path, tmp_path, capsys, "--duration", "1",
            "--watchdog", "0.3", "--inject-wedge", "2:600",
        )
        assert report["wedged"] is True
        assert report["unanswered"] == 0
        assert report["shed_by_reason"].get("wedged", 0) > 0


class TestOptimize:
    """`optimize`: simulator-verified, deterministic ILT through the proxy."""

    CLIPS, STEPS = 2, 4

    @pytest.fixture(scope="class")
    def ilt_run(self, workspace, serve_model_dir):
        paths = {name: workspace / f"ilt_{name}" for name in
                 ("report.json", "repeat.json", "run.jsonl", "profile.json")}
        argv = [
            "optimize", "--model", str(serve_model_dir),
            "--clips", str(self.CLIPS), "--steps", str(self.STEPS),
            "--verify-every", "2", "--seed", "1",
        ]
        assert main([*argv, "--report", str(paths["report.json"]),
                     "--log-json", str(paths["run.jsonl"])]) == 0
        # the repeat is profiled, so the byte comparison also shows that
        # profiling leaves ILT's output alone
        assert main([*argv, "--report", str(paths["repeat.json"]),
                     "--profile-out", str(paths["profile.json"])]) == 0
        return paths

    def test_verified_masks_beat_both_baselines(self, ilt_run):
        report = json.loads(ilt_run["report.json"].read_text())
        assert report["type"] == "optimize"
        assert report["clips"] == self.CLIPS
        assert report["verifications"] > 0
        assert all(clip["verifications"] > 0 for clip in report["per_clip"])
        assert report["improved_vs_unoptimized"]
        assert report["improved_vs_rule_opc"]
        assert report["epe_ilt_nm"] < report["epe_unoptimized_nm"]
        assert report["epe_ilt_nm"] <= report["epe_rule_opc_nm"]

    def test_same_seed_reports_are_byte_identical(self, ilt_run):
        assert (ilt_run["report.json"].read_bytes()
                == ilt_run["repeat.json"].read_bytes())

    def test_run_log_and_report_ilt_section(self, ilt_run, capsys):
        events = read_run_log(ilt_run["run.jsonl"])
        validate_run_log(events)
        kinds = [e["event"] for e in events]
        assert kinds.count("ilt_start") == kinds.count("ilt_end") == 1
        assert kinds.count("ilt_step") == self.CLIPS * self.STEPS
        capsys.readouterr()
        assert main(["report", "--log", str(ilt_run["run.jsonl"]),
                     "--json"]) == 0
        ilt = json.loads(capsys.readouterr().out)["ilt"]
        report = json.loads(ilt_run["report.json"].read_text())
        assert ilt["runs"] == ilt["improved"] == 1
        assert ilt["steps"] == self.CLIPS * self.STEPS
        assert ilt["verifications"] == report["verifications"]

    def test_profile_times_the_gradient_path(self, ilt_run, capsys):
        """Each ILT step is one generator forward and one gradient walk."""
        payload = json.loads(ilt_run["profile.json"].read_text())
        rows = [row for row in payload["layers"]
                if row["network"] == "generator"]
        assert rows
        for row in rows:
            assert row["calls"] == self.CLIPS * self.STEPS
            assert row["forward_s"] > 0.0 and row["backward_s"] > 0.0
        capsys.readouterr()
        assert main(["report", "--log", str(ilt_run["run.jsonl"]),
                     "--profile", str(ilt_run["profile.json"])]) == 0
        assert "hot layers" in capsys.readouterr().out
