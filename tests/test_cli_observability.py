"""CLI observability plane: traces, metric exports, profiles, `report`."""

import json
from collections import Counter

import pytest

from repro.cli import build_parser, main
from repro.telemetry import validate_chrome_trace


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_observability")


@pytest.fixture(scope="module")
def observed_mint(workspace):
    """An 8-clip, 4-worker mint with every telemetry export switched on."""
    paths = {
        "dataset": workspace / "obs.npz",
        "log": workspace / "run.jsonl",
        "trace": workspace / "trace.json",
        "metrics": workspace / "metrics.json",
    }
    assert main([
        "mint", "--node", "N10", "--clips", "8", "--seed", "3",
        "--workers", "4", "--out", str(paths["dataset"]),
        "--log-json", str(paths["log"]),
        "--trace-out", str(paths["trace"]),
        "--metrics-out", str(paths["metrics"]),
    ]) == 0
    return paths


@pytest.fixture(scope="module")
def serial_metrics(workspace):
    path = workspace / "serial_metrics.json"
    assert main([
        "mint", "--node", "N10", "--clips", "8", "--seed", "3",
        "--workers", "1", "--out", str(workspace / "serial.npz"),
        "--metrics-out", str(path),
    ]) == 0
    return path


class TestParserSurface:
    @pytest.mark.parametrize("command,extra", [
        ("mint", ["--out", "x.npz"]),
        ("train", ["--dataset", "d.npz", "--out", "m"]),
        ("evaluate", ["--dataset", "d.npz", "--model", "m"]),
        ("predict", ["--dataset", "d.npz", "--model", "m"]),
        ("process-window", []),
    ])
    def test_trace_out_shared_across_subcommands(self, command, extra):
        args = build_parser().parse_args(
            [command, *extra, "--trace-out", "t.json"])
        assert args.trace_out == "t.json"

    @pytest.mark.parametrize("command,extra", [
        ("train", ["--dataset", "d.npz", "--out", "m"]),
        ("evaluate", ["--dataset", "d.npz", "--model", "m"]),
        ("predict", ["--dataset", "d.npz", "--model", "m"]),
    ])
    def test_profile_out_on_network_running_subcommands(self, command, extra):
        args = build_parser().parse_args(
            [command, *extra, "--profile-out", "p.json"])
        assert args.profile_out == "p.json"

    def test_mint_has_no_profile_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["mint", "--out", "x.npz", "--profile-out", "p.json"])

    def test_report_parser_defaults(self):
        args = build_parser().parse_args(["report", "--log", "run.jsonl"])
        assert (args.trace, args.metrics, args.profile) == (None, None, None)
        assert not args.json


class TestMergedTrace:
    def test_trace_validates_and_loads(self, observed_mint):
        payload = json.loads(observed_mint["trace"].read_text())
        validate_chrome_trace(payload)

    def test_shard_spans_from_all_four_workers(self, observed_mint):
        payload = json.loads(observed_mint["trace"].read_text())
        events = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        shards = [e for e in events if e["name"] == "parallel_shard"]
        assert {e["args"]["worker"] for e in shards} == \
            {"w0", "w1", "w2", "w3"}
        assert all(e["cat"] == "main" for e in shards)

    def test_worker_stage_spans_parent_to_their_shard(self, observed_mint):
        payload = json.loads(observed_mint["trace"].read_text())
        events = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        shard_of = {e["args"]["span_id"]: e["args"]["worker"]
                    for e in events if e["name"] == "parallel_shard"}
        workers = [e for e in events if e["cat"] != "main"]
        assert workers, "worker spans must ship back to the parent trace"
        stages = Counter(e["name"] for e in workers)
        # each of the 8 clips runs the four simulator stages in its worker
        for stage in ("rasterize", "optical", "resist", "contour"):
            assert stages[stage] == 8
        for event in workers:
            parent = event["args"]["parent_id"]
            assert parent in shard_of
            assert shard_of[parent] == event["cat"]

    def test_one_trace_id_across_the_merge(self, observed_mint):
        payload = json.loads(observed_mint["trace"].read_text())
        ids = {e["args"]["trace_id"] for e in payload["traceEvents"]
               if e.get("ph") == "X"}
        assert len(ids) == 1


class TestAggregatedMetrics:
    def test_work_proportional_counters_match_serial(self, observed_mint,
                                                     serial_metrics):
        parallel = json.loads(
            observed_mint["metrics"].read_text())["metrics"]
        serial = json.loads(serial_metrics.read_text())["metrics"]

        def values(snapshot, name):
            return {
                tuple(sorted(series.get("labels", {}).items())):
                    series["value"]
                for series in snapshot[name]["series"]
            }

        assert values(parallel, "clips_processed_total") == \
            values(serial, "clips_processed_total")
        # every simulator stage ran the same number of times either way
        serial_stages = values(serial, "stages_total")
        parallel_stages = values(parallel, "stages_total")
        for labels, count in serial_stages.items():
            assert parallel_stages[labels] == count


class TestReportCommand:
    def test_reports_healthy_run_with_workers(self, observed_mint, capsys):
        assert main([
            "report", "--log", str(observed_mint["log"]),
            "--trace", str(observed_mint["trace"]),
            "--metrics", str(observed_mint["metrics"]),
        ]) == 0
        out = capsys.readouterr().out
        assert "runs: 1 (healthy)" in out
        assert "workers: 4 lanes" in out
        assert "mint" in out

    def test_json_output_is_pure_json(self, observed_mint, capsys):
        assert main([
            "report", "--log", str(observed_mint["log"]), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["healthy"] is True
        assert payload["runs"][0]["command"] == "mint"
        assert payload["runs"][0]["build"]["version"]

    def test_out_flag_saves_machine_readable_report(self, observed_mint,
                                                    workspace, capsys):
        saved = workspace / "report.json"
        assert main([
            "report", "--log", str(observed_mint["log"]),
            "--out", str(saved),
        ]) == 0
        assert json.loads(saved.read_text())["schema_version"] == 1

    def test_json_out_prints_exactly_what_it_saves(self, observed_mint,
                                                   workspace, capsys):
        saved = workspace / "report_json.json"
        assert main([
            "report", "--log", str(observed_mint["log"]),
            "--trace", str(observed_mint["trace"]),
            "--metrics", str(observed_mint["metrics"]),
            "--json", "--out", str(saved),
        ]) == 0
        assert capsys.readouterr().out == saved.read_text()

    def test_corrupt_log_exits_nonzero_naming_path(self, workspace, capsys):
        bad = workspace / "bad.jsonl"
        bad.write_text('{"event": "run_start"}\nnot json\n{"seq": 2}\n')
        # well-formed JSON, but a stage_end whose seconds fail its row check
        malformed = workspace / "malformed.jsonl"
        malformed.write_text(
            '{"event": "run_start"}\n'
            '{"event": "stage_end", "stage": "optical", "seconds": "fast"}\n')
        for log in (bad, malformed):
            assert main(["report", "--log", str(log)]) == 1
            assert str(log) in capsys.readouterr().err

    def test_missing_log_exits_nonzero_naming_path(self, workspace, capsys):
        missing = workspace / "absent.jsonl"
        assert main(["report", "--log", str(missing)]) == 1
        assert str(missing) in capsys.readouterr().err

    def test_corrupt_trace_exits_nonzero_naming_path(self, observed_mint,
                                                     workspace, capsys):
        bad = workspace / "bad_trace.json"
        bad.write_text("[not json")
        assert main([
            "report", "--log", str(observed_mint["log"]),
            "--trace", str(bad),
        ]) == 1
        assert str(bad) in capsys.readouterr().err


class TestLayerProfile:
    @pytest.fixture(scope="class")
    def profiled_train(self, observed_mint, workspace):
        paths = {
            "model": workspace / "model",
            "profile": workspace / "profile.json",
            "log": workspace / "train.jsonl",
        }
        assert main([
            "train", "--dataset", str(observed_mint["dataset"]),
            "--epochs", "1", "--out", str(paths["model"]),
            "--profile-out", str(paths["profile"]),
            "--log-json", str(paths["log"]),
        ]) == 0
        return paths

    def test_profile_artifact_has_layer_rows(self, profiled_train):
        payload = json.loads(profiled_train["profile"].read_text())
        assert payload["schema_version"] == 1
        networks = {row["network"] for row in payload["layers"]}
        assert {"generator", "discriminator", "center_cnn"} <= networks
        assert payload["forward_s"] > 0.0
        assert any(row["flops"] > 0 for row in payload["layers"])

    def test_report_surfaces_hot_layers(self, profiled_train, capsys):
        assert main([
            "report", "--log", str(profiled_train["log"]),
            "--profile", str(profiled_train["profile"]),
        ]) == 0
        out = capsys.readouterr().out
        assert "hot layers (top 5):" in out
