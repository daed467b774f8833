"""The ``repro-litho registry`` group and registry-backed ``serve``, end to end.

Registry bookkeeping (publish/list/verify/promote/rollback) runs against a
cheap untrained-but-loadable weight directory — the registry never cares
how good the weights are, only that they verify.  The canary drill serves
the golden playback model as the incumbent and a published degenerate
version as the candidate, and asserts the loop rolled it back on its own
with every request answered.
"""

import json

import numpy as np
import pytest

from repro import api
from repro.cli import main
from repro.config import N10, reduced
from repro.core import LithoGan
from repro.telemetry import read_run_log, validate_run_log


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_registry")


@pytest.fixture(scope="module")
def dataset_path(workspace):
    path = workspace / "tiny_n10.npz"
    code = main([
        "mint", "--node", "N10", "--clips", "6",
        "--seed", "1", "--out", str(path),
    ])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def weights_dir(workspace):
    """An untrained (but fully loadable) reduced-preset weight directory."""
    config = reduced(N10, num_clips=6, seed=1)
    model = LithoGan(config, np.random.default_rng(1))
    out = workspace / "weights"
    api.save_model(model, None, out, seed=1, node="N10")
    return out


class TestRegistryCommands:
    def test_publish_list_verify_roundtrip(self, workspace, weights_dir,
                                           capsys):
        registry = workspace / "reg_roundtrip"
        code = main([
            "registry", "--registry", str(registry), "publish",
            "--name", "litho", "--weights", str(weights_dir),
        ])
        assert code == 0
        assert "published litho@1" in capsys.readouterr().out

        code = main([
            "registry", "--registry", str(registry), "publish",
            "--name", "litho", "--weights", str(weights_dir),
            "--inject-degenerate",
        ])
        assert code == 0
        assert "degenerate drill" in capsys.readouterr().out

        code = main(["registry", "--registry", str(registry), "list"])
        assert code == 0
        out = capsys.readouterr().out
        assert "litho@1" in out and "litho@2" in out

        code = main([
            "registry", "--registry", str(registry), "verify",
            "--model", "litho@2",
        ])
        assert code == 0
        assert "all checksums match" in capsys.readouterr().out

    def test_verify_corruption_exits_6_naming_the_path(
            self, workspace, weights_dir, capsys):
        registry = workspace / "reg_corrupt"
        assert main([
            "registry", "--registry", str(registry), "publish",
            "--name", "litho", "--weights", str(weights_dir),
        ]) == 0
        capsys.readouterr()
        victim = registry / "litho" / "v000001" / "generator.npz"
        victim.write_bytes(b"flipped bits")
        code = main([
            "registry", "--registry", str(registry), "verify",
            "--model", "litho@1",
        ])
        assert code == 6
        err = capsys.readouterr().err
        assert str(victim) in err
        assert "Traceback" not in err

    def test_promote_and_rollback(self, workspace, weights_dir, capsys):
        registry = workspace / "reg_promote"
        for _ in range(2):
            assert main([
                "registry", "--registry", str(registry), "publish",
                "--name", "litho", "--weights", str(weights_dir),
            ]) == 0
        assert main([
            "registry", "--registry", str(registry), "promote",
            "--model", "litho@1",
        ]) == 0
        assert main([
            "registry", "--registry", str(registry), "promote",
            "--model", "litho@2",
        ]) == 0
        capsys.readouterr()
        code = main([
            "registry", "--registry", str(registry), "rollback",
            "--name", "litho",
        ])
        assert code == 0
        assert "@2 -> @1" in capsys.readouterr().out
        # History exhausted: the next rollback fails closed, exit 6.
        code = main([
            "registry", "--registry", str(registry), "rollback",
            "--name", "litho",
        ])
        assert code == 6

    def test_publish_promote_flag_moves_the_pointer(self, workspace,
                                                    weights_dir, capsys):
        registry = workspace / "reg_autopromote"
        assert main([
            "registry", "--registry", str(registry), "publish",
            "--name", "litho", "--weights", str(weights_dir),
            "--promote",
        ]) == 0
        out = capsys.readouterr().out
        assert "promoted litho@1" in out
        assert main(["registry", "--registry", str(registry), "list"]) == 0
        assert "active: litho@1" in capsys.readouterr().out


class TestServeFromRegistry:
    def test_unresolvable_model_ref_exits_6(self, workspace, dataset_path,
                                            capsys):
        registry = workspace / "reg_empty"
        registry.mkdir(exist_ok=True)
        code = main([
            "serve", "--dataset", str(dataset_path),
            "--registry", str(registry), "--model", "ghost@latest",
            "--duration", "1",
        ])
        assert code == 6
        assert "ghost" in capsys.readouterr().err

    def test_corrupt_version_never_serves(self, workspace, dataset_path,
                                          weights_dir, capsys):
        registry = workspace / "reg_corrupt_serve"
        assert main([
            "registry", "--registry", str(registry), "publish",
            "--name", "litho", "--weights", str(weights_dir),
        ]) == 0
        capsys.readouterr()
        victim = registry / "litho" / "v000001" / "generator.npz"
        victim.write_bytes(b"flipped bits")
        code = main([
            "serve", "--dataset", str(dataset_path),
            "--registry", str(registry), "--model", "litho@1",
            "--duration", "1",
        ])
        assert code == 6
        assert str(victim) in capsys.readouterr().err

    def test_registry_incumbent_is_served_under_its_label(
            self, workspace, dataset_path, weights_dir, capsys):
        registry = workspace / "reg_incumbent"
        assert main([
            "registry", "--registry", str(registry), "publish",
            "--name", "litho", "--weights", str(weights_dir),
        ]) == 0
        report = workspace / "incumbent.json"
        code = main([
            "serve", "--dataset", str(dataset_path), "--seed", "1",
            "--registry", str(registry), "--model", "litho@1",
            "--duration", "1", "--soak", "--report", str(report),
        ])
        assert code == 0, capsys.readouterr().err
        payload = json.loads(report.read_text())
        assert payload["server"]["model"] == "litho@1"
        assert payload["unanswered"] == 0

    def test_canary_requires_registry(self, dataset_path, capsys):
        code = main([
            "serve", "--dataset", str(dataset_path),
            "--canary", "litho@2", "--duration", "1",
        ])
        assert code == 2
        assert "--registry" in capsys.readouterr().err

    def test_degenerate_canary_auto_rolls_back_with_zero_drops(
            self, workspace, dataset_path, weights_dir, capsys):
        registry = workspace / "reg_canary"
        assert main([
            "registry", "--registry", str(registry), "publish",
            "--name", "litho", "--weights", str(weights_dir),
        ]) == 0
        assert main([
            "registry", "--registry", str(registry), "publish",
            "--name", "litho", "--weights", str(weights_dir),
            "--inject-degenerate",
        ]) == 0
        capsys.readouterr()

        log = workspace / "canary.jsonl"
        report = workspace / "canary.json"
        code = main([
            "serve", "--dataset", str(dataset_path), "--seed", "1",
            "--registry", str(registry), "--canary", "litho@2",
            "--canary-fraction", "0.5",
            "--duration", "2.5", "--qps-start", "40", "--qps-end", "80",
            "--soak", "--log-json", str(log), "--report", str(report),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "automatic rollback of litho@2" in out

        payload = json.loads(report.read_text())
        assert payload["unanswered"] == 0
        assert payload["canary_rollbacks"], "no rollback verdict recorded"
        assert payload["server"]["rollbacks"] == 1
        assert payload["server"]["candidate"] is None

        events = read_run_log(log)
        validate_run_log(events)
        kinds = [event["event"] for event in events]
        assert "model_swap" in kinds
        assert "canary_verdict" in kinds
        assert "rollback" in kinds

    def test_report_summarizes_the_rollback_incident(self, workspace,
                                                     capsys):
        log = workspace / "canary.jsonl"
        if not log.exists():
            pytest.skip("canary drill has not run")
        code = main(["report", "--log", str(log), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["serving"]["rollbacks"] >= 1
        assert payload["serving"]["canary_verdicts"]["rollback"] >= 1
        assert not payload.get("unknown_events")
