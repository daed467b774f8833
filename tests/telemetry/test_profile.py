"""Layer profiler: per-layer timing/FLOPs, determinism, zero overhead."""

import itertools

import numpy as np
import pytest

from repro.errors import TelemetryError
from repro.nn.layers.activations import ReLU
from repro.nn.layers.dense import Dense
from repro.nn.network import Sequential
from repro.telemetry import LayerProfiler, ProfileReport, profiled
from repro.telemetry.profile import LayerStats


def _toy_net(name="toy"):
    rng = np.random.default_rng(0)
    return Sequential([Dense(4, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng)],
                      name=name)


def _run(net, passes=1):
    x = np.ones((3, 4), dtype=np.float32)
    for _ in range(passes):
        out = net.forward(x, training=True)
        net.backward(np.ones_like(out))
    return out


def _input_gradient(net):
    x = np.linspace(-1.0, 1.0, 12, dtype=np.float32).reshape(3, 4)
    return net.input_gradient(x, lambda y: np.ones_like(y))


class TestLayerProfiler:
    def test_collects_one_row_per_layer(self):
        net = _toy_net()
        profiler = LayerProfiler()
        net.profiler = profiler
        _run(net)
        report = profiler.report()
        assert [(r.network, r.index, r.op) for r in report.rows] == [
            ("toy", 0, "FC"), ("toy", 1, "ReLU"), ("toy", 2, "FC"),
        ]
        for row in report.rows:
            assert row.calls == 1
            assert row.forward_s >= 0.0
            assert row.backward_s >= 0.0
            assert row.activation_bytes > 0

    def test_flop_estimates_match_closed_form(self):
        net = _toy_net()
        net.profiler = LayerProfiler()
        _run(net)
        report = net.profiler.report()
        # Dense: 2 * in * out * batch; ReLU: 1 per element.
        assert report.rows[0].flops == 2 * 4 * 8 * 3
        assert report.rows[1].flops == 8 * 3
        assert report.rows[2].flops == 2 * 8 * 2 * 3
        assert report.flops == sum(r.flops for r in report.rows)

    def test_profiled_output_matches_unprofiled(self):
        """forward, backward and input_gradient give the same bytes."""
        results = []
        for profiler in (None, LayerProfiler()):
            net = _toy_net()
            net.profiler = profiler
            out = net.forward(np.ones((3, 4), dtype=np.float32),
                              training=True)
            grad = net.backward(np.arange(out.size, dtype=np.float32)
                                .reshape(out.shape))
            results.append([out, grad, _input_gradient(net)])
        for plain, timed in zip(*results):
            assert plain.tobytes() == timed.tobytes()

    def test_input_gradient_fills_both_columns(self, monkeypatch):
        """ILT's forward walk is the forward column, its gradient walk
        the backward column: one clock tick each, one call per layer."""
        ticks = itertools.count()
        monkeypatch.setattr("repro.telemetry.profile.perf_counter",
                            lambda: float(next(ticks)))
        net = _toy_net()
        net.profiler = LayerProfiler()
        _input_gradient(net)
        rows = net.profiler.report().rows
        assert [row.index for row in rows] == [0, 1, 2]
        for row in rows:
            assert (row.calls, row.forward_s, row.backward_s) == (1, 1.0, 1.0)

    def test_calls_accumulate_across_passes(self):
        net = _toy_net()
        net.profiler = LayerProfiler()
        _run(net, passes=3)
        assert all(row.calls == 3 for row in net.profiler.report().rows)

    def test_reset_clears_stats(self):
        net = _toy_net()
        net.profiler = LayerProfiler()
        _run(net)
        net.profiler.reset()
        assert net.profiler.report().rows == ()

    def test_one_profiler_observes_multiple_networks(self):
        a, b = _toy_net("gen"), _toy_net("disc")
        profiler = LayerProfiler()
        with profiled(profiler, a, b):
            _run(a)
            _run(b)
        networks = {row.network for row in profiler.report().rows}
        assert networks == {"gen", "disc"}

    def test_profiled_context_restores_previous_attachment(self):
        net = _toy_net()
        with profiled(LayerProfiler(), net):
            assert net.profiler is not None
        assert net.profiler is None

    def test_disabled_profiling_never_calls_the_clock(self, monkeypatch):
        calls = {"n": 0}

        def counting_clock():
            calls["n"] += 1
            return 0.0

        monkeypatch.setattr(
            "repro.telemetry.profile.perf_counter", counting_clock
        )
        net = _toy_net()
        _run(net)  # forward and backward
        _input_gradient(net)
        assert calls["n"] == 0


class TestProfileReport:
    def _report(self):
        return ProfileReport(rows=(
            LayerStats("net", 0, "FC", "-", calls=1,
                       forward_s=0.1, backward_s=0.1, flops=100),
            LayerStats("net", 1, "ReLU", "-", calls=1,
                       forward_s=0.5, backward_s=0.2, flops=10),
            LayerStats("net", 2, "FC", "-", calls=1,
                       forward_s=0.1, backward_s=0.1, flops=100),
        ))

    def test_top_layers_ranked_by_total_with_deterministic_ties(self):
        top = self._report().top_layers(3)
        assert [(r.network, r.index) for r in top] == [
            ("net", 1), ("net", 0), ("net", 2),
        ]

    def test_totals(self):
        report = self._report()
        assert report.forward_s == pytest.approx(0.7)
        assert report.backward_s == pytest.approx(0.4)
        assert report.flops == 210

    def test_save_load_round_trip(self, tmp_path):
        report = self._report()
        path = report.save(tmp_path / "profile.json")
        loaded = ProfileReport.load(path)
        assert loaded.to_dict() == report.to_dict()

    def test_load_fails_closed_on_garbage(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text("not json")
        with pytest.raises(TelemetryError):
            ProfileReport.load(path)
        path.write_text('{"layers": [{"nonsense": true}]}')
        with pytest.raises(TelemetryError):
            ProfileReport.load(path)
