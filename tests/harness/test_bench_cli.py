"""Tests for the uniform benchmark runner (``python -m repro bench``)."""

import json

import pytest

from repro import bench
from repro.perf.hotpath import ACCOUNTING_FIELDS, run_hotpath
from repro.perf.reference import ReferenceProxyCache


class TestRegistry:
    def test_hotpath_registered(self):
        assert "hotpath" in bench.REGISTRY
        spec = bench.REGISTRY["hotpath"]
        assert spec.default_json == "BENCH_HOTPATH.json"
        assert set(spec.smoke_settings) <= {"requests", "pairs", "warmup"}

    def test_every_spec_is_complete(self):
        for spec in bench.REGISTRY.values():
            assert spec.name and spec.description
            assert callable(spec.runner)
            assert spec.default_json.startswith("BENCH_")


class TestResultsFiles:
    def test_record_and_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "BENCH_X.json")
        result = {"benchmark": "x", "speedup": {"lower_quartile": 3.5}}
        bench.record_result(path, result, smoke=True)
        payload = bench.load_results(path)
        assert payload["smoke"]["speedup"]["lower_quartile"] == 3.5
        assert "recorded" in payload

    def test_record_preserves_other_entry(self, tmp_path):
        path = str(tmp_path / "BENCH_X.json")
        bench.record_result(path, {"speedup": {"lower_quartile": 4.0}}, smoke=False)
        bench.record_result(path, {"speedup": {"lower_quartile": 3.9}}, smoke=True)
        payload = bench.load_results(path)
        assert payload["full"]["speedup"]["lower_quartile"] == 4.0
        assert payload["smoke"]["speedup"]["lower_quartile"] == 3.9

    def test_load_missing_returns_none(self, tmp_path):
        assert bench.load_results(str(tmp_path / "absent.json")) is None


class TestRegressionGate:
    def _result(self, speedup):
        return {"speedup": {"lower_quartile": speedup}}

    def test_missing_baseline_passes(self):
        verdict = bench.gate_against_baseline(self._result(4.0), None)
        assert "no committed baseline" in verdict

    def test_within_bound_passes(self):
        baseline = {"smoke": self._result(4.0)}
        verdict = bench.gate_against_baseline(self._result(3.7), baseline)
        assert verdict.endswith("OK")

    def test_regression_beyond_bound_fails(self):
        baseline = {"smoke": self._result(4.0)}
        with pytest.raises(AssertionError, match="perf regression"):
            bench.gate_against_baseline(self._result(3.5), baseline)

    def test_custom_bound(self):
        baseline = {"smoke": self._result(4.0)}
        with pytest.raises(AssertionError):
            bench.gate_against_baseline(
                self._result(3.9), baseline, bound=0.01
            )


class TestCommittedBaseline:
    def test_bench_hotpath_json_is_valid(self):
        """The committed baseline parses and records a >=3x speedup."""
        with open("BENCH_HOTPATH.json", "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        for entry in ("full", "smoke"):
            speedup = payload[entry]["speedup"]["lower_quartile"]
            assert speedup >= 3.0
            assert payload[entry]["identical_accounting"] is True


class TestCliPlumbing:
    def test_list_exits_cleanly(self, capsys):
        assert bench.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "hotpath" in out and "scan" in out

    def test_unknown_benchmark_rejected(self, capsys):
        assert bench.main(["nonsense"]) == 2

    def test_run_smoke_with_stub_runner(self, tmp_path, capsys, monkeypatch):
        """End-to-end CLI path with a stubbed-out runner: run, gate, record."""
        path = str(tmp_path / "BENCH_HOTPATH.json")
        calls = {}

        def stub_runner(**settings):
            calls.update(settings)
            return {"benchmark": "hotpath", "speedup": {"lower_quartile": 5.0}}

        monkeypatch.setattr(
            bench.REGISTRY["hotpath"], "runner", stub_runner
        )
        code = bench.main(["hotpath", "--smoke", "--json", path, "--record"])
        assert code == 0
        assert calls == bench.REGISTRY["hotpath"].smoke_settings
        assert bench.load_results(path)["smoke"]["speedup"]["lower_quartile"] == 5.0
        # A second, slower run against the recorded baseline fails the gate.
        monkeypatch.setattr(
            bench.REGISTRY["hotpath"], "runner",
            lambda **settings: {"speedup": {"lower_quartile": 4.0}},
        )
        assert bench.main(["hotpath", "--smoke", "--json", path]) == 1


class TestHotpathRun:
    def test_tiny_run_checks_accounting_against_oracle_dpc(self, monkeypatch):
        """The reference run is served by ReferenceProxyCache, byte-equal."""
        served = []
        process_response = ReferenceProxyCache.process_response

        def counting(self, wire):
            served.append(wire)
            return process_response(self, wire)

        monkeypatch.setattr(ReferenceProxyCache, "process_response", counting)
        result = run_hotpath(requests=10, warmup=2, pairs=1)
        assert result["identical_accounting"] is True
        assert set(result["accounting"]) == set(ACCOUNTING_FIELDS)
        assert result["accounting"]["dpc_scanned_bytes"] > 0
        # One reference run of warmup + measured requests; the warm-up and
        # fast runs never touch the oracle.
        assert len(served) == 12
