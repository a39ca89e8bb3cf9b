"""Benchmark regression gate: comparison, tolerance, CLI, summary."""

import json

import pytest

from repro.errors import ConfigError
from repro.verify.bench_gate import (
    compare,
    collect_medians,
    load_baseline,
    load_benchmark_medians,
    main,
    write_baseline,
)


def bench_json(tmp_path, name, medians):
    """Write a minimal pytest-benchmark JSON artifact."""
    path = tmp_path / name
    path.write_text(json.dumps({
        "benchmarks": [{"name": bench, "stats": {"median": median}}
                       for bench, median in medians.items()],
    }))
    return path


class TestComparison:
    def test_within_tolerance_passes(self):
        report = compare({"a": 1.0}, {"a": 1.2}, tolerance=0.25)
        assert report.ok
        assert report.deltas[0].status == "ok"

    def test_regression_beyond_tolerance_fails(self):
        report = compare({"a": 1.0}, {"a": 1.3}, tolerance=0.25)
        assert not report.ok
        assert report.regressions[0].name == "a"

    def test_speedup_never_fails(self):
        report = compare({"a": 1.0}, {"a": 0.1}, tolerance=0.25)
        assert report.ok

    def test_new_benchmark_is_reported_not_failed(self):
        report = compare({}, {"fresh": 0.5})
        assert report.ok
        assert report.deltas[0].status == "new"
        assert report.deltas[0].ratio is None

    def test_baselined_bench_without_result_fails_as_missing(self):
        report = compare({"a": 1.0, "gone": 0.5}, {"a": 1.0})
        assert not report.ok
        assert [d.name for d in report.missing] == ["gone"]
        assert report.regressions == []
        gone = report.missing[0]
        assert gone.status == "missing" and gone.ratio is None
        assert "gone" in report.render()
        assert "**MISSING**" in report.markdown()

    def test_markdown_table_contents(self):
        report = compare({"a": 1.0, "b": 1.0}, {"a": 2.0, "b": 1.0})
        table = report.markdown()
        assert "REGRESSION" in table
        assert "| `a` |" in table and "| `b` |" in table
        assert "+100.0%" in table


class TestArtifacts:
    def test_load_and_collect(self, tmp_path):
        one = bench_json(tmp_path, "one.json", {"a": 1.0})
        two = bench_json(tmp_path, "two.json", {"b": 2.0})
        assert load_benchmark_medians(one) == {"a": 1.0}
        assert collect_medians([one, two]) == {"a": 1.0, "b": 2.0}

    def test_duplicate_names_rejected(self, tmp_path):
        one = bench_json(tmp_path, "one.json", {"a": 1.0})
        two = bench_json(tmp_path, "two.json", {"a": 2.0})
        with pytest.raises(ConfigError, match="more than one"):
            collect_medians([one, two])

    def test_not_a_benchmark_json_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        with pytest.raises(ConfigError, match="pytest-benchmark"):
            load_benchmark_medians(path)

    def test_baseline_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, {"a": 1.5, "b": 0.25})
        assert load_baseline(path) == {"a": 1.5, "b": 0.25}

    def test_baseline_schema_mismatch(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema": 99, "medians": {}}))
        with pytest.raises(ConfigError, match="schema"):
            load_baseline(path)


class TestCli:
    def test_update_then_gate_passes(self, tmp_path, capsys):
        artifact = bench_json(tmp_path, "bench.json", {"a": 1.0})
        baseline = tmp_path / "baseline.json"
        assert main([str(artifact), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        assert main([str(artifact), "--baseline", str(baseline)]) == 0
        assert "passed" in capsys.readouterr().out

    def test_regression_exits_nonzero_and_writes_summary(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, {"a": 1.0})
        artifact = bench_json(tmp_path, "bench.json", {"a": 2.0})
        summary = tmp_path / "summary.md"
        code = main([str(artifact), "--baseline", str(baseline),
                     "--summary", str(summary)])
        assert code == 1
        assert "REGRESSION" in summary.read_text()

    def test_custom_tolerance(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, {"a": 1.0})
        artifact = bench_json(tmp_path, "bench.json", {"a": 1.4})
        assert main([str(artifact), "--baseline", str(baseline)]) == 1
        assert main([str(artifact), "--baseline", str(baseline),
                     "--tolerance", "0.5"]) == 0

    def test_missing_result_exits_nonzero(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, {"a": 1.0, "gone": 1.0})
        artifact = bench_json(tmp_path, "bench.json", {"a": 1.0})
        assert main([str(artifact), "--baseline", str(baseline)]) == 1
        assert "gone (missing)" in capsys.readouterr().err

    def test_missing_baseline_is_actionable(self, tmp_path, capsys):
        artifact = bench_json(tmp_path, "bench.json", {"a": 1.0})
        code = main([str(artifact), "--baseline",
                     str(tmp_path / "absent.json")])
        assert code == 2
        assert "--update-baseline" in capsys.readouterr().err

    def test_committed_baseline_loads(self):
        from repro.verify.bench_gate import default_baseline_path

        medians = load_baseline(default_baseline_path())
        assert medians, "benchmarks/BENCH_baseline.json must be committed"
