"""Framework mechanics: the pass tuple, waivers, reporters, CLI, and
parsing each module once per run."""

import json
import textwrap

import pytest

from repro.errors import ConfigError
from repro.staticcheck import (
    PASSES,
    Finding,
    Severity,
    Waiver,
    all_rules,
    analyze_paths,
    analyze_source,
    expand_selection,
    parse_waivers,
    passes_for,
)
from repro.staticcheck.__main__ import main
from repro.staticcheck.reporters import render_text, to_json

BAD_MODULE = textwrap.dedent("""
    \"\"\"Fixture with one finding per pass.\"\"\"
    import heapq


    def schedule(heap, time_ns: float, handle: object, idle_us: float) -> float:
        \"\"\"Mixes units and pushes an untiebroken heap entry.\"\"\"
        heapq.heappush(heap, (time_ns, handle))
        return time_ns + idle_us
""")


class TestRegistry:
    def test_builtin_passes_registered(self):
        names = [p.name for p in PASSES]
        assert names == ["determinism", "dimensional", "goldenflow"]

    def test_every_rule_has_unique_owner(self):
        ids = [rule.id for p in PASSES for rule in p.rules]
        assert len(ids) == len(set(ids))
        assert list(all_rules()) == ids
        assert "unit-mix" in ids and "golden-emit" in ids

    def test_rules_carry_severity_and_fix_hint(self):
        for rule in all_rules().values():
            assert isinstance(rule.default_severity, Severity)
            assert rule.summary

    def test_passes_for_selects_owning_pass_only(self):
        chosen = passes_for(["heap-tiebreak"])
        assert [p.name for p in chosen] == ["determinism"]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigError, match="unknown rule"):
            passes_for(["no-such-rule"])


class TestSelectionExpansion:
    def test_pass_name_expands_to_its_rules(self):
        rules = expand_selection(["determinism"])
        assert "heap-tiebreak" in rules
        assert "unseeded-rng" in rules

    def test_mixed_selection_dedupes(self):
        rules = expand_selection(["determinism", "heap-tiebreak"])
        assert rules.count("heap-tiebreak") == 1

    def test_unknown_name_lists_both_namespaces(self):
        with pytest.raises(ConfigError, match="valid passes"):
            expand_selection(["no-such-thing"])


class TestWaiverIntegration:
    def test_new_rule_ids_are_valid_in_waiver_files(self):
        waivers = parse_waivers("unit-mix repro/pdn/*.py\n"
                                "golden-emit repro/scenarios/spec.py\n")
        assert [w.rule for w in waivers] == ["unit-mix", "golden-emit"]

    def test_waiver_suppresses_finding(self, tmp_path):
        src = tmp_path / "example_mod.py"
        src.write_text(BAD_MODULE, encoding="utf-8")
        waivers = parse_waivers("heap-tiebreak example_mod.py\n")
        report = analyze_paths(paths=[src], rules=["heap-tiebreak"],
                               waivers=waivers)
        assert report.findings == []
        assert [f.rule for f in report.waived] == ["heap-tiebreak"]
        assert report.unused_waivers == []

    def test_unused_waiver_reported(self, tmp_path):
        src = tmp_path / "clean_mod.py"
        src.write_text('"""Clean."""\n', encoding="utf-8")
        waivers = parse_waivers("unit-mix clean_mod.py\n")
        report = analyze_paths(paths=[src], waivers=waivers)
        assert len(report.unused_waivers) == 1
        assert "unused waiver" in render_text(report)

    def test_committed_tree_clean_with_waivers_only(self, full_tree_run):
        """Every rule, tests/lint_waivers.txt as the only suppression,
        and every committed waiver still covers a real finding."""
        from repro.staticcheck.waivers import default_waivers_path, load_waivers

        waivers = load_waivers(default_waivers_path())
        report = full_tree_run.report
        assert [t.pass_name for t in report.timings] == [p.name for p in PASSES]
        assert report.ok, render_text(report)
        assert report.unused_waivers == [], render_text(report)
        assert len(report.waived) >= len(waivers)


class TestWaiverGrammarEdgeCases:
    """The corners of the ``rule path-glob [substring]`` grammar."""

    def test_second_rule_id_on_a_line_becomes_the_path_glob(self):
        """One line waives ONE rule; a second id is read as the glob."""
        waivers = parse_waivers("wall-clock unit-mix\n")
        assert len(waivers) == 1
        assert waivers[0].rule == "wall-clock"
        assert waivers[0].path_glob == "unit-mix"
        finding = Finding(rule="unit-mix", path="repro/core/mod.py",
                          line=1, message="m", source="s")
        assert not waivers[0].matches(finding)

    def test_substring_keeps_internal_whitespace(self):
        waivers = parse_waivers(
            "wall-clock repro/x.py if times and t == times[-1]\n")
        assert waivers[0].substring == "if times and t == times[-1]"

    def test_unknown_rule_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown rule"):
            parse_waivers("no-such-rule repro/x.py\n")

    def test_single_field_line_is_a_config_error(self):
        with pytest.raises(ConfigError, match="expected 'rule"):
            parse_waivers("wall-clock\n")

    def test_waiver_on_a_multi_finding_line_is_rule_scoped(self, tmp_path):
        """Two rules fire on one line; waiving one leaves the other."""
        src = tmp_path / "example_mod.py"
        src.write_text(textwrap.dedent('''
            """Doc."""


            def check(idle_ns: float, close_us: float) -> float:
                """Doc."""
                return idle_ns + close_us if idle_ns > close_us else 0.0
        '''), encoding="utf-8")
        waivers = parse_waivers("unit-mix example_mod.py\n")
        report = analyze_paths(paths=[src], waivers=waivers,
                               rules=["unit-mix", "unit-compare"])
        assert [f.rule for f in report.findings] == ["unit-compare"]
        assert [f.rule for f in report.waived] == ["unit-mix"]
        assert report.findings[0].line == report.waived[0].line
        assert report.unused_waivers == []

    def test_never_matching_waiver_is_reported_unused(self, tmp_path):
        src = tmp_path / "bad_mod.py"
        src.write_text(BAD_MODULE, encoding="utf-8")
        # Right rule, right file, but a substring that appears nowhere.
        waivers = parse_waivers(
            "unit-mix bad_mod.py no_such_source_fragment\n")
        report = analyze_paths(paths=[src], rules=["unit-mix"],
                               waivers=waivers)
        assert [f.rule for f in report.findings] == ["unit-mix"]
        assert report.waived == []
        assert len(report.unused_waivers) == 1

    def test_committed_waiver_file_round_trips(self):
        """parse → render → reparse of tests/lint_waivers.txt is stable."""
        from repro.staticcheck.waivers import default_waivers_path

        path = default_waivers_path()
        assert path is not None, "tests/lint_waivers.txt missing"
        first = parse_waivers(path.read_text(encoding="utf-8"))
        rendered = "\n".join(w.render() for w in first) + "\n"
        assert parse_waivers(rendered) == first

    def test_path_suffix_matches_only_at_a_directory_boundary(self):
        """``sampler.py`` waives ``.../sampler.py``, never ``resampler.py``."""
        waiver = Waiver("wall-clock", "sampler.py")

        def at(path):
            return Finding(rule="wall-clock", path=path, line=1,
                           message="m", source="s")

        assert waiver.matches(at("sampler.py"))
        assert waiver.matches(at("repro/measure/sampler.py"))
        assert Waiver("wall-clock", "measure/sampler.py").matches(
            at("repro/measure/sampler.py"))
        assert not waiver.matches(at("repro/measure/resampler.py"))


class TestReporters:
    def test_text_summary_counts_by_rule(self):
        findings = analyze_source(BAD_MODULE, "repro/core/example_mod.py")
        from repro.staticcheck.model import Report

        text = render_text(Report(findings=findings, files_analyzed=1))
        assert "unit-mix: 1" in text and "heap-tiebreak: 1" in text

    def test_json_payload_is_complete(self):
        from repro.staticcheck.model import Report

        findings = analyze_source(BAD_MODULE, "repro/core/example_mod.py")
        payload = to_json(Report(findings=findings, files_analyzed=1))
        assert payload["tool"] == "repro.staticcheck"
        assert payload["ok"] is False
        first = payload["findings"][0]
        assert {"rule", "path", "line", "message", "source", "severity",
                "fix_hint"} <= set(first)
        json.dumps(payload)  # must be serialisable as-is


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        src = tmp_path / "clean_mod.py"
        src.write_text('"""Clean."""\n', encoding="utf-8")
        assert main([str(src), "--no-waivers"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        src = tmp_path / "bad_mod.py"
        src.write_text(BAD_MODULE, encoding="utf-8")
        assert main([str(src), "--no-waivers"]) == 1
        out = capsys.readouterr().out
        assert "[unit-mix]" in out and "[heap-tiebreak]" in out

    def test_warning_finding_alone_exits_one(self, tmp_path, capsys):
        """Severity *warning* does not exempt a finding from the gate."""
        src = tmp_path / "unordered_mod.py"
        src.write_text('"""Module doc."""\n\n\ndef total(xs):\n'
                       '    """Doc."""\n'
                       '    return [x for x in set(xs)]\n', encoding="utf-8")
        assert main([str(src), "--no-waivers", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"]
        assert {f["severity"] for f in payload["findings"]} == {"warning"}
        assert payload["ok"] is False

    def test_rule_filter(self, tmp_path, capsys):
        src = tmp_path / "bad_mod.py"
        src.write_text(BAD_MODULE, encoding="utf-8")
        assert main([str(src), "--no-waivers", "--rule", "unit-mix"]) == 1
        out = capsys.readouterr().out
        assert "[unit-mix]" in out and "heap-tiebreak" not in out

    def test_json_report_carries_timings(self, tmp_path, capsys):
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "bad_mod.py").write_text(BAD_MODULE, encoding="utf-8")
        (root / "clean_mod.py").write_text('"""Clean."""\n',
                                           encoding="utf-8")
        assert main([str(root), "--no-waivers", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        timings = {t["pass"]: t for t in payload["timings"]}
        assert set(timings) == {p.name for p in PASSES}
        assert all(t["modules"] == 2 for t in timings.values())
        assert timings["dimensional"]["findings"] >= 1
        assert timings["determinism"]["findings"] >= 1

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.strip().splitlines()]
        assert listed == [rule.id for p in PASSES for rule in p.rules]
        assert len(listed) == 13

    def test_output_file(self, tmp_path):
        src = tmp_path / "clean_mod.py"
        src.write_text('"""Clean."""\n', encoding="utf-8")
        out_file = tmp_path / "report.txt"
        assert main([str(src), "--no-waivers",
                     "--output", str(out_file)]) == 0
        assert "0 finding(s)" in out_file.read_text(encoding="utf-8")


class TestParseOnce:
    def test_full_tree_run_parses_each_module_once(self, full_tree_run):
        """Every pass shares one parse of each module."""
        calls = full_tree_run.parsed
        report = full_tree_run.report
        assert report.files_analyzed > 50
        assert len(calls) == report.files_analyzed
        assert len(set(calls)) == len(calls)
