"""The verify lint stage's rules on fixture snippets, waiver semantics,
repo cleanliness."""

import textwrap

import pytest

from repro.errors import ConfigError
from repro.staticcheck import (
    PASSES,
    Waiver,
    analyze_source,
    parse_waivers,
    render,
)

#: The source-level rules the fixtures below exercise.  The lint stage
#: itself runs every rule.
FIXTURE_RULES = ("unseeded-rng", "global-rng", "wall-clock")


def lint(source, path="repro/core/example.py"):
    """Run the fixture rules on a dedented snippet at a virtual path."""
    return analyze_source(textwrap.dedent(source), path, rules=FIXTURE_RULES)


def rules_of(findings):
    """The set of rule names among findings."""
    return {f.rule for f in findings}


class TestUnseededRng:
    def test_flags_unseeded_default_rng(self):
        findings = lint("""
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert rules_of(findings) == {"unseeded-rng"}

    def test_accepts_seeded_default_rng(self):
        findings = lint("""
            import numpy as np
            rng = np.random.default_rng(1234)
            rng2 = np.random.default_rng(seed=(1, 2, 3))
        """)
        assert findings == []

    def test_flags_unseeded_random_random(self):
        findings = lint("""
            import random
            r = random.Random()
        """)
        assert rules_of(findings) == {"unseeded-rng"}


class TestGlobalRng:
    def test_flags_legacy_global_calls(self):
        findings = lint("""
            import numpy as np
            x = np.random.uniform(0, 1)
            np.random.seed(3)
        """)
        assert [f.rule for f in findings] == ["global-rng", "global-rng"]

    def test_accepts_generator_constructors(self):
        findings = lint("""
            import numpy as np
            rng = np.random.default_rng(7)
            ss = np.random.SeedSequence(9)
        """)
        assert findings == []


class TestWallClock:
    def test_flags_time_calls_in_core(self):
        source = """
            import time
            def now():
                return time.time()
        """
        findings = lint(source, path="repro/pdn/example.py")
        assert rules_of(findings) == {"wall-clock"}

    def test_flags_from_import_usage(self):
        source = """
            from time import perf_counter
            def now():
                return perf_counter()
        """
        findings = lint(source, path="repro/soc/example.py")
        assert rules_of(findings) == {"wall-clock"}

    def test_flags_datetime_now(self):
        source = """
            import datetime
            stamp = datetime.datetime.now()
        """
        findings = lint(source, path="repro/pmu/example.py")
        assert rules_of(findings) == {"wall-clock"}

    def test_allowed_outside_core(self):
        source = """
            import time
            def now():
                return time.time()
        """
        assert lint(source, path="repro/runner/example.py") == []
        assert lint(source, path="repro/obs/example.py") == []


#: One wall-clock finding when linted under a simulator-core path.
WALL_CLOCK_SOURCE = """
    import time
    def now():
        return time.time()
"""


class TestWaivers:
    def test_parse_and_match(self):
        waivers = parse_waivers(
            "# comment\n"
            "wall-clock repro/pdn/regulator.py t0 = time.time()\n"
            "wall-clock repro/pdn/*.py\n")
        assert len(waivers) == 2
        assert waivers[0].substring == "t0 = time.time()"
        assert waivers[1].substring is None

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigError, match="unknown rule"):
            parse_waivers("not-a-rule repro/x.py\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_waivers("wall-clock\n")

    def test_waiver_requires_matching_substring(self):
        findings = lint(WALL_CLOCK_SOURCE, path="repro/pdn/example.py")
        hit = Waiver("wall-clock", "repro/pdn/example.py", "time.time()")
        miss = Waiver("wall-clock", "repro/pdn/example.py", "unrelated text")
        assert hit.matches(findings[0])
        assert not miss.matches(findings[0])

    def test_waiver_requires_matching_rule_and_path(self):
        findings = lint(WALL_CLOCK_SOURCE, path="repro/pdn/example.py")
        assert not Waiver("global-rng", "repro/pdn/example.py").matches(
            findings[0])
        assert not Waiver("wall-clock", "repro/pdn/other.py").matches(
            findings[0])


class TestRepoLint:
    def test_repo_is_clean_under_committed_waivers(self, full_tree_run):
        """src/repro has no unwaived violations and no stale waivers."""
        report = full_tree_run.report
        assert report.ok, render(report, "text")
        assert report.unused_waivers == [], render(report, "text")

    def test_verify_lint_stage_runs_every_pass(self, monkeypatch, capsys,
                                               full_tree_run):
        """The verify gate's lint stage is the full rule set, not a subset."""
        import repro.verify.__main__ as verify_main

        calls = []

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return full_tree_run.report

        monkeypatch.setattr(verify_main, "analyze_paths", recording)
        assert verify_main.main(["--skip-differential", "--skip-goldens",
                                 "--skip-audit"]) == 0
        assert "lint clean" in capsys.readouterr().out
        ((args, kwargs),) = calls
        assert args == () and kwargs.get("rules") is None
        assert kwargs.get("paths") is None
        # The shared report is that same no-subset call: every pass ran.
        assert ([t.pass_name for t in full_tree_run.report.timings]
                == [p.name for p in PASSES])

    def test_syntax_error_raises_config_error(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            analyze_source("def broken(:\n", "repro/x.py",
                           rules=FIXTURE_RULES)
