"""Static-analysis throughput: the full-tree run must stay interactive.

Not a paper artifact — a regression guard on the staticcheck driver.
The CI gate and the pre-commit habit both depend on ``python -m
repro.staticcheck src/repro`` finishing in interactive time; a pass
that accidentally goes quadratic in module count (say, rebuilding the
project signature table per module) would show up here long before it
makes CI miserable.
"""

import time

from repro.staticcheck import analyze_paths
from repro.staticcheck.runner import default_root


def full_tree_run():
    """One complete analysis of the installed repro package."""
    return analyze_paths(paths=[default_root()])


def test_bench_staticcheck(benchmark):
    start = time.perf_counter()
    report = benchmark.pedantic(full_tree_run, rounds=3, iterations=1)
    elapsed_s = time.perf_counter() - start
    benchmark.extra_info["files_analyzed"] = report.files_analyzed
    benchmark.extra_info["live_findings"] = len(report.findings)
    benchmark.extra_info["waived"] = len(report.waived)
    assert report.files_analyzed > 50  # really swept the whole package
    # The committed tree analyses clean under the committed waivers.
    assert report.ok, [f.render() for f in report.findings]
    # Hard interactivity budget: a full-tree run (all three timed
    # rounds included) stays well under ten seconds.
    assert elapsed_s < 10.0, f"staticcheck full tree took {elapsed_s:.1f}s"
