"""Static analysis for the simulator's own invariants.

Generic linters cannot know that ``idle_close_us`` must be converted
before comparison with ``now_ns``, that every heap entry needs a
monotone tiebreak, or that a spec field must survive the mapping
round-trip into a golden digest.  This package encodes those project
invariants as three *passes* over per-module ASTs plus a lightweight
intra-function dataflow layer, behind one driver with waivers and
text/JSON reporters:

* :mod:`repro.staticcheck.passes.dimensional` — unit-tag dataflow
  (mixing ns with us, passing us where ns is expected, time/frequency
  division);
* :mod:`repro.staticcheck.passes.determinism` — simulated-time
  determinism (unseeded RNGs, wall-clock reads, heap tiebreaks,
  unordered-set iteration);
* :mod:`repro.staticcheck.passes.goldenflow` — mapping-layer golden
  contracts (round-trip completeness, digest-stable emission,
  SystemOptions forwarding coverage).

Run it with ``python -m repro.staticcheck [paths] [--format text|json]
[--rule ID] [--waivers FILE]``.  Each module is parsed once and every
selected pass runs over it in one serial loop.
"""

from repro.staticcheck.context import (  # noqa: F401
    FunctionSig,
    ModuleContext,
    ProjectContext,
)
from repro.staticcheck.dataflow import (  # noqa: F401
    UnitTag,
    scan_function,
    tag_of_identifier,
)
from repro.staticcheck.model import (  # noqa: F401
    Finding,
    Pass,
    PassTiming,
    Report,
    Rule,
    Severity,
    Waiver,
)
from repro.staticcheck.passes import (  # noqa: F401
    PASSES,
    all_rules,
    expand_selection,
    passes_for,
)
from repro.staticcheck.reporters import render, to_json  # noqa: F401
from repro.staticcheck.runner import (  # noqa: F401
    analyze_paths,
    analyze_source,
    default_root,
)
from repro.staticcheck.waivers import (  # noqa: F401
    default_waivers_path,
    load_waivers,
    parse_waivers,
)

__all__ = [
    "PASSES", "Finding", "FunctionSig", "ModuleContext", "Pass",
    "PassTiming", "ProjectContext", "Report", "Rule", "Severity",
    "UnitTag", "Waiver", "all_rules", "analyze_paths", "analyze_source",
    "default_root", "default_waivers_path", "expand_selection",
    "load_waivers", "parse_waivers", "passes_for", "render",
    "scan_function", "tag_of_identifier", "to_json",
]
