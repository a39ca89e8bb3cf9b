"""Session-wide fixtures shared across test modules."""

from typing import List, NamedTuple

import pytest

from repro.staticcheck import Report, analyze_paths
from repro.staticcheck.context import ModuleContext


class FullTreeRun(NamedTuple):
    """One full-tree analysis and the module paths it parsed."""

    report: Report
    parsed: List[str]


@pytest.fixture(scope="session")
def full_tree_run():
    """``analyze_paths()`` over ``src/repro`` with the committed waivers.

    Every rule runs, exactly as in ``python -m repro.staticcheck
    src/repro`` and the lint stage of ``python -m repro.verify``.  The
    run happens once per session and records each
    ``ModuleContext.from_source`` call so tests can check the
    parse-once contract without a second full-tree run.
    """
    parsed: List[str] = []
    original = ModuleContext.from_source.__func__

    def counting(cls, source, path):
        parsed.append(path)
        return original(cls, source, path)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ModuleContext, "from_source", classmethod(counting))
        report = analyze_paths()
    return FullTreeRun(report, parsed)
