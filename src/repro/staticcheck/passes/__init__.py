"""The built-in analysis passes and rule selection over them.

:data:`PASSES` is the whole pass list, one instance each, in reporting
order.  Adding a pass is: write the module, add its instance here.
Pass names and rule ids must be unique across the tuple;
``tests/test_staticcheck_framework.py`` checks that.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.staticcheck.model import Pass, Rule
from repro.staticcheck.passes.determinism import DeterminismPass
from repro.staticcheck.passes.dimensional import DimensionalPass
from repro.staticcheck.passes.goldenflow import GoldenFlowPass

#: Every pass a run can select, in reporting order.
PASSES: Tuple[Pass, ...] = (DeterminismPass(), DimensionalPass(),
                            GoldenFlowPass())


def all_rules() -> Dict[str, Rule]:
    """Every rule by id, in pass order."""
    return {rule.id: rule for pass_obj in PASSES for rule in pass_obj.rules}


def expand_selection(selected: Iterable[str]) -> Tuple[str, ...]:
    """Resolve a mixed rule-id / pass-name selection to rule ids.

    ``--rule determinism`` selects every rule the determinism pass
    owns; ``--rule heap-tiebreak`` selects exactly that rule.  A name
    that is neither raises :class:`~repro.errors.ConfigError` listing
    both namespaces.
    """
    known = all_rules()
    by_name = {pass_obj.name: pass_obj for pass_obj in PASSES}
    expanded: List[str] = []
    for item in selected:
        if item in known:
            expanded.append(item)
        elif item in by_name:
            expanded.extend(rule.id for rule in by_name[item].rules)
        else:
            raise ConfigError(
                f"unknown rule or pass {item!r}; valid rules: "
                f"{', '.join(known)}; valid passes: {', '.join(by_name)}")
    return tuple(dict.fromkeys(expanded))


def passes_for(selected: Optional[Iterable[str]]) -> List[Pass]:
    """The passes needed to evaluate ``selected`` (None = all).

    ``selected`` may mix rule ids and pass names; see
    :func:`expand_selection`.
    """
    if selected is None:
        return list(PASSES)
    wanted = set(expand_selection(selected))
    return [pass_obj for pass_obj in PASSES
            if any(rule.id in wanted for rule in pass_obj.rules)]


__all__ = ["PASSES", "all_rules", "expand_selection", "passes_for"]
