"""Performance monitoring counters (PMCs).

The paper's characterisation reads two counters around loop iterations
(Section 5.6):

* ``CPU_CLK_UNHALTED`` — unhalted core clock cycles.
* ``IDQ_UOPS_NOT_DELIVERED`` — uop slots the IDQ failed to fill while the
  back-end was *not* stalled.

The derived metric is normalised by the maximum deliverable slots::

    UOPS_NOT_DELIVERED = IDQ_UOPS_NOT_DELIVERED / (4 * CPU_CLK_UNHALTED)

which is ~0.75 during throttled iterations and ~0 otherwise (Figure 11).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import MeasurementError


@enum.unique
class PMC(enum.Enum):
    """Counter identifiers, named after the Intel events they model."""

    CPU_CLK_UNHALTED = "CPU_CLK_UNHALTED"
    IDQ_UOPS_NOT_DELIVERED = "IDQ_UOPS_NOT_DELIVERED"
    UOPS_DELIVERED = "UOPS_DELIVERED"
    INSTRUCTIONS_RETIRED = "INSTRUCTIONS_RETIRED"
    THROTTLE_CYCLES = "THROTTLE_CYCLES"


@dataclass
class CounterBank:
    """A bank of monotonically increasing PMCs with snapshot reads.

    Mirrors the read-at-start / read-at-end usage pattern of the paper's
    micro-benchmarks: take a snapshot before the measured region, another
    after, and difference them.
    """

    _values: Dict[PMC, int] = field(default_factory=lambda: {pmc: 0 for pmc in PMC})

    def add(self, pmc: PMC, amount: int) -> None:
        """Increment ``pmc`` by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise MeasurementError(f"counter increments must be >= 0, got {amount}")
        self._values[pmc] += amount

    def read(self, pmc: PMC) -> int:
        """Current value of ``pmc``."""
        return self._values[pmc]

    def snapshot(self) -> Dict[PMC, int]:
        """Copy of every counter, for start-of-region reads."""
        return dict(self._values)

    def delta(self, since: Dict[PMC, int]) -> Dict[PMC, int]:
        """Per-counter difference against an earlier :meth:`snapshot`."""
        deltas = {}
        for pmc, value in self._values.items():
            before = since.get(pmc, 0)
            if value < before:
                raise MeasurementError(
                    f"{pmc.value} went backwards: {before} -> {value}"
                )
            deltas[pmc] = value - before
        return deltas

    def reset(self) -> None:
        """Zero every counter."""
        for pmc in self._values:
            self._values[pmc] = 0


def normalized_undelivered(delta: Dict[PMC, int], width: int = 4) -> float:
    """Fraction of deliverable uop slots the IDQ left unfilled.

    ``delta`` is a counter delta over the measured region.  Returns
    ``IDQ_UOPS_NOT_DELIVERED / (width * CPU_CLK_UNHALTED)``.
    """
    cycles = delta.get(PMC.CPU_CLK_UNHALTED, 0)
    if cycles <= 0:
        raise MeasurementError("region has no unhalted cycles")
    return delta.get(PMC.IDQ_UOPS_NOT_DELIVERED, 0) / (width * cycles)
