"""Cycle-accurate model of the IDQ front-end to back-end interface.

The paper establishes (Section 5.6, Figure 11) that during a throttling
period the core blocks uop delivery from the Instruction Decode Queue to
the back-end during **three of every four cycles**, for the *entire core*
— both SMT threads — while the back-end is not stalled.  This module
reproduces that behaviour at cycle granularity so the PMC signatures
(normalised ``IDQ_UOPS_NOT_DELIVERED`` ~0.75 throttled, ~0 otherwise) are
measurable rather than asserted.

The model is delivery-bound: tight micro-benchmark loops (unrolled
300-instruction blocks) keep the IDQ full, and the back-end accepts
whatever the IDQ delivers.  The only delivery bubbles outside throttling
are the single-cycle steers at loop-block boundaries, which is why the
unthrottled normalised undelivered fraction is near — but not exactly —
zero, matching the measured distribution.

The *improved throttling* mitigation of Section 7 is modelled by gating
only the offending thread's uops instead of the whole interface.

:meth:`CorePipeline.run` steps every cycle in one loop over local
integers (nothing it reads can change during a call) and commits the PMC
totals to the counter banks when the loop ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.errors import ConfigError
from repro.isa.instructions import IClass
from repro.microarch.counters import CounterBank, PMC


@dataclass(frozen=True)
class PipelineConfig:
    """Static parameters of the front-end model.

    Parameters
    ----------
    delivery_width:
        Maximum uops the IDQ hands to the back-end per cycle (4 on the
        parts the paper measures).
    throttle_window:
        Length of the throttle gating window in cycles.
    throttle_open_cycles:
        Cycles per window during which delivery is allowed while
        throttled (1 of 4 -> the measured 75 % blocked fraction).
    smt_threads:
        Hardware threads sharing this front-end (1 or 2).
    block_instructions:
        Instructions per unrolled loop block; a one-cycle steer bubble is
        charged at each block boundary.
    """

    delivery_width: int = 4
    throttle_window: int = 4
    throttle_open_cycles: int = 1
    smt_threads: int = 2
    block_instructions: int = 300

    def __post_init__(self) -> None:
        if self.delivery_width < 1:
            raise ConfigError(f"delivery width must be >= 1, got {self.delivery_width}")
        if not 1 <= self.throttle_open_cycles <= self.throttle_window:
            raise ConfigError(
                "throttle_open_cycles must be within the window: "
                f"{self.throttle_open_cycles} of {self.throttle_window}"
            )
        if self.smt_threads not in (1, 2):
            raise ConfigError(f"smt_threads must be 1 or 2, got {self.smt_threads}")
        if self.block_instructions < 2:
            raise ConfigError(
                f"block_instructions must be >= 2, got {self.block_instructions}"
            )

    @property
    def blocked_fraction(self) -> float:
        """Fraction of throttled cycles with delivery blocked."""
        return 1.0 - self.throttle_open_cycles / self.throttle_window


@dataclass
class ThreadState:
    """Per-hardware-thread front-end state."""

    tid: int
    iclass: Optional[IClass] = None
    counters: CounterBank = field(default_factory=CounterBank)
    _block_progress: int = 0

    @property
    def active(self) -> bool:
        """Whether the thread has a loop to run."""
        return self.iclass is not None


class CorePipeline:
    """One core's IDQ-to-back-end interface.

    Each :meth:`run` steps its cycles in one loop and commits the
    counters at the end, so PMCs are read between ``run()`` calls.

    Usage::

        pipe = CorePipeline(PipelineConfig())
        pipe.set_thread(0, IClass.HEAVY_256)
        pipe.set_throttle(True)
        pipe.run(10_000)
        frac = normalized_undelivered(pipe.thread(0).counters.snapshot())
    """

    def __init__(self, config: PipelineConfig = PipelineConfig()) -> None:
        self.config = config
        self._threads: Dict[int, ThreadState] = {
            tid: ThreadState(tid) for tid in range(config.smt_threads)
        }
        self.core_counters = CounterBank()
        self._cycle = 0
        self._throttled = False
        self._throttled_tids: Optional[Set[int]] = None
        self._rr_next = 0

    # -- configuration -----------------------------------------------------

    def thread(self, tid: int) -> ThreadState:
        """The state of hardware thread ``tid``."""
        if tid not in self._threads:
            raise ConfigError(f"no such hardware thread: {tid}")
        return self._threads[tid]

    def set_thread(self, tid: int, iclass: Optional[IClass]) -> None:
        """Point thread ``tid`` at a tight loop of ``iclass`` (or idle)."""
        self.thread(tid).iclass = iclass

    def set_throttle(self, active: bool,
                     only_threads: Optional[Set[int]] = None) -> None:
        """Engage or release the delivery throttle.

        ``only_threads`` selects the *improved throttling* mitigation:
        instead of blocking the shared interface for the whole core, only
        the listed threads' uops are gated and the other thread keeps its
        full delivery share.
        """
        if only_threads is not None:
            for tid in only_threads:
                self.thread(tid)  # validate
        self._throttled = active
        self._throttled_tids = set(only_threads) if only_threads is not None else None

    # -- simulation --------------------------------------------------------

    def run(self, cycles: int) -> None:
        """Advance the front-end by ``cycles`` core clock cycles."""
        if cycles < 0:
            raise ConfigError(f"cycles must be >= 0, got {cycles}")
        start = self._cycle
        self._cycle = start + cycles
        active = [t for t in self._threads.values() if t.active]
        if not active or cycles == 0:
            return

        config = self.config
        width = config.delivery_width
        block = config.block_instructions
        window = config.throttle_window
        open_cycles = config.throttle_open_cycles
        tids = self._throttled_tids
        # gated[i]: whether the throttle gate applies to active[i] at all;
        # it then blocks the cycles past the window's open slots.
        gated = [self._throttled and (tids is None or t.tid in tids)
                 for t in active]
        any_gated = any(gated)
        # With two active threads the list index is the tid, so the
        # round-robin cursor indexes ``active`` directly.
        shared = len(active) > 1
        rr = self._rr_next
        progress = [t._block_progress for t in active]
        delivered = [0] * len(active)
        undelivered = [0] * len(active)

        for cycle in range(start, start + cycles):
            blocked = any_gated and cycle % window >= open_cycles
            owner = 0
            if shared:
                # Round-robin from the cursor, skipping a gated owner in
                # favour of a runnable sibling when there is one.
                owner = rr
                if blocked and gated[owner] and not gated[1 - owner]:
                    owner = 1 - owner
                rr = 1 - owner
            if blocked and gated[owner]:
                # Delivery blocked by the throttle gate while the back-end
                # is not stalled: every slot counts as not delivered.
                undelivered[owner] += width
            elif progress[owner] >= block:
                # Loop-edge steer bubble: one empty delivery cycle per block.
                progress[owner] = 0
                undelivered[owner] += width
            else:
                deliverable = block - progress[owner]
                if deliverable >= width:
                    deliverable = width
                else:
                    undelivered[owner] += width - deliverable
                progress[owner] += deliverable
                delivered[owner] += deliverable

        self._rr_next = rr
        core = self.core_counters
        core.add(PMC.CPU_CLK_UNHALTED, cycles)
        if self._throttled:
            core.add(PMC.THROTTLE_CYCLES, cycles)
        for i, thread in enumerate(active):
            thread._block_progress = progress[i]
            bank = thread.counters
            bank.add(PMC.CPU_CLK_UNHALTED, cycles)
            bank.add(PMC.UOPS_DELIVERED, delivered[i])
            bank.add(PMC.INSTRUCTIONS_RETIRED, delivered[i])
            bank.add(PMC.IDQ_UOPS_NOT_DELIVERED, undelivered[i])
        core.add(PMC.UOPS_DELIVERED, sum(delivered))
        core.add(PMC.INSTRUCTIONS_RETIRED, sum(delivered))
        core.add(PMC.IDQ_UOPS_NOT_DELIVERED, sum(undelivered))

    # -- derived measurements ----------------------------------------------

    def measure_ipc(self, tid: int, iclass: IClass, cycles: int,
                    throttled: bool,
                    only_threads: Optional[Set[int]] = None) -> float:
        """Measured uops-per-cycle of a fresh run (convenience for tests)."""
        self.set_thread(tid, iclass)
        self.set_throttle(throttled, only_threads)
        before = self.thread(tid).counters.snapshot()
        start_cycles = self.thread(tid).counters.read(PMC.CPU_CLK_UNHALTED)
        self.run(cycles)
        delta = self.thread(tid).counters.delta(before)
        elapsed = self.thread(tid).counters.read(PMC.CPU_CLK_UNHALTED) - start_cycles
        if elapsed == 0:
            return 0.0
        return delta[PMC.UOPS_DELIVERED] / elapsed
