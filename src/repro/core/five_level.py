"""Five-level same-thread channel: using everything Figure 10 measures.

The paper's protocol sends two bits over four levels; its own
characterisation shows at least five distinguishable levels.  The fifth
symbol costs nothing: a slot with *no sender PHI* leaves the rail at
baseline, so the same-thread probe pays its full ramp — the longest,
cleanly separated reading.  With base-5 payload coding
(:mod:`repro.core.base5`) each transaction carries 2.32 bits, a ~16 %
rate gain at identical slot timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence

from repro.core.base5 import bytes_to_digits, digits_for_bytes, digits_to_bytes
from repro.core.calibration import Calibrator
from repro.core.channel import ChannelConfig, run_slots
from repro.core.levels import narrow_symbol_classes
from repro.core.sync import SlotSchedule
from repro.errors import ProtocolError
from repro.isa.instructions import IClass
from repro.isa.workload import Loop
from repro.soc.system import System
from repro.units import bits_per_second, us_to_ns

#: Symbol 0 is 'no PHI'; symbols 1..4 reuse the paper's L1..L4 ladder.
QUIET_SYMBOL = 0


@dataclass
class FiveLevelReport:
    """Outcome of one five-level transfer."""

    sent: bytes
    received: bytes
    digits_sent: List[int]
    digits_received: List[int]
    start_ns: float
    end_ns: float

    @property
    def digit_error_rate(self) -> float:
        """Fraction of base-5 digits decoded wrongly."""
        wrong = sum(1 for a, b in zip(self.digits_sent, self.digits_received)
                    if a != b)
        return wrong / len(self.digits_sent) if self.digits_sent else 0.0

    @property
    def throughput_bps(self) -> float:
        """Payload bits per second."""
        return bits_per_second(len(self.sent) * 8,
                               self.end_ns - self.start_ns)


class FiveLevelThreadChannel:
    """Same-thread channel over the full five-level ladder."""

    def __init__(self, system: System,
                 config: ChannelConfig = ChannelConfig(),
                 core: int = 0) -> None:
        self.system = system
        self.config = config
        self.thread_id = system.thread_on(core, 0)
        ladder = narrow_symbol_classes(system.config.max_vector_bits)
        #: digit -> class; digit 0 sends nothing.
        self.digit_classes: Dict[int, Optional[IClass]] = {
            QUIET_SYMBOL: None,
            1: ladder[0], 2: ladder[1], 3: ladder[2], 4: ladder[3],
        }
        self.probe_class = max(ladder.values())
        self._calibrator: Optional[Calibrator] = None

    # -- loops ------------------------------------------------------------------

    def _sender_loop(self, digit: int) -> Optional[Loop]:
        iclass = self.digit_classes.get(digit, False)
        if iclass is False:
            raise ProtocolError(f"digit must be 0..4, got {digit}")
        if iclass is None:
            return None
        iterations = max(self.config.sender_iterations,
                         int(self.config.sender_iterations * iclass.ipc))
        return Loop(iclass, iterations, self.config.block_instructions)

    def _probe_loop(self) -> Loop:
        return Loop(self.probe_class, 2 * self.config.probe_iterations,
                    self.config.block_instructions)

    @property
    def slot_ns(self) -> float:
        """Same slot arithmetic as the base protocol.

        The five-level transaction is no longer than the four-level one
        (the quiet symbol even shortens it), so the configured slot
        floor applies unchanged — the whole 16 % rate gain comes from
        the extra information per slot.
        """
        reset = us_to_ns(self.system.config.reset_time_us)
        freq = self.system.pmu.requested_freq_ghz
        probe = self._probe_loop()
        probe_wall = probe.total_instructions * 4.0 / (probe.iclass.ipc * freq)
        sender_wall = (self.config.sender_iterations
                       * self.config.block_instructions * 4.0 / freq)
        needed = reset + probe_wall + sender_wall + us_to_ns(10.0)
        return max(us_to_ns(self.config.slot_us), needed)

    # -- transfer machinery ---------------------------------------------------------

    def _program(self, schedule: SlotSchedule, digits: Sequence[int],
                 measurements: List[Optional[float]]) -> Generator:
        system = self.system
        for i, digit in enumerate(digits):
            yield system.until(schedule.slot_start(i))
            loop = self._sender_loop(digit)
            if loop is not None:
                yield system.execute(self.thread_id, loop)
            result = yield system.execute(self.thread_id, self._probe_loop())
            measurements[i] = float(result.elapsed_tsc)
        return None

    def _spawn_transaction_programs(self, schedule: SlotSchedule,
                                    digits: Sequence[int],
                                    measurements: List[Optional[float]]) -> None:
        self.system.spawn(self._program(schedule, digits, measurements),
                          name="five_level_channel")

    def _run_digits(self, digits: Sequence[int]) -> List[float]:
        schedule = SlotSchedule(self.system.now + self.slot_ns, self.slot_ns)
        party = (schedule, digits, self._spawn_transaction_programs)
        return run_slots(self.system, [party], self.slot_ns)[0]

    def calibrate(self) -> Calibrator:
        """Train all five clusters (including the quiet symbol)."""
        training: List[int] = []
        for _ in range(self.config.training_rounds):
            training.extend(range(5))
        readings = self._run_digits(training)
        self._calibrator = Calibrator(
            list(zip(training, readings)),
            min_gap=self.config.min_level_gap_tsc,
        )
        return self._calibrator

    def transfer(self, payload: bytes) -> FiveLevelReport:
        """Send ``payload`` at 2.32 bits per transaction."""
        if not payload:
            raise ProtocolError("payload is empty")
        if self._calibrator is None:
            self.calibrate()
        assert self._calibrator is not None
        digits = bytes_to_digits(payload)
        assert len(digits) == digits_for_bytes(len(payload))
        start = self.system.now
        readings = self._run_digits(digits)
        decoded = self._calibrator.decode_all(readings)
        received = digits_to_bytes(decoded, len(payload))
        return FiveLevelReport(
            sent=payload,
            received=received,
            digits_sent=digits,
            digits_received=decoded,
            start_ns=start,
            end_ns=self.system.now,
        )
