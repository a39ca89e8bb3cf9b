"""Shared protocol and report type for baseline covert channels."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import ClassVar, List, Optional, Sequence

from repro.core.calibration import Calibrator
from repro.core.channel import run_slots
from repro.core.sync import SlotSchedule
from repro.errors import ProtocolError
from repro.soc.system import System
from repro.units import bits_per_second


@dataclass
class BaselineReport:
    """Outcome of a baseline channel transfer (one bit per transaction)."""

    name: str
    bits_sent: List[int]
    bits_received: List[int]
    start_ns: float
    end_ns: float

    @property
    def bits(self) -> int:
        """Number of payload bits transferred."""
        return len(self.bits_sent)

    @property
    def bit_errors(self) -> int:
        """Wrong bits between sent and received streams."""
        return sum(1 for a, b in zip(self.bits_sent, self.bits_received) if a != b)

    @property
    def ber(self) -> float:
        """Bit error rate."""
        if not self.bits_sent:
            return 0.0
        return self.bit_errors / len(self.bits_sent)

    @property
    def elapsed_ns(self) -> float:
        """Wall time of the transfer."""
        return self.end_ns - self.start_ns

    @property
    def throughput_bps(self) -> float:
        """Realised throughput in bit/s."""
        return bits_per_second(self.bits, self.elapsed_ns)


class BaselineChannel(abc.ABC):
    """One bit per slot, two-level decode; subclasses supply the programs."""

    #: ``BaselineReport.name`` of this channel's transfers.
    report_name: ClassVar[str]

    def __init__(self, system: System, slot_ns: float, training_rounds: int,
                 min_gap_tsc: float) -> None:
        self.system = system
        self.slot_ns = slot_ns
        self.training_rounds = training_rounds
        self.min_gap_tsc = min_gap_tsc
        self._calibrator: Optional[Calibrator] = None

    @abc.abstractmethod
    def _spawn_transaction_programs(self, schedule: SlotSchedule,
                                    bits: Sequence[int],
                                    measurements: List[Optional[float]]) -> None:
        """Spawn the programs sending ``bits``.

        Slot ``i``'s receiver reading goes to ``measurements[i]``.
        """

    def _run_bits(self, bits: Sequence[int]) -> List[float]:
        schedule = SlotSchedule(self.system.now + self.slot_ns, self.slot_ns)
        party = (schedule, bits, self._spawn_transaction_programs)
        return run_slots(self.system, [party], self.slot_ns)[0]

    def calibrate(self) -> Calibrator:
        """Train the two-level decoder on alternating known bits."""
        training = [0, 1] * self.training_rounds
        readings = self._run_bits(training)
        self._calibrator = Calibrator(list(zip(training, readings)),
                                      min_gap=self.min_gap_tsc)
        return self._calibrator

    def transfer_bits(self, bits: Sequence[int]) -> BaselineReport:
        """Send a bit stream; calibrates first if needed."""
        if not bits or any(bit not in (0, 1) for bit in bits):
            raise ProtocolError("bits must be a non-empty stream of 0s and 1s")
        if self._calibrator is None:
            self.calibrate()
        assert self._calibrator is not None
        start = self.system.now
        readings = self._run_bits(bits)
        decoded = self._calibrator.decode_all(readings)
        return BaselineReport(
            name=self.report_name,
            bits_sent=list(bits),
            bits_received=decoded,
            start_ns=start,
            end_ns=self.system.now,
        )
