"""Broadcast extension: one sender, multiple simultaneous receivers.

The three side effects fire from a *single* PHI loop: the sender's
voltage transition co-throttles its SMT sibling (Multi-Throttling-SMT)
*and* serialises against other cores' transitions
(Multi-Throttling-Cores) at the same time.  A sender can therefore
broadcast each two-bit symbol to an SMT-sibling receiver and a
cross-core receiver in the same transaction — an extension beyond the
paper's pairwise channels that follows directly from its observations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence

from repro.core.calibration import Calibrator
from repro.core.channel import ChannelConfig, run_slots
from repro.core.encoding import bytes_to_symbols, symbols_to_bytes
from repro.core.levels import (
    ChannelLocation,
    narrow_symbol_classes,
    probe_class_for,
)
from repro.core.sync import SlotSchedule
from repro.errors import ConfigError, ProtocolError
from repro.isa.workload import Loop
from repro.soc.system import System
from repro.units import us_to_ns


@dataclass
class BroadcastReport:
    """Outcome of one broadcast transfer, per receiver."""

    sent: bytes
    symbols_sent: List[int]
    received: Dict[ChannelLocation, bytes]
    symbols_received: Dict[ChannelLocation, List[int]]
    start_ns: float
    end_ns: float
    meta: dict = field(default_factory=dict)

    def ber(self, location: ChannelLocation) -> float:
        """Bit error rate seen by one receiver."""
        decoded = self.symbols_received[location]
        wrong = sum(
            bin((a ^ b) & 0b11).count("1")
            for a, b in zip(self.symbols_sent, decoded)
        )
        total = 2 * len(self.symbols_sent)
        return wrong / total if total else 0.0


class IccBroadcast:
    """One sender broadcasting to an SMT sibling and another core."""

    LOCATIONS = (ChannelLocation.ACROSS_SMT, ChannelLocation.ACROSS_CORES)

    def __init__(self, system: System,
                 config: ChannelConfig = ChannelConfig(),
                 sender_core: int = 0, cross_core: int = 1) -> None:
        if not system.config.supports_smt:
            raise ConfigError("broadcast needs an SMT part for the sibling")
        if system.config.n_cores < 2:
            raise ConfigError("broadcast needs a second physical core")
        if sender_core == cross_core:
            raise ConfigError("cross-core receiver must use another core")
        self.system = system
        self.config = config
        self.sender_thread = system.thread_on(sender_core, 0)
        self.smt_thread = system.thread_on(sender_core, 1)
        self.cross_thread = system.thread_on(cross_core, 0)
        max_bits = system.config.max_vector_bits
        self.symbol_classes = narrow_symbol_classes(max_bits)
        self.probe_classes = {
            location: probe_class_for(location, max_bits)
            for location in self.LOCATIONS
        }
        self._calibrators: Dict[ChannelLocation, Calibrator] = {}

    # -- loops -----------------------------------------------------------------

    def _sender_loop(self, symbol: int) -> Loop:
        if symbol not in self.symbol_classes:
            raise ProtocolError(f"symbol must be 0..3, got {symbol}")
        return Loop(self.symbol_classes[symbol],
                    self.config.sender_iterations * 2,
                    self.config.block_instructions)

    def _probe_loop(self, location: ChannelLocation) -> Loop:
        return Loop(self.probe_classes[location],
                    self.config.probe_iterations * 2,
                    self.config.block_instructions)

    # -- programs ---------------------------------------------------------------

    def _sender_program(self, schedule: SlotSchedule,
                        symbols: Sequence[int]) -> Generator:
        system = self.system
        for i, symbol in enumerate(symbols):
            yield system.until(schedule.slot_start(i))
            yield system.execute(self.sender_thread, self._sender_loop(symbol))
        return None

    def _receiver_program(self, location: ChannelLocation,
                          schedule: SlotSchedule, n_symbols: int,
                          measurements: List[Optional[float]]) -> Generator:
        system = self.system
        thread = (self.smt_thread if location == ChannelLocation.ACROSS_SMT
                  else self.cross_thread)
        delay = (self.config.cross_core_delay_ns
                 if location == ChannelLocation.ACROSS_CORES else 0.0)
        for i in range(n_symbols):
            yield system.until(schedule.slot_start(i) + delay)
            result = yield system.execute(thread, self._probe_loop(location))
            measurements[i] = float(result.elapsed_tsc)
        return None

    def _spawn_receiver(self, location: ChannelLocation,
                        schedule: SlotSchedule, symbols: Sequence[int],
                        measurements: List[Optional[float]]) -> None:
        """Spawn ``location``'s receiver; the sender rides with the first."""
        if location == self.LOCATIONS[0]:
            self.system.spawn(self._sender_program(schedule, symbols),
                              name="broadcast_sender")
        self.system.spawn(
            self._receiver_program(location, schedule, len(symbols),
                                   measurements),
            name=f"broadcast_rx_{location.value}",
        )

    # -- transfer machinery --------------------------------------------------------

    @property
    def slot_ns(self) -> float:
        """Broadcast slots: the paper slot plus headroom for two probes."""
        return us_to_ns(self.config.slot_us) * 1.25

    def _run(self, symbols: Sequence[int]
             ) -> Dict[ChannelLocation, List[float]]:
        schedule = SlotSchedule(self.system.now + self.slot_ns, self.slot_ns)
        parties = [(schedule, symbols,
                    functools.partial(self._spawn_receiver, location))
                   for location in self.LOCATIONS]
        readings = run_slots(self.system, parties, self.slot_ns)
        return dict(zip(self.LOCATIONS, readings))

    def calibrate(self) -> Dict[ChannelLocation, Calibrator]:
        """Fit per-receiver decoders from shared training transactions."""
        training: List[int] = []
        for _ in range(self.config.training_rounds):
            training.extend(sorted(self.symbol_classes))
        readings = self._run(training)
        for location in self.LOCATIONS:
            self._calibrators[location] = Calibrator(
                list(zip(training, readings[location])),
                min_gap=self.config.min_level_gap_tsc,
            )
        return dict(self._calibrators)

    def transfer(self, payload: bytes) -> BroadcastReport:
        """Broadcast ``payload``; every receiver decodes independently."""
        if not payload:
            raise ProtocolError("payload is empty")
        if not self._calibrators:
            self.calibrate()
        symbols = bytes_to_symbols(payload)
        start = self.system.now
        readings = self._run(symbols)
        decoded = {
            location: self._calibrators[location].decode_all(values)
            for location, values in readings.items()
        }
        return BroadcastReport(
            sent=payload,
            symbols_sent=symbols,
            received={
                location: symbols_to_bytes(symbols_rx)
                for location, symbols_rx in decoded.items()
            },
            symbols_received=decoded,
            start_ns=start,
            end_ns=self.system.now,
        )
