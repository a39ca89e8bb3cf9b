"""Burst extension: two symbols per reset window when levels ascend.

The 650 us reset-time dominates the transaction cycle, but it is only
needed before a *downward* level change: an *upward* transition triggers
its own voltage ramp immediately, because the new class exceeds the
granted guardband regardless of history.  A sender can therefore pack an
ascending symbol pair into one slot — transmit ``s1``, then immediately
``s2 > s1`` — and pay the reset-time once for two symbols.

The receiver (on the SMT sibling, whose scalar probe never disturbs the
grants) measures two sub-slots: the first throttling period encodes
``s1`` as usual, the second encodes the *residual* ramp from ``s1``'s
guardband to ``s2``'s.  A second sub-slot with no throttling means the
slot carried a single symbol — the framing is self-describing because
pairs are only ever formed when the second ramp is non-empty.

For uniformly random payloads ~37 % of slots pair up, giving a ~1.3x
throughput gain over :class:`~repro.core.smt_channel.IccSMTcovert`; the
paper's protocol is the degenerate single-symbol case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.calibration import Calibrator
from repro.core.channel import ChannelConfig
from repro.core.encoding import bytes_to_symbols, symbols_to_bytes
from repro.core.levels import narrow_symbol_classes
from repro.core.sync import SlotSchedule
from repro.errors import CalibrationError, ConfigError, ProtocolError
from repro.isa.instructions import IClass
from repro.isa.workload import Loop
from repro.soc.system import System
from repro.units import bits_per_second, us_to_ns


def pack_pairs(symbols: Sequence[int]) -> List[Tuple[int, Optional[int]]]:
    """Greedy packing of a symbol stream into (first, second|None) slots.

    A slot carries a second symbol only when it is strictly greater than
    the first (an upward guardband transition exists to encode it).
    """
    slots: List[Tuple[int, Optional[int]]] = []
    i = 0
    while i < len(symbols):
        first = symbols[i]
        if i + 1 < len(symbols) and symbols[i + 1] > first:
            slots.append((first, symbols[i + 1]))
            i += 2
        else:
            slots.append((first, None))
            i += 1
    return slots


def unpack_pairs(slots: Sequence[Tuple[int, Optional[int]]]) -> List[int]:
    """Inverse of :func:`pack_pairs`."""
    out: List[int] = []
    for first, second in slots:
        out.append(first)
        if second is not None:
            out.append(second)
    return out


@dataclass
class BurstReport:
    """Outcome of one burst transfer."""

    sent: bytes
    received: bytes
    symbols_sent: List[int]
    symbols_received: List[int]
    slots_used: int
    start_ns: float
    end_ns: float

    @property
    def bits(self) -> int:
        """Payload bits transferred."""
        return 2 * len(self.symbols_sent)

    @property
    def ber(self) -> float:
        """Bit error rate (length mismatches count as full errors)."""
        wrong = sum(
            bin((a ^ b) & 0b11).count("1")
            for a, b in zip(self.symbols_sent, self.symbols_received)
        )
        wrong += 2 * abs(len(self.symbols_sent) - len(self.symbols_received))
        return wrong / self.bits if self.bits else 0.0

    @property
    def throughput_bps(self) -> float:
        """Realised throughput in bit/s."""
        return bits_per_second(self.bits, self.end_ns - self.start_ns)

    @property
    def symbols_per_slot(self) -> float:
        """Packing efficiency (1.0 = the paper's protocol)."""
        return len(self.symbols_sent) / self.slots_used if self.slots_used else 0.0


class IccSMTBurst:
    """Across-SMT channel packing ascending symbol pairs per slot."""

    def __init__(self, system: System,
                 config: ChannelConfig = ChannelConfig(),
                 core: int = 0) -> None:
        if not system.config.supports_smt:
            raise ConfigError("the burst channel runs across SMT threads")
        self.system = system
        self.config = config
        self.sender_thread = system.thread_on(core, 0)
        self.receiver_thread = system.thread_on(core, 1)
        self.symbol_classes = narrow_symbol_classes(
            system.config.max_vector_bits)
        self._first_calibrator: Optional[Calibrator] = None
        self._second_calibrators: Dict[int, Calibrator] = {}
        self._presence_tsc: float = 0.0

    # -- geometry ---------------------------------------------------------------

    def _freq(self) -> float:
        return self.system.pmu.requested_freq_ghz

    def _sender_loop(self, symbol: int) -> Loop:
        iclass = self.symbol_classes[symbol]
        # Constant-wall sizing, as in the base protocol.
        iterations = max(
            self.config.sender_iterations,
            int(self.config.sender_iterations * iclass.ipc))
        return Loop(iclass, iterations, self.config.block_instructions)

    def _probe_loop(self) -> Loop:
        iterations = 2 * self.config.probe_iterations
        return Loop(IClass.SCALAR_64, iterations,
                    self.config.block_instructions)

    @property
    def sub_slot_ns(self) -> float:
        """Offset of the second symbol within a slot.

        Must exceed the first loop's worst wall time (0.75 x the longest
        TP plus the unthrottled loop), so both sides stay aligned no
        matter which level the first symbol used.
        """
        freq = self._freq()
        loop = self._sender_loop(0)
        unthrottled = loop.total_instructions / (loop.iclass.ipc * freq)
        return 4.0 * unthrottled + us_to_ns(8.0)

    @property
    def slot_ns(self) -> float:
        """Slot length: two sub-slots plus the reset-time."""
        reset = us_to_ns(self.system.config.reset_time_us)
        return reset + 2.2 * self.sub_slot_ns + us_to_ns(10.0)

    # -- programs ----------------------------------------------------------------

    def _sender_program(self, schedule: SlotSchedule,
                        slots: Sequence[Tuple[int, Optional[int]]]
                        ) -> Generator:
        system = self.system
        for i, (first, second) in enumerate(slots):
            yield system.until(schedule.slot_start(i))
            yield system.execute(self.sender_thread, self._sender_loop(first))
            if second is not None:
                yield system.until(schedule.slot_start(i) + self.sub_slot_ns)
                yield system.execute(self.sender_thread,
                                     self._sender_loop(second))
        return None

    def _receiver_program(self, schedule: SlotSchedule, n_slots: int,
                          measurements: List[Optional[Tuple[float, float]]]
                          ) -> Generator:
        system = self.system
        for i in range(n_slots):
            yield system.until(schedule.slot_start(i))
            first = yield system.execute(self.receiver_thread,
                                         self._probe_loop())
            yield system.until(schedule.slot_start(i) + self.sub_slot_ns)
            second = yield system.execute(self.receiver_thread,
                                          self._probe_loop())
            measurements[i] = (float(first.elapsed_tsc),
                               float(second.elapsed_tsc))
        return None

    def _run_slots(self, slots: Sequence[Tuple[int, Optional[int]]]
                   ) -> List[Tuple[float, float]]:
        if not slots:
            raise ProtocolError("no slots to transmit")
        schedule = SlotSchedule(self.system.now + self.slot_ns, self.slot_ns)
        measurements: List[Optional[Tuple[float, float]]] = [None] * len(slots)
        self.system.spawn(self._sender_program(schedule, list(slots)),
                          name="burst_sender")
        self.system.spawn(
            self._receiver_program(schedule, len(slots), measurements),
            name="burst_receiver",
        )
        self.system.run_until(schedule.slot_start(len(slots)) + self.slot_ns)
        if any(m is None for m in measurements):
            raise ProtocolError("receiver missed some slots")
        return [m for m in measurements if m is not None]

    # -- calibration ---------------------------------------------------------------

    def calibrate(self) -> None:
        """Train first-symbol, pair-presence and per-first decoders."""
        rounds = self.config.training_rounds
        # Single-symbol slots for the first-position decoder and the
        # quiet second-sub-slot baseline.
        singles: List[Tuple[int, Optional[int]]] = [
            (s, None) for _ in range(rounds) for s in sorted(self.symbol_classes)
        ]
        # Every strictly ascending pair for the second-position decoders.
        pairs: List[Tuple[int, Optional[int]]] = [
            (a, b)
            for _ in range(rounds)
            for a in sorted(self.symbol_classes)
            for b in sorted(self.symbol_classes)
            if b > a
        ]
        readings = self._run_slots(singles + pairs)
        single_readings = readings[:len(singles)]
        pair_readings = readings[len(singles):]

        self._first_calibrator = Calibrator(
            [(slot[0], first) for slot, (first, _) in
             zip(singles, single_readings)],
            min_gap=self.config.min_level_gap_tsc,
        )
        quiet_second = max(second for _, second in single_readings)
        busy_second = min(second for _, second in pair_readings)
        if busy_second - quiet_second < self.config.min_level_gap_tsc:
            raise CalibrationError(
                "pair presence is not separable from quiet sub-slots"
            )
        self._presence_tsc = (quiet_second + busy_second) / 2.0

        by_first: Dict[int, List[Tuple[int, float]]] = {}
        for (first, second), (_, reading) in zip(pairs, pair_readings):
            assert second is not None
            by_first.setdefault(first, []).append((second, reading))
        self._second_calibrators = {
            first: Calibrator(samples)
            for first, samples in by_first.items()
        }

    # -- transfer -----------------------------------------------------------------

    def transfer(self, payload: bytes) -> BurstReport:
        """Send ``payload`` with ascending-pair packing."""
        if not payload:
            raise ProtocolError("payload is empty")
        if self._first_calibrator is None:
            self.calibrate()
        assert self._first_calibrator is not None
        symbols = bytes_to_symbols(payload)
        slots = pack_pairs(symbols)
        start = self.system.now
        readings = self._run_slots(slots)
        decoded: List[int] = []
        for first_tsc, second_tsc in readings:
            first = self._first_calibrator.decode(first_tsc)
            decoded.append(first)
            if second_tsc > self._presence_tsc:
                calibrator = self._second_calibrators.get(first)
                if calibrator is not None:
                    decoded.append(calibrator.decode(second_tsc))
                else:
                    # First symbol was decoded as the top level, yet a
                    # second ramp happened: best effort, flag as top.
                    decoded.append(3)
        received = decoded[:len(symbols)]
        # Pad if framing desynchronised (counts as bit errors via ber).
        while len(received) < len(symbols):
            received.append(0)
        return BurstReport(
            sent=payload,
            received=symbols_to_bytes(received),
            symbols_sent=symbols,
            symbols_received=received,
            slots_used=len(slots),
            start_ns=start,
            end_ns=self.system.now,
        )
