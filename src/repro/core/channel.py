"""Base machinery shared by the three IChannels covert channels.

A transfer proceeds in fixed wall-clock slots (Section 4.3.3).  In each
slot the sender executes a PHI loop whose computational-intensity level
encodes two secret bits, and the receiver measures a probe loop with
``rdtsc``; the measured throttling behaviour decodes the level.  Between
slots both sides stay quiet so the 650 us hysteresis (reset-time,
Section 4.1.2) returns the rail to baseline.

Subclasses provide the per-location sender/receiver programs; everything
else — framing, calibration, decoding, reporting — lives here.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Sequence

from repro.core.calibration import Calibrator
from repro.core.encoding import (
    bits_to_bytes,
    bytes_to_bits,
    bytes_to_symbols,
    symbols_to_bytes,
)
from repro.core.levels import (
    ChannelLocation,
    ROBUST_SYMBOL_BITS,
    ROBUST_SYMBOLS,
    SYMBOL_BITS,
    bit_for_robust_symbol,
    narrow_symbol_classes,
    probe_class_for,
    robust_symbol_for_bit,
)
from repro.core.sync import JitteredSchedule, SlotSchedule
from repro.errors import ProtocolError
from repro.obs.tracer import current as _obs
from repro.isa.instructions import IClass
from repro.isa.workload import Loop
from repro.soc.system import System
from repro.units import bits_per_second, ns_to_us, us_to_ns


@dataclass(frozen=True)
class ChannelConfig:
    """Protocol parameters of one covert channel instance.

    Parameters
    ----------
    slot_us:
        Transaction slot length.  Must exceed the send window plus the
        650 us reset-time plus the rail's down-ramp; 750 us is safe for
        the MBVR parts (the paper's <=690 us assumes an instant ramp-
        down, which MBVR hardware does not quite deliver).
    sender_iterations / probe_iterations:
        Loop lengths (300-instruction blocks per iteration).  The probe
        must outlast the longest throttling period it needs to observe.
    cross_core_delay_ns:
        How long after the sender the cross-core receiver starts its
        probe ('within a few hundred cycles', Section 4.3.1).
    training_rounds:
        Calibration transactions per symbol level.
    min_level_gap_tsc:
        Required separation between calibrated cluster means, in TSC
        cycles; closer clusters raise :class:`CalibrationError`.
    adaptive_slot:
        Grow the slot beyond ``slot_us`` when the part's electrical
        parameters require a longer send window (default).  Disable to
        force the configured slot exactly — useful for studying what
        goes wrong when the protocol violates the reset-time.
    slot_jitter_us / jitter_seed:
        Pseudo-random per-slot start offsets from a seed both parties
        share: defeats periodicity-based throttle-pattern detection at
        the cost of ``slot_jitter_us / 2`` of average extra latency per
        transaction.
    """

    slot_us: float = 750.0
    sender_iterations: int = 30
    probe_iterations: int = 60
    block_instructions: int = 300
    cross_core_delay_ns: float = 200.0
    training_rounds: int = 3
    min_level_gap_tsc: float = 500.0
    adaptive_slot: bool = True
    slot_jitter_us: float = 0.0
    jitter_seed: int = 7

    def __post_init__(self) -> None:
        if self.slot_us <= 0:
            raise ProtocolError(f"slot must be positive, got {self.slot_us}")
        if self.sender_iterations < 1 or self.probe_iterations < 1:
            raise ProtocolError("loop iterations must be >= 1")
        if self.training_rounds < 1:
            raise ProtocolError("training needs at least one round per symbol")


@dataclass
class TransferReport:
    """Everything observed during one payload transfer."""

    sent: bytes
    received: bytes
    symbols_sent: List[int]
    symbols_received: List[int]
    measurements_tsc: List[float]
    start_ns: float
    end_ns: float
    location: ChannelLocation
    retraining: bool = False
    #: Bits each transaction carried: :data:`SYMBOL_BITS` for the full
    #: four-level ladder, 1 for degraded two-level signalling.
    bits_per_symbol: int = SYMBOL_BITS
    meta: dict = field(default_factory=dict)

    @property
    def bits(self) -> int:
        """Payload bits transferred."""
        return len(self.symbols_sent) * self.bits_per_symbol

    @property
    def elapsed_ns(self) -> float:
        """Wall time of the transfer (excluding calibration)."""
        return self.end_ns - self.start_ns

    @property
    def bit_errors(self) -> int:
        """Wrong bits between sent and received symbol streams.

        When the streams differ in length (a receiver that lost slots),
        every missing or surplus symbol counts as fully errored — a
        silently dropped tail must not *lower* the reported BER.
        """
        wrong = 0
        if self.bits_per_symbol == SYMBOL_BITS:
            for a, b in zip(self.symbols_sent, self.symbols_received):
                wrong += bin((a ^ b) & 0b11).count("1")
        else:
            # Degraded signalling: each symbol carries one bit, so any
            # symbol mismatch is exactly one bit error.
            for a, b in zip(self.symbols_sent, self.symbols_received):
                wrong += int(a != b)
        wrong += self.bits_per_symbol * abs(len(self.symbols_sent)
                                            - len(self.symbols_received))
        return wrong

    @property
    def ber(self) -> float:
        """Bit error rate of the transfer."""
        if self.bits == 0:
            return 0.0
        return self.bit_errors / self.bits

    @property
    def throughput_bps(self) -> float:
        """Realised throughput in bits per second."""
        return bits_per_second(self.bits, self.elapsed_ns)

    @property
    def goodput_bps(self) -> float:
        """Throughput discounted by the bit error rate."""
        return self.throughput_bps * (1.0 - self.ber)

    def fingerprint(self) -> dict:
        """A digest-ready reduction of the transfer (plain JSON types).

        Everything the golden-trace harness (:mod:`repro.verify`) pins
        about a transfer: the payloads, the exact symbol streams, the
        raw receiver measurements and the simulated start/end times.
        Two transfers with equal fingerprints behaved identically at
        every externally observable seam.
        """
        return {
            "sent": self.sent.hex(),
            "received": self.received.hex(),
            "symbols_sent": list(self.symbols_sent),
            "symbols_received": list(self.symbols_received),
            "measurements_tsc": [float(m) for m in self.measurements_tsc],
            "start_ns": float(self.start_ns),
            "end_ns": float(self.end_ns),
            "location": self.location.value,
            "bits_per_symbol": int(self.bits_per_symbol),
            "ber": self.ber,
            "throughput_bps": self.throughput_bps,
        }


class CovertChannel(abc.ABC):
    """Common behaviour of IccThreadCovert / IccSMTcovert / IccCoresCovert."""

    #: Where sender and receiver run; set by each subclass.
    location: ClassVar[ChannelLocation]

    def __init__(self, system: System,
                 config: ChannelConfig = ChannelConfig()) -> None:
        self.system = system
        self.config = config
        max_bits = system.config.max_vector_bits
        self.symbol_classes = narrow_symbol_classes(max_bits)
        self.probe_class = probe_class_for(self.location, max_bits)
        self._calibrator: Optional[Calibrator] = None
        self._calibrated_symbols: "tuple[int, ...]" = ()
        # Loop construction and slot sizing are pure functions of the
        # requested operating point (the electrical model is immutable),
        # so they are memoised per channel, keyed by the requested
        # frequency.  Loops are frozen dataclasses — safe to share.
        self._loop_cache: dict = {}
        self._slot_ns_cache: dict = {}

    # -- subclass hooks ------------------------------------------------------

    @abc.abstractmethod
    def _spawn_transaction_programs(self, schedule: SlotSchedule,
                                    symbols: Sequence[int],
                                    measurements: List[Optional[float]]) -> None:
        """Spawn the sender/receiver programs for one symbol stream.

        ``measurements[i]`` must receive the receiver's probe reading
        (elapsed TSC cycles) for slot ``i``.
        """

    # -- electrical sizing ------------------------------------------------------
    #
    # The protocol only works when two timing conditions hold (the paper's
    # senders/receivers use "a few thousand loop iterations" for the same
    # reason):
    #
    # 1. the sender's loop must outlast its *own* voltage transition, so
    #    the grant lands while the loop still runs — otherwise the probe
    #    begins mid-ramp and only the total rail distance (which is the
    #    same for every symbol) remains observable;
    # 2. the receiver's probe must outlast the *longest* throttling
    #    period it has to measure, or its reading saturates at 4x its own
    #    length and the top levels alias.
    #
    # Both bounds depend on the part's guardbands and VR slew, so loops
    # are sized from the system's electrical model, never below the
    # configured minimums.

    def _operating_point(self) -> "tuple[float, float]":
        """(frequency GHz, baseline Vcc) of the current governor target."""
        freq = self.system.pmu.requested_freq_ghz
        vcc = self.system.pmu.curve.vcc_for(freq)
        return freq, vcc

    def _tp_estimate_ns(self, delta_v: float) -> float:
        """Pessimistic transition time for a guardband step of ``delta_v``."""
        spec = self.system.pmu.rail_of(0).spec
        quantisation_v = 2.0 * spec.vid_step_mv / 1000.0
        ramp = spec.transition_ns(0.0, delta_v + quantisation_v)
        return ramp + spec.command_latency_ns  # second command in a queue

    def _iterations_for_wall(self, iclass: IClass, wall_ns: float) -> int:
        """Iterations of ``iclass`` spanning ``wall_ns`` at quarter rate."""
        freq, _ = self._operating_point()
        throttled_rate = iclass.ipc * freq / 4.0  # instructions per ns
        instructions = wall_ns * throttled_rate
        return max(1, int(instructions / self.config.block_instructions) + 1)

    def _min_wall_ns(self, configured_iterations: int) -> float:
        """Wall-time floor an iteration-count minimum implies (at IPC 1)."""
        freq, _ = self._operating_point()
        return configured_iterations * self.config.block_instructions * 4.0 / freq

    def _sender_dv(self, iclass: IClass) -> float:
        freq, vcc = self._operating_point()
        return self.system.guardband.delta_v(iclass, vcc, freq)

    def sender_loop(self, symbol: int) -> Loop:
        """The PHI loop encoding two-bit ``symbol``.

        Every symbol's loop is sized for the *worst* symbol's transition
        (and iteration counts scale with the class IPC), so the sender's
        unthrottled wall time is symbol-independent: the only observable
        difference between symbols is the throttling behaviour itself,
        never the loop length.
        """
        if symbol not in self.symbol_classes:
            raise ProtocolError(f"symbol must be 0..3, got {symbol}")
        key = ("sender", symbol, self.system.pmu.requested_freq_ghz)
        cached = self._loop_cache.get(key)
        if cached is not None:
            return cached
        iclass = self.symbol_classes[symbol]
        worst_dv = max(self._sender_dv(c) for c in self.symbol_classes.values())
        wall = max(self._min_wall_ns(self.config.sender_iterations),
                   1.5 * self._tp_estimate_ns(worst_dv))
        loop = Loop(iclass, self._iterations_for_wall(iclass, wall),
                    self.config.block_instructions)
        self._loop_cache[key] = loop
        return loop

    def probe_loop(self) -> Loop:
        """The receiver's measurement loop (sized to outlast any TP).

        The worst throttling period the probe must span depends on the
        location: same-thread probes pay at most their own full ramp
        (the residual after the sender shrinks it); SMT probes observe
        at most the sender's ramp; cross-core probes queue behind the
        sender and then pay their own ramp on top.
        """
        key = ("probe", self.system.pmu.requested_freq_ghz)
        cached = self._loop_cache.get(key)
        if cached is not None:
            return cached
        worst_sender_dv = max(
            self._sender_dv(iclass) for iclass in self.symbol_classes.values()
        )
        probe_dv = self._sender_dv(self.probe_class)
        if self.location == ChannelLocation.SAME_THREAD:
            worst_dv = probe_dv
        elif self.location == ChannelLocation.ACROSS_SMT:
            worst_dv = worst_sender_dv
        else:
            worst_dv = worst_sender_dv + probe_dv
        wall = max(self._min_wall_ns(self.config.probe_iterations),
                   1.5 * self._tp_estimate_ns(worst_dv))
        loop = Loop(self.probe_class,
                    self._iterations_for_wall(self.probe_class, wall),
                    self.config.block_instructions)
        self._loop_cache[key] = loop
        return loop

    # -- slot execution -----------------------------------------------------------

    @property
    def slot_ns(self) -> float:
        """Slot length in ns.

        At least the configured ``slot_us``; grown when the part's slow
        guardband ramps make the send window (sender loop + probe loop,
        both potentially at quarter rate) plus the reset-time exceed it.
        """
        if not self.config.adaptive_slot:
            return us_to_ns(self.config.slot_us)
        freq, _ = self._operating_point()
        cached = self._slot_ns_cache.get(freq)
        if cached is not None:
            return cached
        share = 2.0 if self.location == ChannelLocation.ACROSS_SMT else 1.0

        def wall_ns(loop: Loop) -> float:
            return loop.total_instructions * 4.0 * share / (loop.iclass.ipc * freq)

        send_window = max(wall_ns(self.sender_loop(s))
                          for s in self.symbol_classes)
        send_window += wall_ns(self.probe_loop())
        send_window += self.config.cross_core_delay_ns
        reset_ns = us_to_ns(self.system.config.reset_time_us)
        needed = reset_ns + send_window + us_to_ns(10.0)
        result = max(us_to_ns(self.config.slot_us), needed)
        self._slot_ns_cache[freq] = result
        return result

    def party_schedule(self, schedule: SlotSchedule,
                       party: str) -> SlotSchedule:
        """``party``'s view of ``schedule`` under any scheduling faults.

        With no injector attached (``system.faults`` unset) this is the
        shared schedule itself; under a ``slot-jitter`` fault each party
        gets independently delayed slot entries.  Subclasses route their
        sender/receiver programs through this so faults act on the seam
        without the channels importing the fault layer.
        """
        faults = getattr(self.system, "faults", None)
        if faults is None:
            return schedule
        return faults.perturb_schedule(schedule, party)

    def _fault_slack_ns(self) -> float:
        """Extra run time scheduling faults may push the last probe by."""
        faults = getattr(self.system, "faults", None)
        if faults is None:
            return 0.0
        return faults.extra_slot_slack_ns()

    def _fresh_schedule(self) -> SlotSchedule:
        """A slot schedule starting one quiet slot from now.

        The leading quiet slot guarantees the hysteresis window of any
        earlier activity has expired before slot 0 begins.  The
        schedule has no length: slots are consumed in order.
        """
        jitter_ns = us_to_ns(self.config.slot_jitter_us)
        slot = self.slot_ns + jitter_ns  # keep the reset-time honoured
        epoch = self.system.now + slot
        if jitter_ns > 0.0:
            return JitteredSchedule(epoch_ns=epoch, slot_ns=slot,
                                    jitter_ns=jitter_ns,
                                    seed=self.config.jitter_seed)
        return SlotSchedule(epoch_ns=epoch, slot_ns=slot)

    def run_symbols(self, symbols: Sequence[int]) -> List[float]:
        """Transmit a raw symbol stream; returns per-slot probe readings."""
        if not symbols:
            raise ProtocolError("symbol stream is empty")
        schedule = self._fresh_schedule()
        measurements: List[Optional[float]] = [None] * len(symbols)
        self._spawn_transaction_programs(schedule, list(symbols), measurements)
        end = (schedule.slot_start(len(symbols)) + self.slot_ns
               + self._fault_slack_ns())
        self.system.run_until(end)
        missing = [i for i, m in enumerate(measurements) if m is None]
        tracer = _obs()
        if tracer.enabled:
            readings = tracer.metrics.histogram("channel.slot_measurement_tsc")
            for i, symbol in enumerate(symbols):
                args = {"slot": i, "symbol": symbol}
                if measurements[i] is not None:
                    args["tsc"] = float(measurements[i])  # type: ignore[arg-type]
                    readings.observe(float(measurements[i]))  # type: ignore[arg-type]
                tracer.complete(f"slot s{symbol}", "channel",
                                schedule.slot_start(i), self.slot_ns,
                                track="channel.slots", args=args)
            if missing:
                tracer.metrics.counter(
                    "channel.missing_measurements").inc(len(missing))
                for i in missing:
                    tracer.instant(
                        "channel.missing_measurement", "channel",
                        schedule.slot_start(i), track="channel.slots",
                        args={"slot": i, "symbol": symbols[i]},
                    )
        if missing:
            raise ProtocolError(
                f"receiver produced no measurement for slots {missing}; "
                f"slot length {ns_to_us(schedule.slot_ns):.2f} us may be too short"
            )
        return [float(m) for m in measurements]

    # -- calibration -------------------------------------------------------------

    def calibrate(self, symbols: Optional[Sequence[int]] = None) -> Calibrator:
        """Learn decode thresholds by sending known training symbols.

        ``symbols`` restricts training to a subset of the ladder — the
        degraded two-level mode calibrates on
        :data:`~repro.core.levels.ROBUST_SYMBOLS` only, which both
        shortens training and widens every decision margin.
        """
        levels = sorted(self.symbol_classes if symbols is None else symbols)
        for symbol in levels:
            if symbol not in self.symbol_classes:
                raise ProtocolError(f"symbol must be 0..3, got {symbol}")
        if len(levels) < 2:
            raise ProtocolError("calibration needs at least two levels")
        training_symbols: List[int] = []
        for _ in range(self.config.training_rounds):
            training_symbols.extend(levels)
        start = self.system.now
        readings = self.run_symbols(training_symbols)
        self._calibrator = Calibrator(
            list(zip(training_symbols, readings)),
            min_gap=self.config.min_level_gap_tsc,
        )
        self._calibrated_symbols = tuple(levels)
        tracer = _obs()
        if tracer.enabled:
            tracer.metrics.counter("channel.calibrations").inc()
            tracer.complete(
                "channel.calibrate", "channel", start, self.system.now - start,
                track="channel",
                args={"rounds": self.config.training_rounds,
                      "levels": len(levels),
                      "training_symbols": len(training_symbols)},
            )
        return self._calibrator

    @property
    def calibrator(self) -> Optional[Calibrator]:
        """The fitted calibrator, if :meth:`calibrate` ran."""
        return self._calibrator

    # -- transfers -------------------------------------------------------------------

    def transfer(self, payload: bytes) -> TransferReport:
        """Send ``payload`` and decode it; calibrates first if needed."""
        return self._transfer(payload, robust=False)

    def transfer_robust(self, payload: bytes) -> TransferReport:
        """Send ``payload`` with degraded two-level signalling.

        One bit per transaction using only the ladder's extreme levels
        (:data:`~repro.core.levels.ROBUST_SYMBOLS`): half the rate of
        :meth:`transfer`, but the decision margin grows to the full
        spread of the ladder — the adaptive session's graceful
        degradation when the four-level SNR collapses under faults.
        Calibrates (on the two robust levels only) when needed.
        """
        return self._transfer(payload, robust=True)

    def _transfer(self, payload: bytes, robust: bool) -> TransferReport:
        """One transfer on the full ladder or, if ``robust``, on two levels.

        Retrains whenever the fitted calibrator learned other levels than
        the ones this mode signals with.
        """
        if not payload:
            raise ProtocolError("payload is empty")
        if robust:
            ladder = ROBUST_SYMBOLS
            symbols = [robust_symbol_for_bit(bit)
                       for bit in bytes_to_bits(payload)]
        else:
            ladder = tuple(sorted(self.symbol_classes))
            symbols = bytes_to_symbols(payload)
        retrained = False
        if self._calibrator is None or self._calibrated_symbols != ladder:
            self.calibrate(symbols=ladder)
            retrained = True
        assert self._calibrator is not None
        start = self.system.now
        readings = self.run_symbols(symbols)
        decoded = self._calibrator.decode_all(readings)
        if len(decoded) != len(symbols):
            raise ProtocolError(
                f"receiver decoded {len(decoded)} symbols for "
                f"{len(symbols)} sent; the slot streams diverged"
            )
        if robust:
            received = bits_to_bytes(
                [bit_for_robust_symbol(s) for s in decoded])
        else:
            received = symbols_to_bytes(decoded)
        report = TransferReport(
            sent=payload,
            received=received,
            symbols_sent=symbols,
            symbols_received=decoded,
            measurements_tsc=readings,
            start_ns=start,
            end_ns=self.system.now,
            location=self.location,
            retraining=retrained,
            bits_per_symbol=ROBUST_SYMBOL_BITS if robust else SYMBOL_BITS,
        )
        tracer = _obs()
        if tracer.enabled:
            counter, span = (
                ("channel.transfers_robust", "channel.transfer_robust")
                if robust else ("channel.transfers", "channel.transfer"))
            tracer.metrics.counter(counter).inc()
            tracer.metrics.histogram("channel.transfer_ber").observe(report.ber)
            tracer.complete(
                span, "channel", start, report.elapsed_ns,
                track="channel",
                args={"bytes": len(payload), "bits": report.bits,
                      "bit_errors": report.bit_errors,
                      "ber": round(report.ber, 6),
                      "location": self.location.name,
                      "retrained": retrained},
            )
        return report

    def symbol_class(self, symbol: int) -> IClass:
        """PHI class for ``symbol`` under this part's ladder."""
        if symbol not in self.symbol_classes:
            raise ProtocolError(f"symbol must be 0..3, got {symbol}")
        return self.symbol_classes[symbol]
