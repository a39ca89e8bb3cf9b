"""Baseline covert channels and their paper-documented limitations."""

import pytest

from repro import System
from repro.core.baselines import (
    DFSCovert,
    NetSpectreGadget,
    PowerT,
    TurboCC,
)
from repro.core.baselines.powert import PowerBudgetController
from repro.errors import CalibrationError, ConfigError, ProtocolError
from repro.soc.config import cannon_lake_i3_8121u, coffee_lake_i7_9700k

BITS = [1, 0, 1, 1, 0, 0, 1, 0]


class TestNetSpectre:
    def test_transfers_bits(self):
        gadget = NetSpectreGadget(System(cannon_lake_i3_8121u()))
        report = gadget.transfer_bits(BITS)
        assert report.bits_received == BITS
        assert report.ber == 0.0

    def test_one_bit_per_transaction_half_of_ichannels(self):
        # The Figure 12(a) claim: IccThreadCovert is 2x NetSpectre,
        # purely because NetSpectre wastes the multi-level signal.
        from repro.core import IccThreadCovert

        gadget = NetSpectreGadget(System(cannon_lake_i3_8121u()))
        gadget_report = gadget.transfer_bits(BITS)
        channel = IccThreadCovert(System(cannon_lake_i3_8121u()))
        channel_report = channel.transfer(b"\xb2")
        ratio = channel_report.throughput_bps / gadget_report.throughput_bps
        assert ratio == pytest.approx(2.0, rel=0.25)

    def test_rejects_non_bits(self):
        system = System(cannon_lake_i3_8121u())
        with pytest.raises(ProtocolError):
            NetSpectreGadget(system).transfer_bits([2])
        assert system.now == 0.0  # rejected before calibrating

    def test_rejects_empty(self):
        system = System(cannon_lake_i3_8121u())
        with pytest.raises(ProtocolError):
            NetSpectreGadget(system).transfer_bits([])
        assert system.now == 0.0


class TestTurboCC:
    def test_transfers_bits_at_turbo(self):
        system = System(cannon_lake_i3_8121u(), governor_freq_ghz=3.1)
        turbo = TurboCC(system)
        report = turbo.transfer_bits(BITS)
        assert report.bits_received == BITS

    def test_silent_below_turbo(self):
        # The paper's critique: TurboCC only works at turbo frequencies.
        # At 2.2 GHz the license never binds, so both bit values look
        # identical and calibration collapses.
        system = System(cannon_lake_i3_8121u(), governor_freq_ghz=2.2)
        turbo = TurboCC(system)
        with pytest.raises(CalibrationError):
            turbo.calibrate()

    def test_orders_of_magnitude_slower_than_ichannels(self):
        system = System(cannon_lake_i3_8121u(), governor_freq_ghz=3.1)
        report = TurboCC(system).transfer_bits(BITS)
        assert report.throughput_bps < 100.0

    def test_needs_two_cores(self):
        single = cannon_lake_i3_8121u().with_overrides(n_cores=1)
        with pytest.raises(ConfigError):
            TurboCC(System(single))

    def test_same_core_rejected(self):
        with pytest.raises(ConfigError):
            TurboCC(System(cannon_lake_i3_8121u()), sender_core=0,
                    receiver_core=0)


class TestDFSCovert:
    def test_transfers_bits(self):
        system = System(cannon_lake_i3_8121u(), governor_freq_ghz=3.2)
        dfs = DFSCovert(system)
        report = dfs.transfer_bits(BITS)
        assert report.bits_received == BITS

    def test_slowest_of_the_baselines(self):
        system = System(cannon_lake_i3_8121u(), governor_freq_ghz=3.2)
        report = DFSCovert(system).transfer_bits(BITS)
        assert report.throughput_bps < 25.0

    def test_works_on_coffee_lake(self):
        system = System(coffee_lake_i7_9700k(), governor_freq_ghz=4.9)
        report = DFSCovert(system).transfer_bits([1, 0, 1])
        assert report.bits_received == [1, 0, 1]


class TestPowerT:
    def test_transfers_bits(self):
        system = System(cannon_lake_i3_8121u(), governor_freq_ghz=2.2)
        powert = PowerT(system)
        report = powert.transfer_bits(BITS)
        assert report.bits_received == BITS

    def test_throughput_near_reported_122bps(self):
        system = System(cannon_lake_i3_8121u(), governor_freq_ghz=2.2)
        report = PowerT(system).transfer_bits(BITS)
        assert 60.0 < report.throughput_bps < 130.0

    def test_controller_drops_frequency_over_budget(self):
        system = System(cannon_lake_i3_8121u(), governor_freq_ghz=2.2)
        controller = PowerBudgetController(system, pl1_watts=7.0)
        from repro.isa import IClass, Loop
        from repro.units import ms_to_ns, us_to_ns

        def burner():
            yield system.until(us_to_ns(10.0))
            for _ in range(40):
                yield system.execute(0, Loop(IClass.HEAVY_256, 800))

        system.spawn(controller.process(ms_to_ns(6.0)))
        system.spawn(burner())
        system.run_until(ms_to_ns(6.0))
        freqs = [v for _, v in system.freq_trace.breakpoints()]
        assert min(freqs) < 2.2

    def test_controller_validates_config(self):
        system = System(cannon_lake_i3_8121u())
        with pytest.raises(ConfigError):
            PowerBudgetController(system, pl1_watts=0.0)
        with pytest.raises(ConfigError):
            PowerBudgetController(system, pl1_watts=5.0, ewma_alpha=0.0)


class TestReport:
    def test_ber_counts_differences(self):
        from repro.core.baselines.base import BaselineReport

        report = BaselineReport("x", [1, 0, 1, 1], [1, 1, 1, 0],
                                start_ns=0.0, end_ns=1e9)
        assert report.bit_errors == 2
        assert report.ber == 0.5
        assert report.throughput_bps == pytest.approx(4.0)
