"""Electrical loop/slot sizing rules of the channel base class."""

import pytest

from repro import System
from repro.errors import ProtocolError
from repro.core import (
    ChannelConfig,
    FiveLevelThreadChannel,
    IccCoresCovert,
    IccSMTcovert,
    IccThreadCovert,
)
from repro.core.baselines import NetSpectreGadget
from repro.soc.config import (
    cannon_lake_i3_8121u,
    sandy_bridge_i7_2600k,
    skylake_sp_xeon_8160,
)
from repro.units import us_to_ns


def wall_ns(loop, freq):
    """Unthrottled wall time of a loop."""
    return loop.total_instructions / (loop.iclass.ipc * freq)


class TestConstantDurationSenders:
    @pytest.mark.parametrize("factory", [
        cannon_lake_i3_8121u, sandy_bridge_i7_2600k, skylake_sp_xeon_8160,
    ])
    def test_sender_walls_equal_across_symbols(self, factory):
        # Rule: the only observable difference between symbols must be
        # the throttling, never the loop length.
        config = factory()
        system = System(config, governor_freq_ghz=config.base_freq_ghz)
        channel = IccThreadCovert(system)
        walls = [wall_ns(channel.sender_loop(s), config.base_freq_ghz)
                 for s in range(4)]
        for wall in walls[1:]:
            assert wall == pytest.approx(walls[0], rel=0.02)


class TestSenderOutlastsItsTransition:
    @pytest.mark.parametrize("factory", [
        cannon_lake_i3_8121u, sandy_bridge_i7_2600k, skylake_sp_xeon_8160,
    ])
    def test_throttled_sender_spans_its_tp(self, factory):
        # Rule 1 of docs/PROTOCOL.md: the grant must land mid-loop.
        config = factory()
        system = System(config, governor_freq_ghz=config.base_freq_ghz)
        channel = IccThreadCovert(system)
        for symbol in range(4):
            loop = channel.sender_loop(symbol)
            iclass = channel.symbol_class(symbol)
            throttled_wall = 4.0 * wall_ns(loop, config.base_freq_ghz)
            worst_dv = max(channel._sender_dv(c)
                           for c in channel.symbol_classes.values())
            tp = channel._tp_estimate_ns(channel._sender_dv(iclass))
            assert throttled_wall >= tp, (factory.__name__, symbol)
            del worst_dv


class TestProbeOutlastsTheWorstTP:
    @pytest.mark.parametrize("channel_cls", [
        IccThreadCovert, IccSMTcovert, IccCoresCovert,
    ])
    def test_probe_duration_covers_worst_case(self, channel_cls):
        from repro.core.levels import ChannelLocation

        config = cannon_lake_i3_8121u()
        system = System(config)
        channel = channel_cls(system)
        probe = channel.probe_loop()
        throttled_wall = 4.0 * wall_ns(probe, config.base_freq_ghz)
        worst_sender_dv = max(channel._sender_dv(c)
                              for c in channel.symbol_classes.values())
        probe_dv = channel._sender_dv(channel.probe_class)
        # The worst TP the probe must span depends on its placement
        # (docs/PROTOCOL.md rule 3).
        if channel.location == ChannelLocation.SAME_THREAD:
            worst_dv = probe_dv
        elif channel.location == ChannelLocation.ACROSS_SMT:
            worst_dv = worst_sender_dv
        else:
            worst_dv = worst_sender_dv + probe_dv
        worst_tp = channel._tp_estimate_ns(worst_dv)
        assert throttled_wall >= worst_tp


def _smt(jitter_us):
    channel = IccSMTcovert(System(cannon_lake_i3_8121u()),
                           ChannelConfig(slot_jitter_us=jitter_us))
    assert channel.config.slot_us == 750.0
    return channel


class TestSlotSizing:
    def test_slot_covers_reset_plus_send_window(self):
        system = System(cannon_lake_i3_8121u())
        channel = IccThreadCovert(system)
        assert channel.slot_ns >= us_to_ns(
            system.config.reset_time_us)

    def test_slot_grows_with_reset_time(self):
        long_reset = cannon_lake_i3_8121u().with_overrides(
            reset_time_us=2000.0)
        system = System(long_reset)
        channel = IccThreadCovert(system)
        assert channel.slot_ns >= us_to_ns(2000.0)

    def test_slot_grows_with_slower_slew(self):
        slow = cannon_lake_i3_8121u().with_overrides(vr_slew_mv_per_us=0.2)
        fast = cannon_lake_i3_8121u()
        slow_slot = IccThreadCovert(System(slow)).slot_ns
        fast_slot = IccThreadCovert(System(fast)).slot_ns
        assert slow_slot > fast_slot

    @pytest.mark.parametrize("make, run, slot_us", [
        pytest.param(lambda: _smt(0.0), lambda c: c.run_symbols([0, 3]),
                     795.47, id="0.0-795.47"),
        pytest.param(lambda: _smt(40.0), lambda c: c.run_symbols([0, 3]),
                     835.47, id="40.0-835.47"),
        pytest.param(lambda: NetSpectreGadget(
            System(cannon_lake_i3_8121u()), slot_us=800.0, training_rounds=1),
            lambda c: c.transfer_bits([1, 0]), 800.0, id="netspectre"),
        pytest.param(lambda: FiveLevelThreadChannel(
            System(cannon_lake_i3_8121u()), ChannelConfig(slot_us=900.0)),
            lambda c: c._run_digits([0, 4]), 900.0, id="five_level"),
    ])
    def test_missing_measurement_reports_the_slot_actually_used(
            self, monkeypatch, make, run, slot_us):
        # The adaptive slot (plus any jitter) outgrows the configured
        # 750 us; every channel's error must name the missed slots and
        # the slot the schedule ran.
        channel = make()
        monkeypatch.setattr(channel, "_spawn_transaction_programs",
                            lambda *args: None)
        with pytest.raises(ProtocolError, match=(
                rf"no measurement for slots \[0, 1\]; "
                rf"slot length {slot_us:.2f} us may be too short")):
            run(channel)

    def test_slow_slew_channel_still_works_end_to_end(self):
        # The whole point of adaptive sizing: no retuning needed.
        slow = cannon_lake_i3_8121u().with_overrides(vr_slew_mv_per_us=0.4)
        system = System(slow)
        report = IccThreadCovert(system).transfer(b"\x6b\x2e")
        assert report.received == b"\x6b\x2e"
        assert report.ber == 0.0
