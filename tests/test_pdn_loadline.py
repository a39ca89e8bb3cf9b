"""Load-line model."""

import pytest

from repro.errors import ConfigError
from repro.pdn import LoadLine


@pytest.fixture
def loadline():
    return LoadLine(0.0018)  # 1.8 mOhm, the calibrated client value


class TestLoadLine:
    def test_vcc_load_drops_with_current(self, loadline):
        assert loadline.vcc_load(1.0, 10.0) == pytest.approx(1.0 - 0.018)

    def test_vcc_load_at_zero_current_is_vr_output(self, loadline):
        assert loadline.vcc_load(0.8, 0.0) == pytest.approx(0.8)

    def test_droop_linear_in_current(self, loadline):
        assert loadline.droop(20.0) == pytest.approx(2 * loadline.droop(10.0))

    def test_required_vcc_covers_worst_case(self, loadline):
        vcc = loadline.required_vcc(vcc_min=0.65, icc_worst=30.0)
        assert loadline.vcc_load(vcc, 30.0) == pytest.approx(0.65)

    def test_guardband_delta_is_eq1(self, loadline):
        # dV = (Icc2 - Icc1) * R_LL  (Equation 1 of the paper)
        assert loadline.guardband_delta(10.0, 20.0) == pytest.approx(0.018)

    def test_guardband_delta_negative_when_current_drops(self, loadline):
        assert loadline.guardband_delta(20.0, 10.0) < 0

    def test_excess_voltage_zero_at_virus_current(self, loadline):
        assert loadline.excess_voltage(1.0, 30.0, 30.0) == pytest.approx(0.0)

    def test_excess_voltage_grows_as_load_lightens(self, loadline):
        light = loadline.excess_voltage(1.0, 5.0, 30.0)
        heavy = loadline.excess_voltage(1.0, 25.0, 30.0)
        assert light > heavy

    def test_excess_voltage_rejects_current_above_virus(self, loadline):
        with pytest.raises(ConfigError):
            loadline.excess_voltage(1.0, 40.0, 30.0)

    def test_negative_current_rejected(self, loadline):
        with pytest.raises(ConfigError):
            loadline.vcc_load(1.0, -1.0)
        with pytest.raises(ConfigError):
            loadline.droop(-1.0)

    def test_nonpositive_impedance_rejected(self):
        with pytest.raises(ConfigError):
            LoadLine(0.0)
        with pytest.raises(ConfigError):
            LoadLine(-0.001)

    def test_paper_figure6_step_size(self, loadline):
        # One core switching scalar -> AVX2-heavy at 2 GHz / 0.788 V:
        # dIcc = (6.0 - 3.0) nF * 0.788 V * 2 GHz = 4.73 A -> ~8.5 mV.
        d_icc = (6.0 - 3.0) * 0.788 * 2.0
        assert loadline.droop(d_icc) * 1000 == pytest.approx(8.5, abs=0.2)
