"""Voltage-droop model and the throttling-ablation emergencies."""

import pytest

from repro import IClass, Loop, System, SystemOptions
from repro.errors import ConfigError
from repro.pdn.droop import DroopModel, DroopSpec
from repro.soc.config import cannon_lake_i3_8121u, coffee_lake_i7_9700k
from repro.units import us_to_ns


class TestDroopModel:
    @pytest.fixture
    def model(self):
        return DroopModel(DroopSpec(transient_impedance_mohm=2.5,
                                    filter_step_a=1.0), r_ll_ohm=0.0018)

    def test_steady_state_is_loadline_drop(self, model):
        # No step: only the IR drop at the final current.
        v = model.load_voltage_min(1.0, 10.0, 10.0)
        assert v == pytest.approx(1.0 - 0.018)

    def test_small_steps_filtered_by_decaps(self, model):
        with_step = model.load_voltage_min(1.0, 10.0, 10.9)
        assert with_step == pytest.approx(1.0 - 0.0018 * 10.9)

    def test_large_steps_add_transient_dip(self, model):
        v = model.load_voltage_min(1.0, 10.0, 20.0)
        steady = 1.0 - 0.0018 * 20.0
        assert v == pytest.approx(steady - 10.0 * 0.0025)

    def test_bigger_step_dips_deeper(self, model):
        small = model.load_voltage_min(1.0, 10.0, 15.0)
        large = model.load_voltage_min(1.0, 10.0, 30.0)
        assert large < small

    def test_is_emergency_threshold(self, model):
        assert model.is_emergency(1.0, 0.0, 40.0, vcc_min=0.95)
        assert not model.is_emergency(1.0, 0.0, 2.0, vcc_min=0.95)

    def test_validation(self, model):
        with pytest.raises(ConfigError):
            DroopModel(DroopSpec(), r_ll_ohm=0.0)
        with pytest.raises(ConfigError):
            DroopSpec(transient_impedance_mohm=-1.0)
        with pytest.raises(ConfigError):
            model.load_voltage_min(1.0, -1.0, 2.0)


def run_phi(options, config=None, iclass=IClass.HEAVY_512):
    system = System(config or cannon_lake_i3_8121u(), options=options)
    sink = []

    def program():
        yield system.until(us_to_ns(5.0))
        sink.append((yield system.execute(0, Loop(iclass, 40))))

    system.spawn(program())
    system.run_until(us_to_ns(500.0))
    return system, sink[0]


class TestVoltageEmergencies:
    """Key Conclusion 1, validated by ablation."""

    def test_normal_operation_never_trips_vcc_min(self):
        # With throttling active the current step is quartered and the
        # rail catches up: no workload causes an emergency.
        system, result = run_phi(SystemOptions())
        assert result.throttled_ns > 0
        assert system.voltage_emergencies == []

    def test_disabling_throttling_causes_emergencies(self):
        system, result = run_phi(SystemOptions(disable_throttling=True))
        assert result.throttled_ns == 0.0
        assert len(system.voltage_emergencies) >= 1
        _, core, load_min, vcc_min = system.voltage_emergencies[0]
        assert core == 0
        assert load_min < vcc_min

    def test_secure_mode_survives_without_throttling(self):
        # Secure mode pre-applies the worst-case guardband, so even with
        # the throttle ablated no PHI outruns the rail.
        system, _ = run_phi(SystemOptions(secure_mode=True,
                                          disable_throttling=True))
        assert system.voltage_emergencies == []

    def test_scalar_code_never_trips_even_unthrottled(self):
        system, _ = run_phi(SystemOptions(disable_throttling=True),
                            iclass=IClass.SCALAR_64)
        assert system.voltage_emergencies == []

    def test_desktop_avx2_trips_without_throttle(self):
        config = coffee_lake_i7_9700k()
        system, _ = run_phi(SystemOptions(disable_throttling=True),
                            config=config, iclass=IClass.HEAVY_256)
        assert len(system.voltage_emergencies) >= 1

    def test_emergency_recorded_once_per_burst(self):
        system, _ = run_phi(SystemOptions(disable_throttling=True))
        assert len(system.voltage_emergencies) == 1
