"""RC thermal model: slow timescales validate 'not thermal' claims."""

import pytest

from repro.errors import ConfigError
from repro.pmu import ThermalModel, ThermalSpec
from repro.units import ms_to_ns, s_to_ns, us_to_ns


@pytest.fixture
def model():
    return ThermalModel(ThermalSpec(r_th_c_per_w=1.0, tau_s=2.0,
                                    t_ambient_c=45.0, tj_max_c=100.0))


class TestSpec:
    def test_rejects_nonpositive_resistance(self):
        with pytest.raises(ConfigError):
            ThermalSpec(r_th_c_per_w=0.0)

    def test_rejects_tjmax_below_ambient(self):
        with pytest.raises(ConfigError):
            ThermalSpec(t_ambient_c=50.0, tj_max_c=40.0)


class TestDynamics:
    def test_starts_at_ambient(self, model):
        assert model.read(0.0) == pytest.approx(45.0)

    def test_unset_sentinel_tolerates_float_noise(self):
        """The 'start at ambient' sentinel is epsilon-compared (exact
        equality on derived physics would hide float drift): a start
        temperature within 1e-12 of zero still means 'begin at ambient',
        while a genuine explicit start temperature is preserved."""
        spec = ThermalSpec(t_ambient_c=45.0, tj_max_c=100.0)
        noisy = ThermalModel(spec, temperature_c=1e-13)
        assert noisy.temperature_c == pytest.approx(45.0)
        explicit = ThermalModel(spec, temperature_c=60.0)
        assert explicit.temperature_c == pytest.approx(60.0)

    def test_approaches_steady_state(self, model):
        model.advance(0.0, 20.0)  # 20 W -> steady 65 C
        temp = model.advance(s_to_ns(20.0), 20.0)
        assert temp == pytest.approx(65.0, abs=0.1)

    def test_monotone_rise_under_constant_power(self, model):
        model.advance(0.0, 20.0)
        t1 = model.advance(s_to_ns(0.5), 20.0)
        t2 = model.advance(s_to_ns(1.0), 20.0)
        t3 = model.advance(s_to_ns(2.0), 20.0)
        assert 45.0 < t1 < t2 < t3 < 65.0

    def test_cools_when_power_removed(self, model):
        model.advance(0.0, 20.0)
        hot = model.advance(s_to_ns(10.0), 0.0)
        cooled = model.advance(s_to_ns(20.0), 0.0)
        assert cooled < hot

    def test_microsecond_workloads_barely_move_temperature(self, model):
        # Key Conclusion 2 hinges on this: over the tens-of-microseconds
        # current-management window, temperature moves by millidegrees.
        model.advance(0.0, 25.0)
        temp = model.advance(us_to_ns(50.0), 25.0)
        assert temp - 45.0 < 0.01

    def test_millisecond_workloads_still_far_from_tjmax(self, model):
        model.advance(0.0, 30.0)
        temp = model.advance(ms_to_ns(5.0), 30.0)
        assert temp < 46.0
        assert not model.is_throttling(ms_to_ns(5.0))

    def test_is_throttling_at_tjmax(self):
        spec = ThermalSpec(r_th_c_per_w=10.0, tau_s=0.001, t_ambient_c=45.0,
                           tj_max_c=100.0)
        model = ThermalModel(spec)
        model.advance(0.0, 50.0)  # steady 545 C, tau 1 ms
        assert model.is_throttling(ms_to_ns(20.0))

    def test_headroom(self, model):
        assert model.headroom_c(0.0) == pytest.approx(55.0)

    def test_rejects_time_going_backwards(self, model):
        model.advance(1000.0, 5.0)
        with pytest.raises(ConfigError):
            model.advance(500.0, 5.0)

    def test_rejects_negative_power(self, model):
        with pytest.raises(ConfigError):
            model.advance(0.0, -1.0)

    def test_read_mid_run_leaves_later_advances_bit_identical(self):
        """Reading the temperature commits nothing: a model read between
        power steps returns the same bits from every later advance as
        an untouched twin (a committed read would split the decay into
        two exponentials and drift at ULP level)."""
        spec = ThermalSpec(r_th_c_per_w=0.9, tau_s=4.0, t_ambient_c=45.0)
        read, untouched = ThermalModel(spec), ThermalModel(spec)
        steps = [(us_to_ns(37.0 * i), 3.0 + 7.3 * (i % 5)) for i in range(40)]
        for (t_ns, power_w), (t_next, _) in zip(steps, steps[1:]):
            assert read.advance(t_ns, power_w) == untouched.advance(t_ns, power_w)
            read.read(t_ns + (t_next - t_ns) / 3.0)
            read.is_throttling(t_next)
            read.headroom_c(t_next)
        assert read.advance(s_to_ns(1.0), 0.0) == untouched.advance(s_to_ns(1.0), 0.0)
        assert read.temperature_c == untouched.temperature_c
