"""Voltage-droop (di/dt) model: why the guardbands exist at all.

Section 2 of the paper: when load current steps up faster than the VR
can react, the load voltage dips by the step times the *transient*
impedance of the delivery path (load-line plus parasitic inductance);
decoupling capacitors filter only the shortest bursts (footnote 6).  If
the dip reaches below ``Vcc_min`` the core mis-operates — a *voltage
emergency*.

The current-management machinery exists precisely to make this
impossible: the PMU raises the rail by the prospective step's IR drop
*before* letting the instructions run at full rate, and throttles them
to a quarter rate in the meantime (quartering the current step).  The
simulator uses this model to *verify the negative*: with throttling
enabled no workload can cause an emergency, and with throttling ablated
(``SystemOptions.disable_throttling``) PHI bursts immediately do —
unless secure mode pre-applied the worst-case guardband.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class DroopSpec:
    """Transient response of the power-delivery path.

    Parameters
    ----------
    transient_impedance_mohm:
        Effective impedance a fast current step sees before the VR
        reacts (parasitic inductance + ESR), *on top of* the resistive
        load-line.  A few milliohm on client boards.
    filter_step_a:
        Steps smaller than this are absorbed by the decoupling
        capacitors and never reach the sense point (footnote 6).
    """

    transient_impedance_mohm: float = 2.5
    filter_step_a: float = 1.0

    def __post_init__(self) -> None:
        if self.transient_impedance_mohm < 0:
            raise ConfigError("transient impedance must be >= 0")
        if self.filter_step_a < 0:
            raise ConfigError("filter threshold must be >= 0")


@dataclass(frozen=True)
class DroopModel:
    """Evaluates load-voltage dips for current steps."""

    spec: DroopSpec
    r_ll_ohm: float

    def __post_init__(self) -> None:
        if self.r_ll_ohm <= 0:
            raise ConfigError(f"load-line must be positive, got {self.r_ll_ohm}")

    def load_voltage_min(self, rail_v: float, icc_before: float,
                         icc_after: float) -> float:
        """Minimum load voltage during a step from one current to another.

        Steady-state component: the new current across the load-line.
        Transient component: the step across the transient impedance,
        unless the decaps filter it.
        """
        if icc_before < 0 or icc_after < 0:
            raise ConfigError("currents must be >= 0")
        steady = rail_v - self.r_ll_ohm * icc_after
        step = icc_after - icc_before
        if step <= self.spec.filter_step_a:
            return steady
        transient = step * self.spec.transient_impedance_mohm / 1000.0
        return steady - transient

    def is_emergency(self, rail_v: float, icc_before: float,
                     icc_after: float, vcc_min: float) -> bool:
        """Whether the step dips the load below ``vcc_min``."""
        return self.load_voltage_min(rail_v, icc_before, icc_after) < vcc_min
