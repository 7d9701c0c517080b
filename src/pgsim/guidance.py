"""Proportional navigation with a selectable LOS-rate source and a
gain-plus-lag fin autopilot.

The LOS-rate source can be the exact rate, the lagged seeker output, or
the observer prediction; the predicted source is gated to the delayed
signal during an initial warm-up window while the observer converges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .airframe import Airframe, atmosphere

__all__ = [
    "GuidanceConfig",
    "AutopilotConfig",
    "pn_command",
    "select_source",
    "actuator_coefficients",
    "autopilot_step",
    "trim_deflection_gain",
]

SOURCES = ("true", "delayed", "predicted")
# the flight condition trim_deflection_gain trims at
TRIM_MACH = 1.5
TRIM_ALTITUDE = 1000.0  # m


@dataclass(frozen=True)
class GuidanceConfig:
    nav_ratio: float
    source: str
    warmup: float  # seconds of delayed-signal gating when source="predicted"


@dataclass(frozen=True)
class AutopilotConfig:
    actuator_time_constant: float
    deflection_limit: float           # rad
    accel_to_deflection_gain: float   # rad per (m/s^2), from trim at load


def pn_command(los_rate: tuple, vc: float, config: GuidanceConfig) -> tuple:
    """Lateral acceleration demand N * Vc * los_rate per channel."""
    n = config.nav_ratio
    return (n * vc * los_rate[0], n * vc * los_rate[1])


def select_source(t: float, config: GuidanceConfig, true_rate: tuple,
                  delayed_rate: tuple, predicted_rate: tuple) -> tuple:
    """Pick the LOS-rate signal fed to PN at time ``t``."""
    if config.source == "true":
        return true_rate
    if config.source == "delayed":
        return delayed_rate
    if t < config.warmup:
        return delayed_rate
    return predicted_rate


def actuator_coefficients(dt: float, ap: AutopilotConfig) -> tuple:
    """Per-step weights (a, b) of the exponential actuator update."""
    a = math.exp(-dt / ap.actuator_time_constant)
    return a, 1.0 - a


def autopilot_step(cmd: float, prev: float, gain: float, lim: float,
                   a: float, b: float) -> float:
    """Advance one fin channel's first-order actuator one step.

    The law is open loop: the deflection target is ``gain * cmd``,
    clamped to the travel ``lim``, and the fin approaches it with the
    exact exponential update whose weights ``(a, b)`` come from
    :func:`actuator_coefficients`.
    """
    target = gain * cmd
    # max(-lim, min(lim, target)), including its NaN handling
    if not target < lim:
        target = lim
    if not target > -lim:
        target = -lim
    return prev * a + target * b


def trim_deflection_gain(airframe: Airframe) -> float:
    """Deflection per unit lateral acceleration at a trimmed reference point:
    Mach :data:`TRIM_MACH` at :data:`TRIM_ALTITUDE`, half the propellant burnt.

    At trim the fin moment balances the incidence moment, so the steady
    incidence per deflection is -cm_delta/cm_alpha and the resulting
    acceleration fixes the inverse gain.
    """
    atm = atmosphere(TRIM_ALTITUDE)
    ref_mass = airframe.thrust.initial_mass - 0.5 * airframe.thrust.propellant_mass
    speed = TRIM_MACH * atm.speed_of_sound
    qbar = 0.5 * atm.density * speed * speed
    cn_alpha, _, cm_alpha, _, cn_delta, cm_delta = airframe.table.interpolate(TRIM_MACH)
    alpha_per_delta = -cm_delta / cm_alpha
    accel_per_delta = qbar * airframe.table.reference_area * (
        cn_alpha * alpha_per_delta + cn_delta) / ref_mass
    if accel_per_delta <= 0.0:
        raise ValueError("reference trim produces no usable acceleration")
    return 1.0 / accel_per_delta
