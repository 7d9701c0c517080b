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
    "closing_velocity",
    "pn_command",
    "select_source",
    "autopilot_step",
    "trim_deflection_gain",
]

SOURCES = ("true", "delayed", "predicted")


@dataclass(frozen=True)
class GuidanceConfig:
    nav_ratio: float = 4.0
    source: str = "true"
    warmup: float = 2.0  # seconds of delayed-signal gating when source="predicted"

    def __post_init__(self):
        if not self.nav_ratio > 0.0:
            raise ValueError("nav_ratio must be positive")
        if self.source not in SOURCES:
            raise ValueError("source must be one of %s" % (SOURCES,))
        if self.warmup < 0.0:
            raise ValueError("warmup must be >= 0")


@dataclass(frozen=True)
class AutopilotConfig:
    actuator_time_constant: float = 0.02
    deflection_limit: float = 0.52          # rad, ~30 deg
    accel_to_deflection_gain: float = 1e-3  # rad per (m/s^2), from trim at load

    def __post_init__(self):
        if not (self.actuator_time_constant > 0.0 and self.deflection_limit > 0.0
                and self.accel_to_deflection_gain > 0.0):
            raise ValueError("autopilot parameters must be positive")


def closing_velocity(missile, target) -> float:
    """Range rate with the PN sign convention: positive when closing."""
    mp, mv = missile.position, missile.velocity
    tp, tv = target.position, target.velocity
    rx, ry, rz = tp[0] - mp[0], tp[1] - mp[1], tp[2] - mp[2]
    r = math.sqrt(rx * rx + ry * ry + rz * rz)
    if r <= 0.0:
        raise ValueError("zero range: closing velocity is undefined")
    vx, vy, vz = tv[0] - mv[0], tv[1] - mv[1], tv[2] - mv[2]
    return -(rx * vx + ry * vy + rz * vz) / r


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


def autopilot_step(cmd_accel: tuple, achieved_accel: tuple, prev_deflection: tuple,
                   dt: float, ap: AutopilotConfig) -> tuple:
    """First-order actuator tracking the trim deflection for the command.

    ``achieved_accel`` is recorded for diagnostics but the law itself is
    open loop: deflection target = gain * command, clamped to the travel
    limit, approached with the exact exponential lag update.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    a, b = actuator_coefficients(dt, ap)
    gain, lim = ap.accel_to_deflection_gain, ap.deflection_limit
    return tuple(fin_step(cmd, prev, gain, lim, a, b)
                 for cmd, prev in zip(cmd_accel, prev_deflection))


def actuator_coefficients(dt: float, ap: AutopilotConfig) -> tuple:
    """Per-step weights (a, b) of the exponential actuator update."""
    a = math.exp(-dt / ap.actuator_time_constant)
    return a, 1.0 - a


def fin_step(cmd: float, prev: float, gain: float, lim: float,
             a: float, b: float) -> float:
    """One unchecked actuator update of one channel; the float-level core
    of :func:`autopilot_step`."""
    target = gain * cmd
    # max(-lim, min(lim, target)), including its NaN handling
    if not target < lim:
        target = lim
    if not target > -lim:
        target = -lim
    return prev * a + target * b


def trim_deflection_gain(airframe: Airframe, ref_mach: float = 1.5,
                         ref_altitude: float = 1000.0,
                         ref_mass: float | None = None) -> float:
    """Deflection per unit lateral acceleration at a trimmed reference point.

    At trim the fin moment balances the incidence moment, so the steady
    incidence per deflection is -cm_delta/cm_alpha and the resulting
    acceleration fixes the inverse gain.
    """
    atm = atmosphere(ref_altitude)
    if ref_mass is None:
        ref_mass = airframe.thrust.initial_mass - 0.5 * airframe.thrust.propellant_mass
    speed = ref_mach * atm.speed_of_sound
    qbar = 0.5 * atm.density * speed * speed
    cn_alpha, _, cm_alpha, _, cn_delta, cm_delta = airframe.table.interpolate(ref_mach)
    alpha_per_delta = -cm_delta / cm_alpha
    accel_per_delta = qbar * airframe.table.reference_area * (
        cn_alpha * alpha_per_delta + cn_delta) / ref_mass
    if accel_per_delta <= 0.0:
        raise ValueError("reference trim produces no usable acceleration")
    return 1.0 / accel_per_delta
