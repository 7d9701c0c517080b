"""Ideal LOS-rate measurement degraded by a first-order lag.

The true LOS rate comes straight from the exact missile and target
states; the seeker hardware delay is modelled as a first-order filter
applied per channel with an exact exponential discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["SeekerConfig", "los_rate_channels", "lag_coefficients", "delay_step"]


@dataclass(frozen=True)
class SeekerConfig:
    lag_time_constant: float  # seconds; 0 means an ideal seeker


def los_rate_channels(rel_pos: tuple, rel_vel: tuple) -> tuple:
    """(elevation, azimuth) components of the LOS angular velocity.

    omega = (R x Rdot) / |R|^2; the elevation channel is the component
    about the horizontal axis transverse to the LOS, the azimuth channel
    the component about the vertical axis.
    """
    rx, ry, rz = rel_pos
    vx, vy, vz = rel_vel
    r2 = rx * rx + ry * ry + rz * rz
    if r2 <= 0.0:
        raise ValueError("zero range: LOS rate is undefined")
    wx = (ry * vz - rz * vy) / r2
    wy = (rz * vx - rx * vz) / r2
    wz = (rx * vy - ry * vx) / r2
    rh = math.hypot(rx, ry)
    if rh <= 0.0:
        # LOS straight up/down: elevation axis is degenerate, use north
        h = (0.0, 1.0, 0.0)
    else:
        h = (-ry / rh, rx / rh, 0.0)
    # h = z_hat x r_hat; positive elevation rate lifts the LOS
    elevation = -(wx * h[0] + wy * h[1] + wz * h[2])
    return (elevation, wz)


def lag_coefficients(dt: float, config: SeekerConfig):
    """Per-step weights (a, b) of the lag update, or None for an ideal
    seeker, which passes the true rate through."""
    tau = config.lag_time_constant
    if tau == 0.0:
        return None
    a = math.exp(-dt / tau)
    return a, 1.0 - a


def delay_step(delayed_rate: tuple, true_rate: tuple, coefficients) -> tuple:
    """Advance the (pitch, yaw) lag filter one step with the weights from
    :func:`lag_coefficients`.

    The exponential update is the exact solution of the first-order ODE
    for piecewise-constant input, so composing steps is step-size
    invariant.
    """
    if coefficients is None:
        return true_rate
    a, b = coefficients
    return (delayed_rate[0] * a + true_rate[0] * b,
            delayed_rate[1] * a + true_rate[1] * b)
