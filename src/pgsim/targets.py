"""Kinematic target models.

Two kinds: constant-velocity level flight toward the launch site, and
the same track with a sinusoidal vertical velocity whose phase is drawn
per engagement.  The vertical position uses the analytic integral of the
weave so there is no numeric drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TargetConfig", "TargetState", "target_state", "sample_phase"]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TargetConfig:
    kind: str = "level"                      # "level" or "weaving"
    initial_position: tuple = (10000.0, 0.0, 2000.0)
    speed: float = 200.0                     # m/s horizontal, toward the launch site
    weave_amplitude: float = 5.0             # m/s vertical velocity magnitude
    weave_frequency: float = 3.0             # rad/s
    phase: float = 0.0                       # rad

    def __post_init__(self):
        if self.kind not in ("level", "weaving"):
            raise ValueError("target kind must be 'level' or 'weaving'")
        if not self.speed > 0.0:
            raise ValueError("target speed must be positive")
        if self.weave_amplitude < 0.0:
            raise ValueError("weave amplitude must be >= 0")
        if self.kind == "weaving" and not self.weave_frequency > 0.0:
            raise ValueError("weave frequency must be positive")


@dataclass(frozen=True)
class TargetState:
    position: tuple
    velocity: tuple


def target_state(t: float, config: TargetConfig) -> TargetState:
    """Target position and velocity at time ``t`` (closed form)."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    vx, vy = ground_velocity(config)
    px, py, pz, vz = kinematics(t, config, vx, vy)
    return TargetState(position=(px, py, pz), velocity=(vx, vy, vz))


def ground_velocity(config: TargetConfig) -> tuple:
    """Constant horizontal velocity (vx, vy), heading toward the launch
    site at the origin."""
    x0, y0, _ = config.initial_position
    rh = math.hypot(x0, y0)
    if rh > 0.0:
        return -config.speed * x0 / rh, -config.speed * y0 / rh
    return config.speed, 0.0


def kinematics(t: float, config: TargetConfig, vx: float, vy: float) -> tuple:
    """(px, py, pz, vz) at ``t`` >= 0 for the horizontal velocity
    ``(vx, vy)`` from :func:`ground_velocity`; the unchecked float-level
    core of :func:`target_state`."""
    x0, y0, z0 = config.initial_position
    px = x0 + vx * t
    py = y0 + vy * t
    if config.kind == "level" or config.weave_amplitude == 0.0:
        return px, py, z0, 0.0
    a, w, ph = config.weave_amplitude, config.weave_frequency, config.phase
    vz = a * math.sin(w * t + ph)
    pz = z0 + (a / w) * (math.cos(ph) - math.cos(w * t + ph))
    return px, py, pz, vz


def sample_phase(rng_seed: int) -> float:
    """Deterministic uniform phase on [0, 2*pi) from a PCG64 stream."""
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed)))
    return float(gen.uniform(0.0, TWO_PI))


def derive_seed(master_seed: int, sample_index: int) -> int:
    """Stable per-sample seed so runs are order independent."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(sample_index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
