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

__all__ = ["TargetConfig", "ground_velocity", "target_state", "sample_phase"]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TargetConfig:
    kind: str                 # "level" or "weaving"
    initial_position: tuple   # m
    speed: float              # m/s horizontal, toward the launch site
    weave_amplitude: float    # m/s vertical velocity magnitude
    weave_frequency: float    # rad/s
    phase: float              # rad


def ground_velocity(config: TargetConfig) -> tuple:
    """Constant horizontal velocity (vx, vy), heading toward the launch
    site at the origin."""
    x0, y0, _ = config.initial_position
    rh = math.hypot(x0, y0)
    if rh > 0.0:
        return -config.speed * x0 / rh, -config.speed * y0 / rh
    return config.speed, 0.0


def target_state(t: float, config: TargetConfig, vx: float, vy: float) -> tuple:
    """Target position and vertical velocity ``(px, py, pz, vz)`` at
    ``t`` >= 0 (closed form) for the horizontal velocity ``(vx, vy)``
    from :func:`ground_velocity`."""
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
