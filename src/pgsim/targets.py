"""Kinematic target models.

Two kinds: constant-velocity level flight toward the launch site, and
the same track with a sinusoidal vertical velocity whose phase is drawn
per engagement.  The vertical position uses the analytic integral of the
weave so there is no numeric drift.

The phase comes from Python's Mersenne Twister (``random.Random``), whose
sequence per seed Python keeps across releases.  It loads neither
``numpy.random`` nor OpenSSL's ``_hashlib`` (a string seed uses ``_sha512``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = ["TargetConfig", "ground_velocity", "target_state", "sample_phase",
           "derive_seed"]

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
    """Deterministic uniform phase on [0, 2*pi): the first ``random()``
    of a Mersenne Twister seeded with ``rng_seed`` >= 0."""
    if rng_seed < 0:  # Random(-n) would repeat Random(n)
        raise ValueError("seed must be >= 0, got %d" % rng_seed)
    return TWO_PI * random.Random(rng_seed).random()


def derive_seed(master_seed: int, sample_index: int) -> int:
    """Stable 64-bit per-sample seed, so runs are order independent: the
    first 64 bits of a Mersenne Twister seeded with the string
    ``"<master_seed>/<sample_index>"``, both >= 0."""
    if master_seed < 0 or sample_index < 0:
        raise ValueError("master seed and sample index must be >= 0, got %d, %d"
                         % (master_seed, sample_index))
    return random.Random("%d/%d" % (master_seed, sample_index)).getrandbits(64)
