"""Kinematic target models.

Two kinds: constant-velocity level flight toward the launch site, and
the same track with a sinusoidal vertical velocity whose phase is drawn
per engagement.  The vertical position uses the analytic integral of the
weave so there is no numeric drift.

The phase is the first draw of numpy's ``SeedSequence`` -> ``PCG64``
stream (O'Neill's 128-bit XSL-RR generator), computed with Python
integers so that no run loads ``numpy.random``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["TargetConfig", "ground_velocity", "target_state", "sample_phase",
           "derive_seed"]

TWO_PI = 2.0 * math.pi

M32 = 0xFFFFFFFF
M64 = (1 << 64) - 1
M128 = (1 << 128) - 1
# numpy's SeedSequence constants (pool of 4 uint32 words) and PCG64's
# 128-bit LCG multiplier; NEP 19 keeps both streams fixed across releases.
MULT_A, MULT_B = 0x931E8875, 0x58F38DED
MIX_L, MIX_R = 0xCA01F9DD, 0x4973F715
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, n: int) -> tuple:
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & M32)
    return tuple(out)


# The hash constant runs through a fixed sequence, whatever the entropy:
# 16 mixes fill and cross-mix the pool, 8 words make 4 uint64 of state.
HASH_A = _hash_constants(0x43B0D7E5, MULT_A, 16)
HASH_B = _hash_constants(0x8B51F9DD, MULT_B, 8)
# (source word, destination word, xor constant, multiplier) of the 12 mixes
# that let every pool word reach every other.
CROSS_MIX = tuple(
    (s, d, HASH_A[k], HASH_A[k + 1]) for k, (s, d) in
    enumerate([(s, d) for s in range(4) for d in range(4) if s != d], 4))


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


def _words(n: int) -> list:
    """``n`` as little-endian uint32 words, as numpy reads an int entropy."""
    if n < 0:
        raise ValueError("seed entropy must be >= 0, got %d" % n)
    words = [n & M32]
    n >>= 32
    while n:
        words.append(n & M32)
        n >>= 32
    return words


def _seed_state(entropy: list, n64: int) -> list:
    """``SeedSequence(entropy).generate_state(n64, np.uint64)``, for
    ``entropy`` already assembled into uint32 words."""
    a, m, ml, mr = HASH_A, M32, MIX_L, MIX_R
    pool = []
    for i in range(4):
        v = ((entropy[i] if i < len(entropy) else 0) ^ a[i]) * a[i + 1] & m
        pool.append(v ^ v >> 16)
    for s, d, c0, c1 in CROSS_MIX:
        h = (pool[s] ^ c0) * c1 & m
        r = (ml * pool[d] - mr * (h ^ h >> 16)) & m
        pool[d] = r ^ r >> 16
    c = a[16]
    for w in entropy[4:]:
        for d in range(4):
            h = w ^ c
            c = c * MULT_A & m
            h = h * c & m
            r = (ml * pool[d] - mr * (h ^ h >> 16)) & m
            pool[d] = r ^ r >> 16
    b = HASH_B
    out = []
    for i in range(2 * n64):
        v = (pool[i & 3] ^ b[i]) * b[i + 1] & m
        out.append(v ^ v >> 16)
    return [out[j] | out[j + 1] << 32 for j in range(0, 2 * n64, 2)]


def sample_phase(rng_seed: int) -> float:
    """Deterministic uniform phase on [0, 2*pi): the first
    ``Generator(PCG64(rng_seed)).uniform(0, 2*pi)`` of numpy's stream,
    computed without ``numpy.random``."""
    s0, s1, i0, i1 = _seed_state(_words(rng_seed), 4)
    inc = ((i0 << 64 | i1) << 1 | 1) & M128
    # srandom: step from state 0, add the seed, step again
    state = (inc + (s0 << 64 | s1)) * PCG_MULT + inc & M128
    state = state * PCG_MULT + inc & M128
    x, rot = (state >> 64 ^ state) & M64, state >> 122
    out = (x >> rot | x << (64 - rot)) & M64  # XSL-RR output
    return 0.0 + TWO_PI * ((out >> 11) * 2.0 ** -53)


def derive_seed(master_seed: int, sample_index: int) -> int:
    """Stable per-sample seed so runs are order independent: numpy's
    ``SeedSequence(master_seed, spawn_key=(sample_index,))`` first
    uint64 word."""
    entropy = _words(master_seed)
    entropy += [0] * (4 - len(entropy)) + _words(sample_index)
    return _seed_state(entropy, 1)[0]
