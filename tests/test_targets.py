import math
import random

import pytest
from conftest import schema_config
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsim.targets import TWO_PI, derive_seed, ground_velocity, sample_phase, target_state


def state(t, cfg):
    """(position, velocity) of the target at ``t``."""
    vx, vy = ground_velocity(cfg)
    px, py, pz, vz = target_state(t, cfg, vx, vy)
    return (px, py, pz), (vx, vy, vz)


class TestLevelTarget:
    def test_flies_toward_origin(self):
        cfg = schema_config("target", kind="level",
                            initial_position=(10000.0, 0.0, 2000.0), speed=200.0)
        position, velocity = state(5.0, cfg)
        assert position == pytest.approx((9000.0, 0.0, 2000.0))
        assert velocity == (-200.0, 0.0, 0.0)

    def test_offset_launch_azimuth(self):
        cfg = schema_config("target", kind="level",
                            initial_position=(3000.0, 4000.0, 1500.0), speed=100.0)
        _, velocity = state(0.0, cfg)
        assert velocity == pytest.approx((-60.0, -80.0, 0.0))
        # velocity always points at the origin
        assert velocity[0] * 4000.0 == pytest.approx(velocity[1] * 3000.0)

    def test_altitude_constant(self):
        cfg = schema_config("target", kind="level",
                            initial_position=(8000.0, 0.0, 2000.0))
        for t in (0.0, 1.0, 10.0, 37.5):
            assert state(t, cfg)[0][2] == 2000.0


class TestWeavingTarget:
    def test_vertical_velocity_is_sinusoid(self):
        cfg = schema_config("target", kind="weaving", weave_amplitude=5.0,
                            weave_frequency=3.0, phase=0.7)
        for t in (0.0, 0.4, 1.3, 6.0):
            assert state(t, cfg)[1][2] == pytest.approx(5.0 * math.sin(3.0 * t + 0.7))

    def test_vertical_position_matches_quadrature(self):
        cfg = schema_config("target", kind="weaving",
                            initial_position=(8000.0, 0.0, 2000.0),
                            weave_amplitude=5.0, weave_frequency=3.0, phase=1.2)
        t_end = 4.321
        n = 200000
        dt = t_end / n
        z = 2000.0
        for i in range(n):
            tm = (i + 0.5) * dt
            z += 5.0 * math.sin(3.0 * tm + 1.2) * dt
        assert state(t_end, cfg)[0][2] == pytest.approx(z, abs=1e-6)

    def test_starts_at_initial_position(self):
        cfg = schema_config("target", kind="weaving",
                            initial_position=(8000.0, 0.0, 2000.0), phase=2.5)
        assert state(0.0, cfg)[0] == (8000.0, 0.0, 2000.0)

    def test_altitude_bounded_by_weave_envelope(self):
        cfg = schema_config("target", kind="weaving",
                            initial_position=(8000.0, 0.0, 2000.0),
                            weave_amplitude=5.0, weave_frequency=3.0, phase=0.3)
        bound = 2.0 * 5.0 / 3.0
        for i in range(500):
            z = state(i * 0.05, cfg)[0][2]
            assert abs(z - 2000.0) <= bound + 1e-9

    def test_zero_amplitude_degenerates_to_level(self):
        weave = schema_config("target", kind="weaving", weave_amplitude=0.0, phase=1.0)
        level = schema_config("target", kind="level")
        for t in (0.0, 2.0, 9.0):
            assert state(t, weave) == state(t, level)

    @given(t=st.floats(0.0, 60.0), phase=st.floats(0.0, TWO_PI))
    @settings(max_examples=100, deadline=None)
    def test_horizontal_track_unaffected_by_weave(self, t, phase):
        level = schema_config("target", kind="level")
        weave = schema_config("target", kind="weaving", phase=phase)
        (pa, va), (pb, vb) = state(t, level), state(t, weave)
        assert pa[:2] == pb[:2]
        assert va[:2] == vb[:2]


# masters of one to 35 uint32 words: edge widths, then seeded random widths
_widths = random.Random(21)
ORACLE_MASTERS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**100, 10**300] + [
    _widths.getrandbits(_widths.randint(1, 1100)) for _ in range(8)]
ORACLE_SAMPLES = list(range(30)) + [2**32 + 3, 10**12]
# chi-squared with 15 degrees of freedom exceeds this with probability 0.001
CHI2_15_999 = 37.70


class TestSeeding:
    def test_phase_deterministic(self):
        assert sample_phase(42) == sample_phase(42)

    def test_phase_in_range(self):
        for seed in range(100):
            p = sample_phase(seed)
            assert 0.0 <= p < TWO_PI

    def test_distinct_seeds_distinct_phases(self):
        phases = {sample_phase(s) for s in range(50)}
        assert len(phases) == 50

    def test_phase_uniform_chi_squared(self):
        n, bins = 4000, 16
        counts = [0] * bins
        for k in range(n):
            counts[int(sample_phase(derive_seed(2024, k)) / TWO_PI * bins)] += 1
        expected = n / bins
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < CHI2_15_999

    def test_derived_seeds_deterministic_and_order_free(self):
        forward = [derive_seed(12345, i) for i in range(20)]
        backward = [derive_seed(12345, i) for i in reversed(range(20))]
        assert forward == list(reversed(backward))

    def test_derived_seeds_unique(self):
        seeds = {derive_seed(12345, i) for i in range(500)}
        assert len(seeds) == 500

    def test_derived_seeds_differ_by_master(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    @pytest.mark.parametrize("master", ORACLE_MASTERS)
    def test_derived_seed_is_64_bit(self, master):
        for sample in ORACLE_SAMPLES:
            assert 0 <= derive_seed(master, sample) < 2**64

    @pytest.mark.parametrize("draw, args", [
        (derive_seed, (-1, 0)), (derive_seed, (0, -1)), (derive_seed, (-2**70, 3)),
        (sample_phase, (-1,)),
    ], ids=["master", "sample", "wide-master", "seed"])
    def test_negative_raises(self, draw, args):
        with pytest.raises(ValueError, match="must be >= 0"):
            draw(*args)
