import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsim.seeker import (SeekerConfig, delay_step, lag_coefficients,
                          los_rate_channels)


class TestLosRateChannels:
    def test_vertical_crossing(self):
        # target climbing at 10 m/s at 1 km range dead ahead
        elev, az = los_rate_channels((1000.0, 0.0, 0.0), (0.0, 0.0, 10.0))
        assert elev == pytest.approx(0.01)
        assert az == pytest.approx(0.0)

    def test_horizontal_crossing(self):
        elev, az = los_rate_channels((1000.0, 0.0, 0.0), (0.0, 10.0, 0.0))
        assert elev == pytest.approx(0.0)
        assert az == pytest.approx(0.01)

    def test_pure_closing_has_no_rotation(self):
        elev, az = los_rate_channels((3000.0, 4000.0, 1000.0),
                                     (-300.0, -400.0, -100.0))
        assert elev == pytest.approx(0.0, abs=1e-15)
        assert az == pytest.approx(0.0, abs=1e-15)

    def test_zero_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            los_rate_channels((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))

    def test_vertical_los_uses_fallback_axis(self):
        elev, az = los_rate_channels((0.0, 0.0, 1000.0), (10.0, 0.0, 0.0))
        assert math.isfinite(elev) and math.isfinite(az)

    def test_descending_target_negative_elevation(self):
        elev, _ = los_rate_channels((1000.0, 0.0, 0.0), (0.0, 0.0, -10.0))
        assert elev == pytest.approx(-0.01)

    @given(yaw=st.floats(-math.pi, math.pi), r=st.floats(500.0, 20000.0),
           vz=st.floats(-50.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_elevation_invariant_under_azimuth_rotation(self, yaw, r, vz):
        # rotating the whole geometry about the vertical axis must not
        # change the elevation channel
        c, s = math.cos(yaw), math.sin(yaw)
        base, _ = los_rate_channels((r, 0.0, 0.0), (0.0, 0.0, vz))
        rot, _ = los_rate_channels((r * c, r * s, 0.0), (0.0, 0.0, vz))
        assert rot == pytest.approx(base, rel=1e-9, abs=1e-12)

    @given(scale=st.floats(0.1, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_rate_scales_inversely_with_range(self, scale):
        e1, a1 = los_rate_channels((2000.0, 500.0, 300.0), (-20.0, 30.0, 5.0))
        e2, a2 = los_rate_channels((2000.0 * scale, 500.0 * scale, 300.0 * scale),
                                   (-20.0, 30.0, 5.0))
        assert e2 == pytest.approx(e1 / scale, rel=1e-9, abs=1e-15)
        assert a2 == pytest.approx(a1 / scale, rel=1e-9, abs=1e-15)


class TestTrueLosRate:
    """The rate of the LOS between two points, from their states."""

    @staticmethod
    def los(m_pos, m_vel, t_pos, t_vel):
        return los_rate_channels(tuple(b - a for a, b in zip(m_pos, t_pos)),
                                 tuple(b - a for a, b in zip(m_vel, t_vel)))

    def test_relative_geometry(self):
        got = self.los((0.0, 0.0, 0.0), (100.0, 0.0, 0.0),
                       (1000.0, 0.0, 0.0), (100.0, 0.0, 10.0))
        assert got == pytest.approx((0.01, 0.0))

    def test_translation_invariance(self):
        m_pos, m_vel = (500.0, -200.0, 50.0), (150.0, 10.0, -5.0)
        t_pos, t_vel = (4000.0, 800.0, 1200.0), (-180.0, 20.0, 3.0)
        base = self.los(m_pos, m_vel, t_pos, t_vel)
        shift = (1234.0, -567.0, 89.0)
        moved = self.los(tuple(p + s for p, s in zip(m_pos, shift)), m_vel,
                         tuple(p + s for p, s in zip(t_pos, shift)), t_vel)
        assert moved == pytest.approx(base, rel=1e-12)


def run_lag(cfg, inputs, dt, delayed=(0.0, 0.0)):
    """Delayed rate after feeding each (pitch, yaw) sample for one step."""
    coeffs = lag_coefficients(dt, cfg)
    for rate in inputs:
        delayed = delay_step(delayed, rate, coeffs)
    return delayed


class TestDelayStep:
    def test_zero_lag_is_passthrough(self):
        cfg = SeekerConfig(lag_time_constant=0.0)
        assert run_lag(cfg, [(0.02, -0.01)], 0.001) == (0.02, -0.01)

    def test_exponential_step_response(self):
        tau = 0.2
        cfg = SeekerConfig(lag_time_constant=tau)
        dt = 0.001
        n = 200  # one time constant
        delayed = run_lag(cfg, [(1.0, -2.0)] * n, dt)
        want = 1.0 - math.exp(-n * dt / tau)
        assert delayed[0] == pytest.approx(want, rel=1e-12)
        assert delayed[1] == pytest.approx(-2.0 * want, rel=1e-12)

    def test_step_size_invariance(self):
        cfg = SeekerConfig(lag_time_constant=0.15)
        coarse = run_lag(cfg, [(1.0, 0.5)], 0.01)
        fine = run_lag(cfg, [(1.0, 0.5)] * 10, 0.001)
        assert fine == pytest.approx(coarse, rel=1e-12)

    def test_tracks_constant_input_exactly_in_limit(self):
        cfg = SeekerConfig(lag_time_constant=0.05)
        delayed = run_lag(cfg, [(0.03, 0.03)] * 2000, 0.001, delayed=(0.03, 0.03))
        assert delayed == pytest.approx((0.03, 0.03), rel=1e-12)

    def test_sine_gain_and_phase(self):
        # steady-state response of a first-order lag to sin(w t):
        # amplitude 1/sqrt(1+(w tau)^2), phase lag atan(w tau)
        tau, w, dt = 0.1, 3.0, 1e-4
        coeffs = lag_coefficients(dt, SeekerConfig(lag_time_constant=tau))
        delayed = (0.0, 0.0)
        out, ts = [], []
        n = int(20.0 / dt)
        for i in range(n):
            t_mid = i * dt  # input held over [t, t+dt)
            delayed = delay_step(delayed, (math.sin(w * t_mid), 0.0), coeffs)
            out.append(delayed[0])
            ts.append((i + 1) * dt)
        gain = 1.0 / math.sqrt(1.0 + (w * tau) ** 2)
        phase = math.atan(w * tau)
        # compare over the last few cycles
        tail = slice(n - int(4.0 / dt), n)
        for t, y in zip(ts[tail], out[tail]):
            assert y == pytest.approx(gain * math.sin(w * t - phase), abs=2e-3)
