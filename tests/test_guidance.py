import math
from importlib import resources

import numpy as np
import pytest
from conftest import engagement_config, schema_config
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsim import airframe as af
from pgsim import engagement as en
from pgsim.guidance import (AutopilotConfig, actuator_coefficients, autopilot_step,
                            pn_command, select_source, trim_deflection_gain)


def step(cmd, defl, dt, ap):
    """Both fin channels advanced one step."""
    a, b = actuator_coefficients(dt, ap)
    gain, lim = ap.accel_to_deflection_gain, ap.deflection_limit
    return tuple(autopilot_step(c, d, gain, lim, a, b) for c, d in zip(cmd, defl))


class TestClosingVelocity:
    def test_head_on(self):
        # oracle on a recorded engagement: the command is N * Vc * lambda
        # of the selected source, with Vc = -(r . rdot) / |r| from the
        # recorded relative state, positive while the range closes
        eng = engagement_config({"guidance.source": "predicted",
                                 "seeker.lag_time_constant": 0.2})
        record = en.run_engagement(eng)
        s = record.series
        r = np.column_stack([s["tx"] - s["mx"], s["ty"] - s["my"], s["tz"] - s["mz"]])
        rdot = record.target_velocity - record.missile_velocity
        vc = -np.sum(r * rdot, axis=1) / np.linalg.norm(r, axis=1)
        warm = s["t"] < eng.guidance.warmup
        n = eng.guidance.nav_ratio
        for ch in ("p", "y"):
            lam = np.where(warm, s["lam_del_" + ch], s["lam_pred_" + ch])
            assert s["acc_cmd_" + ch] == pytest.approx(n * vc * lam, rel=1e-12, abs=1e-12)
        closest = int(np.argmin(s["range"]))
        assert np.all(vc[:closest] > 0.0)
        assert np.all(vc[closest + 1:] < 0.0)
        # launch instant, target on the x-z plane: closed form
        x0, _, z0 = eng.target.initial_position
        vl, el = eng.launch_speed, eng.launch_elevation
        want = (x0 * (eng.target.speed + vl * math.cos(el))
                + z0 * vl * math.sin(el)) / math.hypot(x0, z0)
        assert vc[0] == pytest.approx(want, rel=1e-12)


class TestPnCommand:
    def test_scaling(self):
        cfg = schema_config("guidance", nav_ratio=4.0)
        cmd = pn_command((0.01, -0.005), 500.0, cfg)
        assert cmd == pytest.approx((20.0, -10.0))

    def test_zero_rate_gives_zero_command(self):
        cfg = schema_config("guidance", nav_ratio=3.5)
        assert pn_command((0.0, 0.0), 800.0, cfg) == (0.0, 0.0)

    @given(n=st.floats(1.0, 8.0), vc=st.floats(-100.0, 1000.0),
           wp=st.floats(-0.1, 0.1), wy=st.floats(-0.1, 0.1))
    @settings(max_examples=100, deadline=None)
    def test_linear_in_each_factor(self, n, vc, wp, wy):
        cfg = schema_config("guidance", nav_ratio=n)
        ap, ay = pn_command((wp, wy), vc, cfg)
        assert ap == pytest.approx(n * vc * wp, rel=1e-12, abs=1e-12)
        assert ay == pytest.approx(n * vc * wy, rel=1e-12, abs=1e-12)


class TestSelectSource:
    TRUE = (1.0, 10.0)
    DELAYED = (2.0, 20.0)
    PREDICTED = (3.0, 30.0)

    def pick(self, t, **kw):
        return select_source(t, schema_config("guidance", **kw), self.TRUE,
                             self.DELAYED, self.PREDICTED)

    def test_true_source(self):
        assert self.pick(0.0, source="true") == self.TRUE
        assert self.pick(100.0, source="true") == self.TRUE

    def test_delayed_source(self):
        assert self.pick(5.0, source="delayed") == self.DELAYED

    def test_predicted_gated_during_warmup(self):
        assert self.pick(1.99, source="predicted", warmup=2.0) == self.DELAYED
        assert self.pick(2.0, source="predicted", warmup=2.0) == self.PREDICTED
        assert self.pick(10.0, source="predicted", warmup=2.0) == self.PREDICTED

    def test_zero_warmup_predicts_immediately(self):
        assert self.pick(0.0, source="predicted", warmup=0.0) == self.PREDICTED


class TestAutopilotStep:
    def test_converges_to_trim_deflection(self):
        ap = AutopilotConfig(actuator_time_constant=0.02, deflection_limit=0.52,
                             accel_to_deflection_gain=2e-3)
        defl = (0.0, 0.0)
        for _ in range(1000):
            defl = step((50.0, -25.0), defl, 0.001, ap)
        assert defl == pytest.approx((0.1, -0.05), rel=1e-9)

    def test_exponential_approach(self):
        tau = 0.02
        ap = AutopilotConfig(actuator_time_constant=tau, deflection_limit=0.52,
                             accel_to_deflection_gain=1e-3)
        defl = step((100.0, 0.0), (0.0, 0.0), tau, ap)
        assert defl[0] == pytest.approx(0.1 * (1.0 - math.exp(-1.0)), rel=1e-12)

    def test_deflection_limit_clamps_target(self):
        ap = AutopilotConfig(actuator_time_constant=0.02, deflection_limit=0.3,
                             accel_to_deflection_gain=1e-2)
        defl = (0.0, 0.0)
        for _ in range(2000):
            defl = step((1000.0, -1000.0), defl, 0.001, ap)
        assert defl[0] == pytest.approx(0.3, rel=1e-9)
        assert defl[1] == pytest.approx(-0.3, rel=1e-9)

    @given(cmd=st.floats(-5000.0, 5000.0), prev=st.floats(-0.52, 0.52))
    @settings(max_examples=200, deadline=None)
    def test_output_never_exceeds_travel(self, cmd, prev):
        ap = schema_config("autopilot", deflection_limit=0.52)
        defl = step((cmd, cmd), (prev, prev), 0.001, ap)
        assert abs(defl[0]) <= 0.52 + 1e-12
        assert abs(defl[1]) <= 0.52 + 1e-12

    def test_step_size_invariance(self):
        ap = schema_config("autopilot", accel_to_deflection_gain=1e-3)
        coarse = step((200.0, 50.0), (0.02, -0.01), 0.01, ap)
        fine = (0.02, -0.01)
        for _ in range(10):
            fine = step((200.0, 50.0), fine, 0.001, ap)
        assert fine == pytest.approx(coarse, rel=1e-12)


class TestTrimDeflectionGain:
    def test_matches_hand_computation(self):
        frame = af.load_airframe()
        atm = af.atmosphere(1000.0)
        speed = 1.5 * atm.speed_of_sound
        qbar = 0.5 * atm.density * speed * speed
        cn_a, _, cm_a, _, cn_d, cm_d = frame.table.interpolate(1.5)
        mass = frame.thrust.initial_mass - 0.5 * frame.thrust.propellant_mass
        accel_per = qbar * frame.table.reference_area * (
            cn_a * (-cm_d / cm_a) + cn_d) / mass
        assert trim_deflection_gain(frame) == pytest.approx(1.0 / accel_per,
                                                            rel=1e-12)

    def test_gain_positive_and_small(self):
        g = trim_deflection_gain(af.load_airframe())
        assert 0.0 < g < 0.1  # well under a radian per g

    def test_mass_override(self, tmp_path):
        # two datasets that differ only in their launch mass
        text = resources.files("pgsim.data").joinpath("generic_airframe.txt").read_text()
        line = "initial_mass = 85.0"
        assert line in text
        gains = []
        for mass in (85.0, 95.0):
            path = tmp_path / ("frame_%g.txt" % mass)
            path.write_text(text.replace(line, "initial_mass = %r" % mass))
            gains.append(trim_deflection_gain(af.load_airframe(str(path))))
        light, heavy = gains
        assert heavy > light  # heavier vehicle needs more fin per m/s^2
