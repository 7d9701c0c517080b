import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsim import airframe as af


@pytest.fixture(scope="module")
def frame():
    return af.load_airframe()


class TestAtmosphere:
    def test_sea_level(self):
        s = af.atmosphere(0.0)
        assert s.temperature == pytest.approx(288.15)
        assert s.density == pytest.approx(1.2250, abs=1e-3)
        assert s.speed_of_sound == pytest.approx(340.29, abs=0.05)
        assert s.pressure == pytest.approx(101325.0)

    def test_tropopause_temperature(self):
        assert af.atmosphere(11000.0).temperature == pytest.approx(216.65, abs=0.01)

    def test_below_ground_clamps(self):
        assert af.atmosphere(-5.0) == af.atmosphere(0.0)

    def test_ceiling(self):
        with pytest.raises(ValueError):
            af.atmosphere(47001.0)

    def test_density_pressure_strictly_decreasing(self):
        hs = np.arange(0.0, 20000.0 + 1, 100.0)
        samples = [af.atmosphere(float(h)) for h in hs]
        rho = [s.density for s in samples]
        p = [s.pressure for s in samples]
        assert all(b < a for a, b in zip(rho, rho[1:]))
        assert all(b < a for a, b in zip(p, p[1:]))

    def test_layers_continuous(self):
        for h in (11000.0, 20000.0, 32000.0):
            lo, hi = af.atmosphere(h - 0.01), af.atmosphere(h + 0.01)
            assert lo.pressure == pytest.approx(hi.pressure, rel=1e-5)


class TestAeroTable:
    def test_interpolation_exact_at_nodes(self, frame):
        t = frame.table
        for m, row in zip(t.mach, t.rows):
            assert t.interpolate(m) == row

    def test_zero_aoa_at_breakpoint(self, frame):
        t = frame.table
        x = make_state((400.0, 0.0, 0.0))
        rho = 1.1
        d = af.vehicle_rhs(x, 0.0, 0.0, t.interpolate(t.mach[1]), t.reference_area,
                           t.reference_length, 1.0, 0.0, 0.0, rho)
        # no normal force or moment; the axial force is the row's drag
        assert d[4] == 0.0 and d[5] == -af.G0
        assert d[8] == 0.0 and d[9] == 0.0
        drag = 0.5 * rho * 400.0 ** 2 * t.reference_area * t.rows[1][1]
        assert x[10] * d[3] == pytest.approx(-drag, rel=1e-12)

    def test_midpoint_is_mean(self, frame):
        t = frame.table
        mid = 0.5 * (t.mach[0] + t.mach[1])
        got = t.interpolate(mid)
        want = tuple(0.5 * (a + b) for a, b in zip(t.rows[0], t.rows[1]))
        assert got == pytest.approx(want, rel=1e-12)

    def test_clamped_beyond_table(self, frame):
        t = frame.table
        assert t.interpolate(t.mach[-1] + 5.0) == t.rows[-1]
        assert t.interpolate(0.01) == t.rows[0]

    def test_static_stability_enforced(self):
        with pytest.raises(ValueError, match="cm_alpha"):
            af.AeroTable([0.5, 1.0], [(10, 0.3, +1.0, -50, 5, 6)] * 2, 0.01, 2.0)

    def test_needs_two_breakpoints(self):
        with pytest.raises(ValueError):
            af.AeroTable([0.5], [(10, 0.3, -1.0, -50, 5, 6)], 0.01, 2.0)


def make_state(velocity, pitch=0.0, yaw=0.0, pitch_rate=0.0, yaw_rate=0.0,
               mass=70.0, position=(0.0, 0.0, 1000.0)):
    return (*position, *velocity, pitch, yaw, pitch_rate, yaw_rate, mass)


def rhs(frame, x, deflections=(0.0, 0.0), t=0.0, rho=None):
    """vehicle_rhs with the ambient sample and aero row at the state's
    altitude and Mach; ``rho`` overrides the density."""
    atm = af.atmosphere(x[2])
    speed = math.sqrt(x[3] ** 2 + x[4] ** 2 + x[5] ** 2)
    table = frame.table
    thrust = frame.thrust.thrust(t)
    return af.vehicle_rhs(x, deflections[0], deflections[1],
                          table.interpolate(speed / atm.speed_of_sound),
                          table.reference_area, table.reference_length,
                          1.0 / frame.transverse_inertia, thrust,
                          frame.thrust.mass_flow(thrust),
                          atm.density if rho is None else rho)


def loads(frame, x, deflections=(0.0, 0.0), rho=None):
    """Total inertial force in N and body pitch/yaw moments in N*m,
    after burnout (no thrust)."""
    d = rhs(frame, x, deflections, frame.thrust.burnout_time + 1.0, rho)
    m, inertia = x[10], frame.transverse_inertia
    return (m * d[3], m * d[4], m * (d[5] + af.G0)), inertia * d[8], inertia * d[9]


class TestForcesAndMoments:
    def test_symmetric_trim(self, frame):
        x = make_state((400.0, 0.0, 0.0))
        d = rhs(frame, x, t=frame.thrust.burnout_time + 1.0)
        assert d[4] == 0.0
        assert d[8] == 0.0
        assert d[9] == 0.0
        assert d[3] < 0.0  # drag only
        assert d[5] == pytest.approx(-af.G0)

    @given(incidence=st.floats(-0.3, 0.3), defl=st.floats(-0.4, 0.4),
           rate=st.floats(-3.0, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_cruciform_symmetry(self, incidence, defl, rate):
        frame = af.load_airframe()
        speed = 500.0
        # pitch-plane incidence: velocity below the nose by `incidence`
        pitch_state = make_state(
            (speed * math.cos(incidence), 0.0, -speed * math.sin(incidence)),
            pitch_rate=rate, position=(0.0, 0.0, 500.0))
        yaw_state = make_state(
            (speed * math.cos(incidence), -speed * math.sin(incidence), 0.0),
            yaw_rate=rate, position=(0.0, 0.0, 500.0))
        a_force, a_pitch, _ = loads(frame, pitch_state, (defl, 0.0))
        b_force, _, b_yaw = loads(frame, yaw_state, (0.0, defl))
        assert b_force[1] == pytest.approx(a_force[2], rel=1e-9, abs=1e-9)
        assert b_yaw == pytest.approx(a_pitch, rel=1e-9, abs=1e-9)

    def test_aero_force_linear_in_density(self, frame):
        x = make_state((400.0, 30.0, -20.0), position=(0.0, 0.0, 0.0))
        rho = af.atmosphere(0.0).density
        f1, m1, _ = loads(frame, x, (0.1, -0.05), rho)
        f2, m2, _ = loads(frame, x, (0.1, -0.05), 2.0 * rho)
        assert f2 == pytest.approx(tuple(2.0 * f for f in f1), rel=1e-12)
        assert m2 == pytest.approx(2.0 * m1, rel=1e-12)

    def test_zero_airspeed_rejected(self, frame):
        with pytest.raises(ZeroDivisionError):
            rhs(frame, make_state((0.0, 0.0, 0.0)))


def zero_aero_frame():
    # no aerodynamic force, no thrust: gravity is the only force
    table = af.AeroTable([0.5, 3.0], [(0.0, 0.0, -1e-12, 0.0, 0.0, 0.0)] * 2,
                         0.01, 2.0)
    thrust = af.ThrustProfile([0.0], [0.0], 70.0, 0.0)
    return af.Airframe(table=table, thrust=thrust, transverse_inertia=20.0)


def rk4(x, frame, t, dt):
    def f(xx, tau):
        return rhs(frame, xx, t=tau)

    k1 = f(x, t)
    x2 = tuple(a + 0.5 * dt * b for a, b in zip(x, k1))
    k2 = f(x2, t + 0.5 * dt)
    x3 = tuple(a + 0.5 * dt * b for a, b in zip(x, k2))
    k3 = f(x3, t + 0.5 * dt)
    x4 = tuple(a + dt * b for a, b in zip(x, k3))
    k4 = f(x4, t + dt)
    return tuple(a + dt / 6.0 * (p + 2 * (q + r) + s)
                 for a, p, q, r, s in zip(x, k1, k2, k3, k4))


class TestVehicleRhs:
    def test_ballistic_gravity_only(self):
        frame = zero_aero_frame()
        x = make_state((100.0, 0.0, 50.0))
        d = rhs(frame, x, rho=0.0)  # vacuum
        assert d[0:3] == x[3:6]
        assert d[3:6] == pytest.approx((0.0, 0.0, -af.G0))
        assert d[10] == 0.0

    def test_burnout_stops_mass_flow(self):
        frame = af.load_airframe()
        t_burnout = frame.thrust.burnout_time
        assert frame.thrust.thrust(t_burnout + 1.0) == 0.0
        assert frame.thrust.mass_flow(frame.thrust.thrust(t_burnout + 1.0)) == 0.0

    def test_no_hover(self):
        frame = af.load_airframe()
        x = make_state((100.0, 0.0, 0.0))
        d = rhs(frame, x, t=frame.thrust.burnout_time + 1.0)
        assert any(abs(a) > 1e-6 for a in d[3:6])

    def test_energy_conservation(self):
        frame = zero_aero_frame()
        x = make_state((120.0, 0.0, 80.0), position=(0.0, 0.0, 2000.0))

        def energy(s):
            v2 = s[3] ** 2 + s[4] ** 2 + s[5] ** 2
            return 0.5 * s[10] * v2 + s[10] * af.G0 * s[2]

        e0 = energy(x)
        dt = 1e-3
        for i in range(10000):
            x = rk4(x, frame, i * dt, dt)
        assert energy(x) == pytest.approx(e0, rel=1e-6)

    def test_mass_accounting(self):
        frame = af.load_airframe()
        prof = frame.thrust
        final = prof.mass_at(prof.burnout_time + 5.0)
        want = prof.initial_mass - prof.propellant_mass
        assert final == pytest.approx(want, rel=1e-9)

    def test_matches_body_axes_oracle(self):
        # the derivative in vector form: incidences from the velocity
        # projected on body_axes, loads rotated back along the same axes
        frame = af.load_airframe()
        table = frame.table
        sref, lref = table.reference_area, table.reference_length
        rng = np.random.default_rng(11)
        for _ in range(50):
            vel = rng.uniform(-300, 300, 3)
            speed = float(np.linalg.norm(vel))
            if speed < 1.0:
                continue
            pitch, yaw = rng.uniform(-1.2, 1.2), rng.uniform(-math.pi, math.pi)
            q_rate, r_rate = rng.uniform(-3, 3, 2)
            mass = rng.uniform(55, 85)
            dp, dyaw = rng.uniform(-0.5, 0.5, 2)
            thrust = rng.uniform(0.0, 20000.0)
            rho = rng.uniform(0.3, 1.3)
            row = table.interpolate(rng.uniform(0.2, 4.0))
            x = (0.0, 0.0, 1000.0, *vel.tolist(), pitch, yaw, q_rate, r_rate, mass)
            got = af.vehicle_rhs(x, dp, dyaw, row, sref, lref,
                                 1.0 / frame.transverse_inertia, thrust, 2.5, rho)

            bx, by, bz = (np.array(b) for b in af.body_axes(pitch, yaw))
            alpha = -math.atan2(vel @ bz, vel @ bx)
            beta = -math.atan2(vel @ by, vel @ bx)
            cn_a, ca0, cm_a, cm_q, cn_d, cm_d = row
            qs = 0.5 * rho * speed ** 2 * sref
            damp = lref / (2.0 * speed)
            force = ((thrust - qs * ca0) * bx + qs * (cn_a * beta + cn_d * dyaw) * by
                     + qs * (cn_a * alpha + cn_d * dp) * bz)
            m_pitch = qs * lref * (cm_a * alpha + cm_d * dp + cm_q * q_rate * damp)
            m_yaw = qs * lref * (cm_a * beta + cm_d * dyaw + cm_q * r_rate * damp)
            want = (*vel, *(force / mass - [0.0, 0.0, af.G0]), q_rate, r_rate,
                    m_pitch / frame.transverse_inertia,
                    m_yaw / frame.transverse_inertia, -2.5)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestDatasetLoading:
    def test_builtin_loads(self, frame):
        assert len(frame.table.mach) >= 2
        assert frame.thrust.total_impulse > 0
        assert frame.transverse_inertia > 0

    def test_override_file(self, tmp_path):
        p = tmp_path / "frame.txt"
        p.write_text("""
[airframe]
reference_area = 0.01
reference_length = 1.5
transverse_inertia = 10.0
[mass]
initial_mass = 50.0
propellant_mass = 20.0
[aero]
0.5 10.0 0.3 -3.0 -40.0 4.0 5.0
2.0 12.0 0.4 -3.5 -45.0 4.5 5.5
[thrust]
0.0 8000.0
4.0 0.0
""")
        frame = af.load_airframe(str(p))
        assert frame.thrust.initial_mass == 50.0
        assert frame.table.mach == (0.5, 2.0)

    def test_missing_section_rejected(self, tmp_path):
        p = tmp_path / "frame.txt"
        p.write_text("[airframe]\nreference_area = 0.01\n")
        with pytest.raises(ValueError, match="section"):
            af.load_airframe(str(p))
