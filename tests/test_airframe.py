import math
import struct
from bisect import bisect_right

import numpy as np
import pytest
from conftest import impulse_to, mass_at, mass_flow_at, state_derivative, thrust_at
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsim import airframe as af


@pytest.fixture(scope="module")
def frame():
    return af.load_airframe()


def atmosphere_reference(altitude):
    """The atmosphere with every layer constant computed at the call:
    the reference whose float operations ``atmosphere`` keeps."""
    h = max(altitude, 0.0)
    if h > af.ISA_CEILING:
        raise ValueError("above the ceiling")
    hb, tb, pb, lapse = af._ISA_LAYERS[bisect_right(af._ISA_BASES, h) - 1]
    if lapse == 0.0:
        t = tb
        p = pb * math.exp(-af.G0 * (h - hb) / (af.R_AIR * tb))
    else:
        t = tb + lapse * (h - hb)
        p = pb * (tb / t) ** (af.G0 / (af.R_AIR * lapse))
    return (p / (af.R_AIR * t), math.sqrt(af.GAMMA * af.R_AIR * t), t, p)


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

    @pytest.mark.parametrize("base, temperature, pressure", [
        (11000.0, 216.65, 22632.06),
        (20000.0, 216.65, 5474.889),
        (32000.0, 228.65, 868.0187),
    ])
    def test_published_layer_base_values(self, base, temperature, pressure):
        # U.S. Standard Atmosphere 1976 layer bases.  A base belongs to
        # the layer above it, which returns its base values exactly.
        s = af.atmosphere(base)
        assert s.temperature == temperature
        assert s.pressure == pressure

    def test_sample_unpacks_in_field_order(self):
        rho, sound, temperature, pressure = af.atmosphere(5000.0)
        assert rho == pytest.approx(pressure / (af.R_AIR * temperature), rel=1e-15)
        assert sound == pytest.approx(math.sqrt(af.GAMMA * af.R_AIR * temperature),
                                      rel=1e-15)
        assert temperature == pytest.approx(288.15 - 0.0065 * 5000.0, rel=1e-15)
        assert (rho, sound, temperature, pressure) == af.atmosphere(5000.0)

    def test_bit_identical_to_reference(self):
        # each layer base, its neighbouring floats, the ceiling, and
        # random altitudes over the whole model
        hs = [-1.0, -0.0, af.ISA_CEILING, math.nextafter(af.ISA_CEILING, 0.0)]
        for base in af._ISA_BASES:
            hs += [base, math.nextafter(base, -math.inf), math.nextafter(base, math.inf)]
        hs += np.random.default_rng(17).uniform(-100.0, af.ISA_CEILING, 20000).tolist()
        for h in hs:
            got = af.atmosphere(h)
            assert type(got) is af.AtmosphereSample
            assert struct.pack("4d", *got) == struct.pack("4d", *atmosphere_reference(h)), h


class TestAeroTable:
    def test_interpolation_exact_at_nodes(self, frame):
        t = frame.table
        for m, row in zip(t.mach, t.rows):
            assert t.interpolate(m) == row

    def test_zero_aoa_at_breakpoint(self, frame):
        t = frame.table
        x = make_state((400.0, 0.0, 0.0))
        rho = 1.1
        d = af.vehicle_rhs(*x[3:], 0.0, 0.0, t.interpolate(t.mach[1]), t.reference_area,
                           t.reference_length, 1.0, 0.0, rho)
        # no normal force or moment; the axial force is the row's drag
        assert d[1] == 0.0 and d[2] == -af.G0
        assert d[3] == 0.0 and d[4] == 0.0
        drag = 0.5 * rho * 400.0 ** 2 * t.reference_area * t.rows[1][1]
        assert x[10] * d[0] == pytest.approx(-drag, rel=1e-12)

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

    def test_row_count_must_match_breakpoints(self):
        with pytest.raises(ValueError, match="aero table row count does not match breakpoints"):
            af.AeroTable([0.5, 1.0, 2.0], [(10, 0.3, -1.0, -50, 5, 6)] * 2, 0.01, 2.0)


def trapezoid_impulse(prof, t):
    """Area under the piecewise-linear thrust curve on [times[0], t],
    from numpy's trapezoid rule over the breakpoints before ``t`` and
    the interpolated value at ``t``."""
    if t <= prof.times[0]:
        return 0.0
    t = min(t, prof.times[-1])
    grid = [tb for tb in prof.times if tb < t] + [t]
    return float(np.trapezoid(np.interp(grid, prof.times, prof.values), grid))


def segment_loop_impulse(prof, t):
    """The burnt impulse summed segment by segment: the reference whose
    float operations ``ThrustProfile.impulse_to`` keeps."""
    ts, vs = prof.times, prof.values
    if t <= ts[0]:
        return 0.0
    imp = 0.0
    for i in range(len(ts) - 1):
        t1 = min(t, ts[i + 1])
        if t1 <= ts[i]:
            break
        v1 = vs[i] + (vs[i + 1] - vs[i]) * (t1 - ts[i]) / (ts[i + 1] - ts[i])
        imp += 0.5 * (vs[i] + v1) * (t1 - ts[i])
    return imp


PROFILES = {
    "builtin": lambda: af.load_airframe().thrust,
    # the first segment's interpolated end value is not 14895.7 exactly,
    # and the burnt impulse summed with it differs in the last bit
    "irregular": lambda: af.ThrustProfile([0.8, 7.3, 8.2, 9.1],
                                          [3828.1, 14895.7, 1175.2, 0.0], 90.0, 30.0),
}


class TestThrustProfile:
    def test_builtin_total_impulse(self):
        # 3 s at 15 kN, 0.2 s ramp to 5 kN, 3.3 s at 5 kN, 0.1 s ramp to 0
        prof = af.load_airframe().thrust
        want = 45000.0 + 2000.0 + 16500.0 + 250.0
        assert prof.total_impulse == pytest.approx(want, rel=1e-12)
        assert prof.impulse_to(prof.burnout_time) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_impulse_is_trapezoid_area(self, profile):
        prof = PROFILES[profile]()
        ts = prof.times
        times = [ts[0] - 1.0, ts[0], ts[-1], ts[-1] + 0.5, ts[-1] + 100.0]
        times += list(ts)
        times += [0.5 * (a + b) for a, b in zip(ts, ts[1:])]
        times += [a + 0.3 * (b - a) for a, b in zip(ts, ts[1:])]
        for t in times:
            want = trapezoid_impulse(prof, t)
            assert prof.impulse_to(t) == pytest.approx(want, rel=1e-12, abs=1e-9), t
        assert prof.impulse_to(ts[0] - 1.0) == 0.0
        assert prof.impulse_to(ts[-1] + 100.0) == prof.impulse_to(ts[-1])

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_mass_continuous_across_breakpoints(self, profile):
        prof = PROFILES[profile]()
        # the steepest mass change is the peak thrust's mass flow
        bound = 2.0 * prof.mass_flow(max(prof.values)) * 1e-9
        for tb in prof.times:
            lo, at, hi = (prof.mass_at(tb - 1e-9), prof.mass_at(tb),
                          prof.mass_at(tb + 1e-9))
            assert abs(at - lo) <= bound, tb
            assert abs(hi - at) <= bound, tb
        assert prof.mass_at(prof.burnout_time) == pytest.approx(
            prof.initial_mass - prof.propellant_mass, rel=1e-12)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_matches_segment_loop_bits(self, profile):
        prof = PROFILES[profile]()
        rng = np.random.default_rng(3)
        times = [float(t) for t in rng.uniform(prof.times[0] - 1.0,
                                                prof.times[-1] + 1.0, 2000)]
        for tb in prof.times:
            times += [tb, math.nextafter(tb, -math.inf), math.nextafter(tb, math.inf)]
        for t in times:
            assert prof.impulse_to(t) == segment_loop_impulse(prof, t), t

    def test_thrust_integral_matches_impulse(self):
        # the irregular profile ignites at 0.8 s: a dense trapezoid of
        # thrust(t) from t = 0 gives the burnt impulse before, across and
        # after the table; its error is at most one step of the jump
        prof = PROFILES["irregular"]()
        h = 1e-4
        for t_end in (0.4, 0.8, 4.05, 10.0):
            grid = np.linspace(0.0, t_end, int(round(t_end / h)) + 1)
            dense = float(np.trapezoid([prof.thrust(float(t)) for t in grid], grid))
            assert dense == pytest.approx(prof.impulse_to(t_end),
                                          abs=max(prof.values) * h), t_end
        assert prof.thrust(0.4) == 0.0
        assert prof.thrust(0.8) == prof.values[0]

    @pytest.mark.parametrize("profile", sorted(PROFILES) + ["one_row"])
    def test_array_gives_scalar_reference_bits(self, profile):
        # each element of an array call gets the scalar formula's bits
        prof = (af.ThrustProfile([0.5], [900.0], 80.0, 20.0) if profile == "one_row"
                else PROFILES[profile]())
        rng = np.random.default_rng(8)
        times = rng.uniform(prof.times[0] - 1.0, prof.times[-1] + 1.0, 500).tolist()
        for tb in prof.times:
            times += [tb, math.nextafter(tb, -math.inf), math.nextafter(tb, math.inf)]
        cases = [(prof.thrust, thrust_at, times),
                 (prof.impulse_to, impulse_to, times),
                 (prof.mass_at, mass_at, times),
                 (prof.mass_flow, mass_flow_at, [thrust_at(prof, t) for t in times])]
        for method, reference, args in cases:
            want = np.array([reference(prof, a) for a in args])
            assert method(np.array(args)).tobytes() == want.tobytes(), method.__name__
            assert np.array([method(a) for a in args]).tobytes() == want.tobytes(), \
                method.__name__
        assert type(prof.burnout_mass) is float
        assert prof.burnout_mass == mass_at(prof, prof.burnout_time)

    def test_one_row_table_is_zero_thrust(self):
        prof = af.ThrustProfile([0.5], [900.0], 80.0, 20.0)
        assert prof.thrust(0.25) == 0.0
        assert prof.thrust(0.5) == 0.0
        assert prof.total_impulse == 0.0
        assert prof.mass_at(1.0) == 80.0

    def test_values_must_match_breakpoints(self):
        with pytest.raises(ValueError, match="thrust table breakpoints/values mismatch"):
            af.ThrustProfile([0.0, 0.5, 1.0], [900.0, 900.0], 80.0, 20.0)


def make_state(velocity, pitch=0.0, yaw=0.0, pitch_rate=0.0, yaw_rate=0.0,
               mass=70.0, position=(0.0, 0.0, 1000.0)):
    return (*position, *velocity, pitch, yaw, pitch_rate, yaw_rate, mass)


def rhs(frame, x, deflections=(0.0, 0.0), t=0.0, rho=None):
    """The 11-state derivative with the ambient sample and aero row at
    the state's altitude and Mach; ``rho`` overrides the density."""
    atm = af.atmosphere(x[2])
    speed = math.sqrt(x[3] ** 2 + x[4] ** 2 + x[5] ** 2)
    table = frame.table
    thrust = frame.thrust.thrust(t)
    return state_derivative(x, deflections[0], deflections[1],
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
            got = af.vehicle_rhs(*vel.tolist(), pitch, yaw, q_rate, r_rate, mass,
                                 dp, dyaw, row, sref, lref,
                                 1.0 / frame.transverse_inertia, thrust, rho)

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
            want = (*(force / mass - [0.0, 0.0, af.G0]),
                    m_pitch / frame.transverse_inertia,
                    m_yaw / frame.transverse_inertia)
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
