"""Nonlinear 5-DOF skid-to-turn airframe.

Aerodynamics are linear in per-plane incidence with coefficients
interpolated over Mach, pitch and yaw planes share one table by cruciform
symmetry, thrust and mass come from a time-tabulated boost profile, and
ambient conditions follow the 1976 standard atmosphere.

The frame convention is inertial x-north, y-east, z-up with a
yaw-then-pitch Euler attitude and roll fixed at zero.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from importlib import resources

__all__ = [
    "VehicleState",
    "AeroTable",
    "ThrustProfile",
    "Airframe",
    "AtmosphereSample",
    "atmosphere",
    "aero_coefficients",
    "forces_and_moments",
    "vehicle_rhs",
    "load_airframe",
    "body_axes",
]

G0 = 9.80665          # m/s^2
R_AIR = 287.05287     # J/(kg K)
GAMMA = 1.4

# ISA layers: base altitude m, base temperature K, base pressure Pa, lapse K/m
_ISA_LAYERS = (
    (0.0, 288.15, 101325.0, -0.0065),
    (11000.0, 216.65, 22632.06, 0.0),
    (20000.0, 216.65, 5474.889, 0.001),
    (32000.0, 228.65, 868.0187, 0.0028),
)
_ISA_CEILING = 47000.0

AOA_WARN_LIMIT = math.radians(25.0)


@dataclass(frozen=True)
class AtmosphereSample:
    density: float        # kg/m^3
    speed_of_sound: float  # m/s
    temperature: float    # K
    pressure: float       # Pa


def atmosphere(altitude: float) -> AtmosphereSample:
    """Standard-atmosphere sample at geometric altitude in metres.

    Altitudes below zero clamp to sea level; above the 47 km model
    ceiling is an error.
    """
    h = max(altitude, 0.0)
    if h > _ISA_CEILING:
        raise ValueError("altitude %g m above the %g m atmosphere model ceiling"
                         % (altitude, _ISA_CEILING))
    layer = 0
    for i, (hb, _, _, _) in enumerate(_ISA_LAYERS):
        if h >= hb:
            layer = i
    hb, tb, pb, lapse = _ISA_LAYERS[layer]
    if lapse == 0.0:
        t = tb
        p = pb * math.exp(-G0 * (h - hb) / (R_AIR * tb))
    else:
        t = tb + lapse * (h - hb)
        p = pb * (tb / t) ** (G0 / (R_AIR * lapse))
    rho = p / (R_AIR * t)
    a = math.sqrt(GAMMA * R_AIR * t)
    return AtmosphereSample(density=rho, speed_of_sound=a, temperature=t, pressure=p)


@dataclass
class VehicleState:
    """5-DOF missile state; roll is absent by construction."""

    position: tuple   # m, inertial (north, east, up)
    velocity: tuple   # m/s, inertial
    pitch: float      # rad
    yaw: float        # rad
    pitch_rate: float  # rad/s
    yaw_rate: float   # rad/s
    mass: float       # kg

    def __post_init__(self):
        if not self.mass > 0.0:
            raise ValueError("mass must be positive")

    def as_tuple(self) -> tuple:
        return (*self.position, *self.velocity, self.pitch, self.yaw,
                self.pitch_rate, self.yaw_rate, self.mass)

    @staticmethod
    def from_tuple(x: tuple) -> "VehicleState":
        return VehicleState(position=x[0:3], velocity=x[3:6], pitch=x[6],
                            yaw=x[7], pitch_rate=x[8], yaw_rate=x[9], mass=x[10])


class AeroTable:
    """Per-Mach rows of linear aerodynamic coefficient parameters.

    Yaw-plane coefficients are not stored; cruciform symmetry lets the
    yaw plane reuse the pitch rows with sideslip in place of AOA.
    """

    COLUMNS = ("cn_alpha", "ca0", "cm_alpha", "cm_q", "cn_delta", "cm_delta")

    def __init__(self, mach_breakpoints, rows, reference_area, reference_length):
        self.mach = tuple(float(m) for m in mach_breakpoints)
        self.rows = tuple(tuple(float(v) for v in r) for r in rows)
        self.reference_area = float(reference_area)
        self.reference_length = float(reference_length)
        if len(self.mach) < 2:
            raise ValueError("aero table needs at least two Mach breakpoints")
        if len(self.rows) != len(self.mach):
            raise ValueError("aero table row count does not match breakpoints")
        if any(b >= a for a, b in zip(self.mach[1:], self.mach[:-1])):
            raise ValueError("Mach breakpoints must be strictly ascending")
        for m, r in zip(self.mach, self.rows):
            if len(r) != len(self.COLUMNS):
                raise ValueError("aero row at Mach %g has %d columns, expected %d"
                                 % (m, len(r), len(self.COLUMNS)))
            if r[2] >= 0.0:
                raise ValueError("cm_alpha must be negative (static stability), "
                                 "got %g at Mach %g" % (r[2], m))
        if not (self.reference_area > 0.0 and self.reference_length > 0.0):
            raise ValueError("reference area and length must be positive")

    def interpolate(self, mach: float) -> tuple:
        """Row parameters linearly interpolated in Mach, clamped at the ends."""
        m = self.mach
        if mach <= m[0]:
            return self.rows[0]
        if mach >= m[-1]:
            return self.rows[-1]
        i = bisect_right(m, mach) - 1
        f = (mach - m[i]) / (m[i + 1] - m[i])
        lo, hi = self.rows[i], self.rows[i + 1]
        return tuple(a + f * (b - a) for a, b in zip(lo, hi))


def aero_coefficients(table: AeroTable, mach: float, aoa: float) -> dict:
    """Force/moment coefficients at the given Mach and angle of attack."""
    if not mach > 0.0:
        raise ValueError("mach must be positive")
    cn_alpha, ca0, cm_alpha, _, _, _ = table.interpolate(mach)
    return {"cn": cn_alpha * aoa, "ca": ca0, "cm": cm_alpha * aoa}


class ThrustProfile:
    """Piecewise-linear thrust table with proportional propellant burn."""

    def __init__(self, time_breakpoints, thrust_values, initial_mass, propellant_mass):
        self.times = tuple(float(t) for t in time_breakpoints)
        self.values = tuple(float(v) for v in thrust_values)
        self.initial_mass = float(initial_mass)
        self.propellant_mass = float(propellant_mass)
        if len(self.times) != len(self.values) or len(self.times) < 1:
            raise ValueError("thrust table breakpoints/values mismatch")
        if any(b >= a for a, b in zip(self.times[1:], self.times[:-1])):
            raise ValueError("thrust breakpoints must be strictly ascending")
        if any(v < 0.0 for v in self.values):
            raise ValueError("thrust must be non-negative")
        if not (self.initial_mass > 0.0 and 0.0 <= self.propellant_mass < self.initial_mass):
            raise ValueError("need 0 <= propellant mass < initial mass")
        # trapezoid total impulse; mass flow is thrust * propellant / impulse
        imp = 0.0
        for i in range(len(self.times) - 1):
            imp += 0.5 * (self.values[i] + self.values[i + 1]) * (self.times[i + 1] - self.times[i])
        self.total_impulse = imp
        # past the last breakpoint the burnt impulse no longer depends on t
        self.burnout_mass = self._mass_after(self.impulse_to(self.times[-1]))

    def thrust(self, t: float) -> float:
        ts, vs = self.times, self.values
        if t <= ts[0]:
            return vs[0]
        if t >= ts[-1]:
            return 0.0  # burnout
        i = bisect_right(ts, t) - 1
        f = (t - ts[i]) / (ts[i + 1] - ts[i])
        return vs[i] + f * (vs[i + 1] - vs[i])

    def mass_flow(self, t: float) -> float:
        return self.mass_flow_for(self.thrust(t))

    def mass_flow_for(self, thrust: float) -> float:
        """Mass flow at a given thrust level (burn rate is proportional)."""
        if self.total_impulse <= 0.0:
            return 0.0
        return thrust * self.propellant_mass / self.total_impulse

    def impulse_to(self, t: float) -> float:
        """Impulse delivered up to ``t``; exact for the piecewise-linear table."""
        ts, vs = self.times, self.values
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

    def mass_at(self, t: float) -> float:
        """Vehicle mass at ``t`` from the exact burnt-impulse fraction."""
        if t >= self.times[-1]:
            return self.burnout_mass
        return self._mass_after(self.impulse_to(t))

    def _mass_after(self, impulse: float) -> float:
        if self.total_impulse <= 0.0:
            return self.initial_mass
        frac = min(impulse / self.total_impulse, 1.0)
        return self.initial_mass - self.propellant_mass * frac

    @property
    def burnout_time(self) -> float:
        return self.times[-1]


@dataclass(frozen=True)
class Airframe:
    """Immutable bundle of everything the dynamics need."""

    table: AeroTable
    thrust: ThrustProfile
    transverse_inertia: float


def body_axes(pitch: float, yaw: float) -> tuple:
    """Body basis vectors (bx, by, bz) in the inertial frame.

    Yaw about the up axis, then pitch; bx is the nose, by points to the
    right of the nose in the horizontal plane, bz completes the triad
    (roughly up).
    """
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    bx = (cp * cy, cp * sy, sp)
    by = (-sy, cy, 0.0)
    bz = (-sp * cy, -sp * sy, cp)
    return bx, by, bz


def _plane_loads(incidence, deflection, rate, qbar, speed, row, sref, lref):
    """Normal force and moment in one control plane.

    ``row`` is an interpolated aero row; the same function serves pitch
    and yaw, which is what makes the cruciform symmetry exact.
    """
    cn_alpha, _, cm_alpha, cm_q, cn_delta, cm_delta = row
    force = qbar * sref * (cn_alpha * incidence + cn_delta * deflection)
    moment = qbar * sref * lref * (
        cm_alpha * incidence + cm_delta * deflection
        + cm_q * rate * lref / (2.0 * speed)
    )
    return force, moment


def forces_and_moments(state: VehicleState, deflections: tuple, table: AeroTable,
                       thrust: float, atm: AtmosphereSample) -> dict:
    """Total inertial force and body pitch/yaw moments.

    ``deflections`` is (pitch_fin, yaw_fin) in radians.  Raises if the
    vehicle has no airspeed (incidence undefined).
    """
    vx, vy, vz = state.velocity
    speed = math.sqrt(vx * vx + vy * vy + vz * vz)
    if speed <= 0.0:
        raise ValueError("airspeed is zero; incidence angles are undefined")
    bx, by, bz = body_axes(state.pitch, state.yaw)
    u = vx * bx[0] + vy * bx[1] + vz * bx[2]
    v = vx * by[0] + vy * by[1] + vz * by[2]
    w = vx * bz[0] + vy * bz[1] + vz * bz[2]
    # per-plane incidence, sign chosen so force opposes the crossflow
    alpha = -math.atan2(w, u)
    beta = -math.atan2(v, u)
    if abs(alpha) > AOA_WARN_LIMIT or abs(beta) > AOA_WARN_LIMIT:
        warnings.warn("incidence beyond 25 deg: stall effects are not modelled",
                      stacklevel=2)
    mach = speed / atm.speed_of_sound
    row = table.interpolate(mach)
    qbar = 0.5 * atm.density * speed * speed
    sref, lref = table.reference_area, table.reference_length
    fz, m_pitch = _plane_loads(alpha, deflections[0], state.pitch_rate,
                               qbar, speed, row, sref, lref)
    fy, m_yaw = _plane_loads(beta, deflections[1], state.yaw_rate,
                             qbar, speed, row, sref, lref)
    axial = thrust - qbar * sref * row[1]
    weight = state.mass * G0
    force = (
        axial * bx[0] + fy * by[0] + fz * bz[0],
        axial * bx[1] + fy * by[1] + fz * bz[1],
        axial * bx[2] + fy * by[2] + fz * bz[2] - weight,
    )
    return {"force": force, "pitch_moment": m_pitch, "yaw_moment": m_yaw}


def vehicle_rhs(state: VehicleState, deflections: tuple, airframe: Airframe,
                t: float, atm: AtmosphereSample | None = None) -> tuple:
    """First-order state derivative of the 5-DOF model at time ``t``.

    ``atm`` overrides the ambient sample (tests use this for vacuum or
    constant-density cases); by default it is evaluated at the current
    altitude.
    """
    if atm is None:
        atm = atmosphere(state.position[2])
    thrust = airframe.thrust.thrust(t)
    loads = forces_and_moments(state, deflections, airframe.table, thrust, atm)
    fx, fy, fz = loads["force"]
    inv_m = 1.0 / state.mass
    inv_i = 1.0 / airframe.transverse_inertia
    return (
        *state.velocity,
        fx * inv_m, fy * inv_m, fz * inv_m,
        state.pitch_rate, state.yaw_rate,
        loads["pitch_moment"] * inv_i, loads["yaw_moment"] * inv_i,
        -airframe.thrust.mass_flow(t),
    )


def _parse_dataset(text: str) -> dict:
    sections: dict = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = {"kv": {}, "rows": []}
            continue
        if current is None:
            raise ValueError("dataset content before any [section] header")
        if "=" in line:
            key, val = (s.strip() for s in line.split("=", 1))
            sections[current]["kv"][key] = float(val)
        else:
            sections[current]["rows"].append([float(v) for v in line.split()])
    return sections


def load_airframe(path: str | None = None) -> Airframe:
    """Load an airframe dataset file; ``None`` loads the bundled generic one."""
    if path is None:
        text = resources.files("pgsim.data").joinpath("generic_airframe.txt").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    sec = _parse_dataset(text)
    try:
        af = sec["airframe"]["kv"]
        mass = sec["mass"]["kv"]
        aero_rows = sec["aero"]["rows"]
        thrust_rows = sec["thrust"]["rows"]
    except KeyError as exc:
        raise ValueError("airframe dataset missing section %s" % exc) from exc
    table = AeroTable(
        mach_breakpoints=[r[0] for r in aero_rows],
        rows=[r[1:] for r in aero_rows],
        reference_area=af["reference_area"],
        reference_length=af["reference_length"],
    )
    profile = ThrustProfile(
        time_breakpoints=[r[0] for r in thrust_rows],
        thrust_values=[r[1] for r in thrust_rows],
        initial_mass=mass["initial_mass"],
        propellant_mass=mass["propellant_mass"],
    )
    return Airframe(table=table, thrust=profile,
                    transverse_inertia=af["transverse_inertia"])
