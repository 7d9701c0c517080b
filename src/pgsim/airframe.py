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
from bisect import bisect_right
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

__all__ = [
    "AeroTable",
    "ThrustProfile",
    "Airframe",
    "AtmosphereSample",
    "atmosphere",
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
_ISA_BASES = tuple(layer[0] for layer in _ISA_LAYERS)
# each layer with the constant of its pressure law appended: the scale
# R_AIR * tb of an isothermal layer, the exponent G0 / (R_AIR * lapse)
# of a gradient layer
_ISA_TABLE = tuple((hb, tb, pb, lapse,
                    R_AIR * tb if lapse == 0.0 else G0 / (R_AIR * lapse))
                   for hb, tb, pb, lapse in _ISA_LAYERS)
_GAMMA_R = GAMMA * R_AIR
ISA_CEILING = 47000.0


class AtmosphereSample(NamedTuple):
    density: float        # kg/m^3
    speed_of_sound: float  # m/s
    temperature: float    # K
    pressure: float       # Pa


# builds an AtmosphereSample from a tuple without the Python-level __new__
_new_tuple = tuple.__new__


def atmosphere(altitude: float) -> AtmosphereSample:
    """Standard-atmosphere sample at geometric altitude in metres.

    Altitudes below zero clamp to sea level; above the 47 km model
    ceiling is an error.  A layer base belongs to the layer above it.
    """
    h = max(altitude, 0.0)
    if h > ISA_CEILING:
        raise ValueError("altitude %g m above the %g m atmosphere model ceiling"
                         % (altitude, ISA_CEILING))
    hb, tb, pb, lapse, k = _ISA_TABLE[bisect_right(_ISA_BASES, h) - 1]
    if lapse == 0.0:
        t = tb
        p = pb * math.exp(-G0 * (h - hb) / k)
    else:
        t = tb + lapse * (h - hb)
        p = pb * (tb / t) ** k
    return _new_tuple(AtmosphereSample,
                      (p / (R_AIR * t), math.sqrt(_GAMMA_R * t), t, p))


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
        a0, a1, a2, a3, a4, a5 = self.rows[i]
        b0, b1, b2, b3, b4, b5 = self.rows[i + 1]
        return (a0 + f * (b0 - a0), a1 + f * (b1 - a1), a2 + f * (b2 - a2),
                a3 + f * (b3 - a3), a4 + f * (b4 - a4), a5 + f * (b5 - a5))


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
        # trapezoid total impulse; mass flow is thrust * propellant / impulse.
        # The burnt impulse at each breakpoint sums the whole segments
        # before it, each with its end value interpolated as impulse_to's
        # partial segment is; that value can differ from the table's by
        # an ulp, so the two sums are kept apart.
        ts, vs = self.times, self.values
        imp = 0.0
        burnt = [0.0]
        for i in range(len(ts) - 1):
            w = ts[i + 1] - ts[i]
            imp += 0.5 * (vs[i] + vs[i + 1]) * w
            v1 = vs[i] + (vs[i + 1] - vs[i]) * w / w
            burnt.append(burnt[-1] + 0.5 * (vs[i] + v1) * w)
        self.total_impulse = imp
        self._burnt = tuple(burnt)
        # from the last breakpoint on, thrust is zero and the burnt
        # impulse no longer depends on t
        self.burnout_time = ts[-1]
        self.burnout_mass = self._mass_after(self.impulse_to(self.burnout_time))

    def thrust(self, t: float) -> float:
        """Interpolated thrust; zero before the first breakpoint and from
        the last on, where :meth:`impulse_to` counts no impulse either."""
        ts = self.times
        if t < ts[0] or t >= ts[-1]:
            return 0.0  # not yet ignited, or burnt out
        vs = self.values
        i = bisect_right(ts, t) - 1
        f = (t - ts[i]) / (ts[i + 1] - ts[i])
        return vs[i] + f * (vs[i + 1] - vs[i])

    def mass_flow(self, thrust: float) -> float:
        """Mass flow at a given thrust level (burn rate is proportional)."""
        if self.total_impulse <= 0.0:
            return 0.0
        return thrust * self.propellant_mass / self.total_impulse

    def impulse_to(self, t: float) -> float:
        """Impulse delivered up to ``t``; exact for the piecewise-linear table."""
        ts, vs = self.times, self.values
        if t <= ts[0]:
            return 0.0
        if t >= ts[-1]:
            return self._burnt[-1]
        i = bisect_right(ts, t) - 1
        v1 = vs[i] + (vs[i + 1] - vs[i]) * (t - ts[i]) / (ts[i + 1] - ts[i])
        return self._burnt[i] + 0.5 * (vs[i] + v1) * (t - ts[i])

    def mass_at(self, t: float) -> float:
        """Vehicle mass at ``t`` from the exact burnt-impulse fraction."""
        if t >= self.burnout_time:
            return self.burnout_mass
        return self._mass_after(self.impulse_to(t))

    def _mass_after(self, impulse: float) -> float:
        if self.total_impulse <= 0.0:
            return self.initial_mass
        frac = impulse / self.total_impulse
        if frac > 1.0:  # min(frac, 1.0), including its NaN handling
            frac = 1.0
        return self.initial_mass - self.propellant_mass * frac


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


def vehicle_rhs(vx: float, vy: float, vz: float, pitch: float, yaw: float,
                q_rate: float, r_rate: float, mass: float, dp: float, dyaw: float,
                row: tuple, sref: float, lref: float, inv_i: float, thrust: float,
                rho: float) -> tuple:
    """Accelerations of the 5-DOF state: (ax, ay, az, q_dot, r_dot).

    The eight arguments before ``dp`` are the states the dynamics read:
    inertial velocity, pitch and yaw, pitch and yaw body rates, and mass.
    The other derivatives of the state are those states themselves
    (position rate = velocity, attitude rate = body rates) and the mass
    flow, so the caller forms them.  ``dp``/``dyaw`` are the pitch and
    yaw fin deflections in radians; ``row`` is the interpolated aero row,
    ``sref``/``lref`` the reference area and length, ``inv_i`` the
    inverse transverse inertia, ``thrust`` the thrust and ``rho`` the air
    density.  The pitch and yaw planes apply the same row to their own
    incidence, deflection and rate, which makes the cruciform symmetry
    exact; incidence signs are chosen so the normal force opposes the
    crossflow.  Zero airspeed leaves the incidence undefined and raises.
    """
    cp = math.cos(pitch)
    sp = math.sin(pitch)
    cy = math.cos(yaw)
    sy = math.sin(yaw)
    # velocity along the body axes of body_axes(pitch, yaw)
    u = vx * cp * cy + vy * cp * sy + vz * sp
    v = -vx * sy + vy * cy
    w = -vx * sp * cy - vy * sp * sy + vz * cp
    speed2 = vx * vx + vy * vy + vz * vz
    speed = math.sqrt(speed2)
    alpha = -math.atan2(w, u)
    beta = -math.atan2(v, u)
    qbar = 0.5 * rho * speed2
    cn_a, ca0, cm_a, cm_q, cn_d, cm_d = row
    qs = qbar * sref
    qsl = qs * lref
    rate_nd = lref / (2.0 * speed)
    fz = qs * (cn_a * alpha + cn_d * dp)
    m_pitch = qsl * (cm_a * alpha + cm_d * dp + cm_q * q_rate * rate_nd)
    fy = qs * (cn_a * beta + cn_d * dyaw)
    m_yaw = qsl * (cm_a * beta + cm_d * dyaw + cm_q * r_rate * rate_nd)
    axial = thrust - qs * ca0
    inv_m = 1.0 / mass
    return (
        (axial * cp * cy - fy * sy - fz * sp * cy) * inv_m,
        (axial * cp * sy + fy * cy - fz * sp * sy) * inv_m,
        (axial * sp + fz * cp) * inv_m - G0,
        m_pitch * inv_i, m_yaw * inv_i,
    )


def _dataset_number(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError("non-finite dataset value %r" % text)
    return v


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
            sections[current]["kv"][key] = _dataset_number(val)
        else:
            sections[current]["rows"].append([_dataset_number(v) for v in line.split()])
    return sections


def load_airframe(path: str | None = None) -> Airframe:
    """Load an airframe dataset file; ``None`` loads the bundled generic one."""
    if path is None:
        text = resources.files("pgsim.data").joinpath("generic_airframe.txt").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    sec = _parse_dataset(text)
    for name in ("airframe", "mass", "aero", "thrust"):
        if name not in sec:
            raise ValueError("airframe dataset missing section %r" % name)

    def value(section, key):
        try:
            return sec[section]["kv"][key]
        except KeyError:
            raise ValueError("airframe dataset section [%s] missing key %r"
                             % (section, key)) from None

    aero_rows = sec["aero"]["rows"]
    thrust_rows = sec["thrust"]["rows"]
    table = AeroTable(
        mach_breakpoints=[r[0] for r in aero_rows],
        rows=[r[1:] for r in aero_rows],
        reference_area=value("airframe", "reference_area"),
        reference_length=value("airframe", "reference_length"),
    )
    profile = ThrustProfile(
        time_breakpoints=[r[0] for r in thrust_rows],
        thrust_values=[r[1] for r in thrust_rows],
        initial_mass=value("mass", "initial_mass"),
        propellant_mass=value("mass", "propellant_mass"),
    )
    inertia = value("airframe", "transverse_inertia")
    if not inertia > 0.0:
        raise ValueError("transverse_inertia must be > 0, got %g" % inertia)
    return Airframe(table=table, thrust=profile, transverse_inertia=inertia)
