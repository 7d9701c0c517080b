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
import os
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

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


def _burnt(a, w, v0, dv, b, t):
    """The impulse burnt by ``t`` in the thrust segment that starts at
    ``a``, is ``w`` wide and ramps from ``v0`` by ``dv``, after the
    impulse ``b`` burnt before it: exact for the linear ramp."""
    x = t - a
    return b + 0.5 * (v0 + (v0 + dv * x / w)) * x


class ThrustProfile:
    """Piecewise-linear thrust table with proportional propellant burn.

    :meth:`thrust`, :meth:`mass_flow`, :meth:`impulse_to` and
    :meth:`mass_at` take a finite number or an array of them and return a
    float or an array of the same shape.  Each element goes through the
    same float operations in the same order as a lone number would, so
    an array gives the bits of element-by-element calls.
    """

    def __init__(self, time_breakpoints, thrust_values, initial_mass, propellant_mass):
        self.times = tuple(float(t) for t in time_breakpoints)
        self.values = tuple(float(v) for v in thrust_values)
        self.initial_mass = float(initial_mass)
        self.propellant_mass = float(propellant_mass)
        if len(self.times) != len(self.values):
            raise ValueError("thrust table breakpoints/values mismatch")
        if not self.times:
            raise ValueError("thrust table has no rows")
        if any(b >= a for a, b in zip(self.times[1:], self.times[:-1])):
            raise ValueError("thrust breakpoints must be strictly ascending")
        if any(v < 0.0 for v in self.values):
            raise ValueError("thrust must be non-negative")
        if not (self.initial_mass > 0.0 and 0.0 <= self.propellant_mass < self.initial_mass):
            raise ValueError("need 0 <= propellant mass < initial mass")
        # The trapezoid total impulse; mass flow is thrust * propellant /
        # impulse.  One segment-table row (start, width, start thrust,
        # thrust change, impulse burnt before it) per table interval,
        # padded with a zero-thrust row before ignition and one from
        # burnout on that holds the whole burnt impulse (a pad's width of
        # 1 keeps its division finite).  The burnt impulses sum whole
        # segments through _burnt, so they can differ from the total by
        # an ulp.
        ts, vs = self.times, self.values
        imp = 0.0
        table = [(ts[0], 1.0, 0.0, 0.0, 0.0)]
        for a, b, v0, v1 in zip(ts, ts[1:], vs, vs[1:]):
            imp += 0.5 * (v0 + v1) * (b - a)
            table.append((a, b - a, v0, v1 - v0, _burnt(*table[-1], a)))
        self.total_impulse = imp
        table.append((ts[-1], 1.0, 0.0, 0.0, _burnt(*table[-1], ts[-1])))
        self._table = tuple(table)
        self.burnout_time = ts[-1]

    # Made on first use, so that loading a dataset calls no numpy.
    @cached_property
    def burnout_mass(self) -> float:
        """The mass from :attr:`burnout_time` on, with the whole table's
        impulse burnt."""
        return float(self._mass_after(self._table[-1][4]))

    @cached_property
    def _arrays(self) -> tuple:
        """The breakpoints, and the segment table's five columns."""
        return np.array(self.times), np.array(self._table).T

    def _segment(self, t):
        """The five segment-table columns at each time of ``t``."""
        times, columns = self._arrays
        return columns[:, np.searchsorted(times, t, side="right")]

    def thrust(self, t):
        """Interpolated thrust; zero before the first breakpoint and from
        the last on, where :meth:`impulse_to` counts no impulse either."""
        a, w, v0, dv, _ = self._segment(t)
        return v0 + (t - a) / w * dv

    def mass_flow(self, thrust):
        """Mass flow at a given thrust level (burn rate is proportional)."""
        if self.total_impulse <= 0.0:
            return thrust * 0.0  # a table that burns no impulse burns no mass
        return thrust * self.propellant_mass / self.total_impulse

    def impulse_to(self, t):
        """Impulse delivered up to ``t``; exact for the piecewise-linear table."""
        return _burnt(*self._segment(t), t)

    def mass_at(self, t):
        """Vehicle mass at ``t`` from the exact burnt-impulse fraction."""
        return self._mass_after(self.impulse_to(t))

    def _mass_after(self, impulse):
        if self.total_impulse <= 0.0:
            return self.initial_mass + impulse  # nothing burns: the impulse is 0
        # the burnt impulse can pass the trapezoid total by an ulp
        return self.initial_mass - self.propellant_mass * np.minimum(
            impulse / self.total_impulse, 1.0)


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


def _where(n: int, section: str) -> str:
    """Where dataset line ``n`` in ``[section]`` is, for an error message."""
    return "airframe dataset line %d in [%s]" % (n, section)


def _dataset_number(text: str, n: int, section: str) -> float:
    """The finite number ``text`` on dataset line ``n`` in ``[section]``."""
    try:
        v = float(text)
    except ValueError as exc:
        raise ValueError("%s: %s" % (_where(n, section), exc)) from None
    if not math.isfinite(v):
        raise ValueError("%s: non-finite dataset value %r" % (_where(n, section), text))
    return v


# What each dataset section holds: these ``key = value`` lines, each
# once, or (where it names no keys) whitespace-separated number rows.
DATASET_SECTIONS = {
    "airframe": ("reference_area", "reference_length", "transverse_inertia"),
    "mass": ("initial_mass", "propellant_mass"),
    "aero": (),
    "thrust": (),
}


def _misplaced(n: int, section: str, line: str) -> str:
    """Why dataset line ``n``, ``line``, does not belong in ``[section]``."""
    where = _where(n, section)
    keys = DATASET_SECTIONS[section]
    if not keys:
        return "%s: expected a row of numbers, got %r" % (where, line)
    if "=" not in line:
        return "%s: expected 'key = value', got %r" % (where, line)
    key = line.split("=", 1)[0].strip()
    if key in keys:
        return "%s repeats key %r" % (where, key)
    return "%s: unknown key %r, expected one of %s" % (where, key, ", ".join(keys))


def _parse_dataset(text: str) -> dict:
    """The sections of a dataset, a dict of values for a keyed section
    and a list of rows for a table; refuses what
    :data:`DATASET_SECTIONS` does not expect."""
    sections: dict = {}
    current = None
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            if current not in DATASET_SECTIONS:
                raise ValueError("airframe dataset line %d: unknown section [%s]"
                                 % (n, current))
            if current in sections:
                raise ValueError("airframe dataset line %d repeats section [%s]"
                                 % (n, current))
            sections[current] = {} if DATASET_SECTIONS[current] else []
            continue
        if current is None:
            raise ValueError("airframe dataset line %d: %r before any [section] header"
                             % (n, line))
        keys, content = DATASET_SECTIONS[current], sections[current]
        if not keys and "=" not in line:
            content.append([_dataset_number(v, n, current) for v in line.split()])
            continue
        if keys and "=" in line:
            key, val = (s.strip() for s in line.split("=", 1))
            if key in keys and key not in content:
                content[key] = _dataset_number(val, n, current)
                continue
        raise ValueError(_misplaced(n, current, line))
    for name, keys in DATASET_SECTIONS.items():
        if name not in sections:
            raise ValueError("airframe dataset missing section %r" % name)
        for key in keys:
            if key not in sections[name]:
                raise ValueError("airframe dataset section [%s] missing key %r"
                                 % (name, key))
    return sections


# The generic dataset shipped in the package's data directory, opened by
# its path: importlib.resources would import that directory as a
# namespace package first, which costs more than parsing the file.
_BUILTIN_DATASET = os.path.join(os.path.dirname(__file__), "data", "generic_airframe.txt")


def load_airframe(path: str | None = None) -> Airframe:
    """Load an airframe dataset file; ``None`` loads the bundled generic one."""
    with open(_BUILTIN_DATASET if path is None else path) as fh:
        text = fh.read()
    sec = _parse_dataset(text)
    air, mass = sec["airframe"], sec["mass"]
    aero_rows, thrust_rows = sec["aero"], sec["thrust"]
    for r in thrust_rows:
        if len(r) != 2:
            raise ValueError("thrust row at t=%g holds %d numbers, expected 2 (time, thrust)"
                             % (r[0], len(r)))
    table = AeroTable(
        mach_breakpoints=[r[0] for r in aero_rows],
        rows=[r[1:] for r in aero_rows],
        reference_area=air["reference_area"],
        reference_length=air["reference_length"],
    )
    profile = ThrustProfile(
        time_breakpoints=[r[0] for r in thrust_rows],
        thrust_values=[r[1] for r in thrust_rows],
        initial_mass=mass["initial_mass"],
        propellant_mass=mass["propellant_mass"],
    )
    inertia = air["transverse_inertia"]
    if not inertia > 0.0:
        raise ValueError("transverse_inertia must be > 0, got %g" % inertia)
    return Airframe(table=table, thrust=profile, transverse_inertia=inertia)
