import bisect
import dataclasses
import os
import time

import pytest

from pgsim import airframe as af
from pgsim import config as cf
from pgsim import engagement as en
from pgsim import montecarlo as mc


def schema_config(section, **overrides):
    """The typed config of ``section`` built from the config schema
    (``config.DEFAULTS``), with ``overrides`` replacing its fields."""
    return dataclasses.replace(cf.build_setup(cf.resolve())[section], **overrides)


def engagement_config(overrides=None):
    """The engagement config of the config schema's defaults, with
    ``overrides`` (dotted key -> value) set in the document first."""
    cfg = cf.resolve()
    for key, value in (overrides or {}).items():
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node[p]
        node[parts[-1]] = value
    return en.EngagementConfig.from_setup(cf.build_setup(cfg))


def state_derivative(x, dp, dyaw, row, sref, lref, inv_i, thrust, mdot, rho):
    """The derivative of the whole 11-state ``x`` (position, velocity,
    pitch, yaw, body rates, mass): the position rate is the velocity,
    the attitude rate the body rates and the mass rate ``-mdot``; the
    accelerations come from the airframe kernel."""
    _, _, _, vx, vy, vz, _, _, q_rate, r_rate, _ = x
    ax, ay, az, q_dot, r_dot = af.vehicle_rhs(*x[3:], dp, dyaw, row, sref, lref,
                                              inv_i, thrust, rho)
    return (vx, vy, vz, ax, ay, az, q_rate, r_rate, q_dot, r_dot, -mdot)


def thrust_at(prof, t):
    """The thrust of ``prof`` at the time ``t``, one float at a time:
    the bit-level reference of ``ThrustProfile.thrust``."""
    ts, vs = prof.times, prof.values
    if t < ts[0] or t >= ts[-1]:
        return 0.0  # not yet ignited, or burnt out
    i = bisect.bisect_right(ts, t) - 1
    f = (t - ts[i]) / (ts[i + 1] - ts[i])
    return vs[i] + f * (vs[i + 1] - vs[i])


def mass_flow_at(prof, thrust):
    """The reference of ``ThrustProfile.mass_flow``."""
    if prof.total_impulse <= 0.0:
        return 0.0
    return thrust * prof.propellant_mass / prof.total_impulse


def impulse_to(prof, t):
    """The reference of ``ThrustProfile.impulse_to``: the whole segments
    before ``t``, each with its end value interpolated, then the partial
    segment up to ``t``."""
    ts, vs = prof.times, prof.values
    if t <= ts[0]:
        return 0.0
    burnt = 0.0
    for i in range(len(ts) - 1):
        if t < ts[i + 1]:
            v1 = vs[i] + (vs[i + 1] - vs[i]) * (t - ts[i]) / (ts[i + 1] - ts[i])
            return burnt + 0.5 * (vs[i] + v1) * (t - ts[i])
        w = ts[i + 1] - ts[i]
        burnt += 0.5 * (vs[i] + (vs[i] + (vs[i + 1] - vs[i]) * w / w)) * w
    return burnt


def mass_at(prof, t):
    """The reference of ``ThrustProfile.mass_at``."""
    if prof.total_impulse <= 0.0:
        return prof.initial_mass
    frac = impulse_to(prof, min(t, prof.burnout_time)) / prof.total_impulse
    if frac > 1.0:  # min(frac, 1.0), including its NaN handling
        frac = 1.0
    return prof.initial_mass - prof.propellant_mass * frac


def boost_row(prof, t, dt):
    """What the airframe step from ``t`` reads of ``prof``: the row of
    ``engagement._boost_schedule`` before burnout, the coast row from it
    on."""
    if t >= prof.burnout_time:
        return (0.0,) * 6 + (mass_at(prof, prof.burnout_time),)
    h2 = dt * 0.5
    th0, th1 = thrust_at(prof, t), thrust_at(prof, t + h2)
    md0, md1 = mass_flow_at(prof, th0), mass_flow_at(prof, th1)
    return (th0, th1, thrust_at(prof, t + dt), h2 * md0, h2 * md1, dt * md1,
            mass_at(prof, t + dt))


def rhs8(x, v, coeffs):
    """Time derivatives of the eight observer states for input sample
    ``v``: the oracle that :func:`rk4_from_rhs8` composes RK4 from.

    ``x`` is (x11, x21, x31, x41, x12, x22, x32, x42); ``coeffs`` is the
    tuple from ``ObserverConfig.coefficients``.
    """
    x11, x21, x31, x41, x12, x22, x32, x42 = x
    b1, b2, b3, b4, g1, g2, g3, g4 = coeffs
    e = v - x11
    return (
        x21 + b1 * e,
        x31 + b2 * e,
        x41 + b3 * e,
        b4 * e,
        x22 + g1 * e,
        x32 + g2 * e,
        x42 + g3 * e,
        g4 * e,
    )


def rk4_from_rhs8(x, v, dt, coeffs):
    """Classical RK4 composed from :func:`rhs8`: the observer reference.
    ``v`` is a sample held over the step, or a (start, midpoint, end)
    triple of stage samples, which makes the step fourth-order accurate
    in the input as well."""
    v0, vm, v1 = v if isinstance(v, tuple) else (v, v, v)
    h2 = dt * 0.5
    k1 = rhs8(x, v0, coeffs)
    k2 = rhs8(tuple(a + h2 * b for a, b in zip(x, k1)), vm, coeffs)
    k3 = rhs8(tuple(a + h2 * b for a, b in zip(x, k2)), vm, coeffs)
    k4 = rhs8(tuple(a + dt * b for a, b in zip(x, k3)), v1, coeffs)
    h6 = dt / 6.0
    return tuple(a + h6 * (p + 2.0 * (q + r) + s)
                 for a, p, q, r, s in zip(x, k1, k2, k3, k4))


@pytest.fixture(scope="session")
def default_sweep():
    """The 400-run sweep of the config schema's defaults on all cores,
    flown once per session: (sweep config, summary, elapsed seconds)."""
    sweep = cf.build_sweep(cf.resolve())
    start = time.monotonic()
    summary = mc.run_sweep(sweep, jobs=os.cpu_count() or 1)
    return sweep, summary, time.monotonic() - start
