import dataclasses

from pgsim import airframe as af
from pgsim import config as cf


def schema_config(section, **overrides):
    """The typed config of ``section`` built from the config schema
    (``config.DEFAULTS``), with ``overrides`` replacing its fields."""
    return dataclasses.replace(cf.build_setup(cf.resolve())[section], **overrides)


def state_derivative(x, dp, dyaw, row, sref, lref, inv_i, thrust, mdot, rho):
    """The derivative of the whole 11-state ``x`` (position, velocity,
    pitch, yaw, body rates, mass): the position rate is the velocity,
    the attitude rate the body rates and the mass rate ``-mdot``; the
    accelerations come from the airframe kernel."""
    _, _, _, vx, vy, vz, _, _, q_rate, r_rate, _ = x
    ax, ay, az, q_dot, r_dot = af.vehicle_rhs(*x[3:], dp, dyaw, row, sref, lref,
                                              inv_i, thrust, rho)
    return (vx, vy, vz, ax, ay, az, q_rate, r_rate, q_dot, r_dot, -mdot)
