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


def state_derivative(x, dp, dyaw, row, sref, lref, inv_i, thrust, mdot, rho):
    """The derivative of the whole 11-state ``x`` (position, velocity,
    pitch, yaw, body rates, mass): the position rate is the velocity,
    the attitude rate the body rates and the mass rate ``-mdot``; the
    accelerations come from the airframe kernel."""
    _, _, _, vx, vy, vz, _, _, q_rate, r_rate, _ = x
    ax, ay, az, q_dot, r_dot = af.vehicle_rhs(*x[3:], dp, dyaw, row, sref, lref,
                                              inv_i, thrust, rho)
    return (vx, vy, vz, ax, ay, az, q_rate, r_rate, q_dot, r_dot, -mdot)


@pytest.fixture(scope="session")
def default_sweep():
    """The 400-run sweep of the config schema's defaults on all cores,
    flown once per session: (sweep config, summary, elapsed seconds)."""
    cfg = cf.resolve()
    sweep = mc.SweepConfig(
        delays=tuple(cfg["sweep"]["delays"]),
        samples_per_delay=cfg["sweep"]["samples_per_delay"],
        master_seed=cfg["seed"],
        sources=tuple(cfg["sweep"]["sources"]),
        base=en.EngagementConfig.from_setup(cf.build_setup(cfg)),
    )
    start = time.monotonic()
    summary = mc.run_sweep(sweep, jobs=os.cpu_count() or 1)
    return sweep, summary, time.monotonic() - start
