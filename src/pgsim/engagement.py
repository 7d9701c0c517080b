"""Closed-loop engagement simulation and the metrics derived from it.

One engagement integrates target kinematics, the seeker lag, one
observer per LOS channel, PN guidance with the fin autopilot, and the
5-DOF airframe on a shared fixed step, then refines the closest approach
below the step size.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import airframe as af
from . import guidance as gd
from . import observer as ob
from . import seeker as sk
from . import targets as tg

__all__ = [
    "EngagementConfig",
    "EngagementRecord",
    "MetricsReport",
    "run_engagement",
    "miss_distance",
    "los_rmse",
    "commanded_accel_stats",
    "compute_metrics",
]

CSV_COLUMNS = (
    "t", "lam_true_p", "lam_true_y", "lam_del_p", "lam_del_y",
    "lam_pred_p", "lam_pred_y", "acc_cmd_p", "acc_cmd_y",
    "defl_p", "defl_y", "mx", "my", "mz", "tx", "ty", "tz", "range",
)

# one recorded step: CSV_COLUMNS, then missile and target velocity
_ROW = struct.Struct("%dd" % (len(CSV_COLUMNS) + 6))
# rows per block that write_csv converts to Python floats at a time
CSV_BLOCK_ROWS = 1024

# a failed run: its miss is no data point
FAILURES = ("observer_divergence", "vehicle_divergence", "altitude_ceiling")
TERMINATIONS = ("closest_approach", "ground_impact", "timeout") + FAILURES


@dataclass(frozen=True)
class EngagementConfig:
    observer: ob.ObserverConfig
    seeker: sk.SeekerConfig
    guidance: gd.GuidanceConfig
    autopilot: gd.AutopilotConfig
    target: tg.TargetConfig
    airframe: af.Airframe
    dt: float
    max_time: float
    launch_speed: float
    launch_elevation: float  # rad

    @staticmethod
    def from_setup(setup: dict) -> "EngagementConfig":
        eng = setup["engagement"]
        return EngagementConfig(
            observer=setup["observer"], seeker=setup["seeker"],
            guidance=setup["guidance"], autopilot=setup["autopilot"],
            target=setup["target"], airframe=setup["airframe"],
            dt=float(eng["dt"]), max_time=float(eng["max_time"]),
            launch_speed=float(eng["launch_speed"]),
            launch_elevation=math.radians(float(eng["launch_elevation_deg"])),
        )


@dataclass
class EngagementRecord:
    """Per-step series plus the terminal outcome of one engagement."""

    series: dict                      # column name -> numpy array
    missile_velocity: np.ndarray      # (n, 3), kept for refinement
    target_velocity: np.ndarray       # (n, 3)
    miss_distance: float
    miss_time: float
    termination_reason: str
    source_switch_time: float | None  # warm-up handoff instant, if gated
    diagnostic: str = ""

    def __len__(self):
        return len(self.series["t"])

    def write_csv(self, path) -> None:
        """Write the series, converting :data:`CSV_BLOCK_ROWS` rows at a
        time so that no Python copy of the whole table is ever held."""
        cols = [self.series[c] for c in CSV_COLUMNS]
        with open(path, "w") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for i in range(0, len(self), CSV_BLOCK_ROWS):
                block = np.array([c[i:i + CSV_BLOCK_ROWS] for c in cols], dtype=float).T
                for row in block.tolist():
                    fh.write(",".join(map(repr, row)) + "\n")


@dataclass(frozen=True)
class MetricsReport:
    rmse_delayed: float
    rmse_predicted: float
    rmse_delayed_full: float
    rmse_predicted_full: float
    miss_distance: float
    peak_accel_cmd: float
    integrated_abs_deflection: float


def run_engagement(config: EngagementConfig) -> EngagementRecord:
    """Simulate one engagement to termination.

    Never raises for in-flight failures: they terminate the record with
    one of :data:`FAILURES` and a diagnostic message.  A non-finite
    observer state is ``observer_divergence``; a non-finite vehicle state
    or an airframe step that fails is ``vehicle_divergence``, except above
    the atmosphere model's ceiling, which is ``altitude_ceiling``.
    """
    dt = config.dt
    n_max = int(round(config.max_time / dt))
    frame = config.airframe
    obs_cfg = config.observer
    coeffs = obs_cfg.coefficients()
    coupled = obs_cfg.coupled_step1
    guid = config.guidance
    target = config.target
    tvx, tvy = tg.ground_velocity(target)
    lag = sk.lag_coefficients(dt, config.seeker)
    ap = config.autopilot
    gain, lim = ap.accel_to_deflection_gain, ap.deflection_limit
    act_a, act_b = gd.actuator_coefficients(dt, ap)

    tx, ty, _, _ = tg.target_state(0.0, target, tvx, tvy)
    az = math.atan2(ty, tx)
    el = config.launch_elevation
    bx, _, _ = af.body_axes(el, az)
    vehicle = (
        0.0, 0.0, 0.0,
        config.launch_speed * bx[0], config.launch_speed * bx[1],
        config.launch_speed * bx[2],
        el, az, 0.0, 0.0,
        frame.thrust.initial_mass,
    )

    rows = bytearray()  # one packed _ROW per step
    pack = _ROW.pack
    delayed = obs_p = obs_y = None  # set on the first step
    defl_p = defl_y = 0.0
    termination = "timeout"
    diagnostic = ""

    range_min = math.inf
    rising = 0

    for n in range(n_max + 1):
        t = n * dt
        tx, ty, tz, tvz = tg.target_state(t, target, tvx, tvy)
        mx, my, mz, mvx, mvy, mvz = vehicle[:6]
        rx = tx - mx
        ry = ty - my
        rz = tz - mz
        rng = math.sqrt(rx * rx + ry * ry + rz * rz)
        if not (math.isfinite(rng) and math.isfinite(mvx) and math.isfinite(vehicle[6])):
            termination = "vehicle_divergence"
            diagnostic = "non-finite vehicle state at t=%g" % t
            break
        rvx = tvx - mvx
        rvy = tvy - mvy
        rvz = tvz - mvz
        try:
            true_rate = sk.los_rate_channels((rx, ry, rz), (rvx, rvy, rvz))
        except ValueError:
            termination = "closest_approach"
            break
        vc = -(rx * rvx + ry * rvy + rz * rvz) / rng

        if n == 0:
            delayed = true_rate
            obs_p = (true_rate[0], 0.0, 0.0, 0.0, true_rate[0], 0.0, 0.0, 0.0)
            obs_y = (true_rate[1], 0.0, 0.0, 0.0, true_rate[1], 0.0, 0.0, 0.0)
        else:
            delayed = sk.delay_step(delayed, true_rate, lag)
        predicted = (obs_p[4], obs_y[4])

        los = gd.select_source(t, guid, true_rate, delayed, predicted)
        acc_p, acc_y = gd.pn_command(los, vc, guid)
        defl_p = gd.autopilot_step(acc_p, defl_p, gain, lim, act_a, act_b)
        defl_y = gd.autopilot_step(acc_y, defl_y, gain, lim, act_a, act_b)

        rows += pack(t, true_rate[0], true_rate[1], delayed[0], delayed[1],
                     predicted[0], predicted[1], acc_p, acc_y, defl_p, defl_y,
                     mx, my, mz, tx, ty, tz, rng,
                     mvx, mvy, mvz, tvx, tvy, tvz)

        # termination checks on the recorded sample
        if rng > range_min:
            rising += 1
            if rising >= 3:
                termination = "closest_approach"
                break
        else:
            range_min = rng
            rising = 0
        if mz <= 0.0 and mvz < 0.0:
            termination = "ground_impact"
            break
        if n == n_max:
            termination = "timeout"
            break

        # advance observer (ZOH on the delayed signal) and the airframe
        try:
            obs_p = ob.rk4_step8(obs_p, delayed[0], dt, coeffs, coupled)
            obs_y = ob.rk4_step8(obs_y, delayed[1], dt, coeffs, coupled)
            if not (math.isfinite(obs_p[4]) and math.isfinite(obs_y[4])):
                raise ValueError("observer state non-finite at t=%g" % t)
        except (ValueError, OverflowError) as exc:
            termination = "observer_divergence"
            diagnostic = "integration failed at t=%g: %s" % (t, exc)
            break
        try:
            vehicle = _vehicle_rk4(vehicle, (defl_p, defl_y), frame, t, dt)
        except (ValueError, OverflowError) as exc:
            # the atmosphere model raises for the step-start altitude mz
            termination = ("altitude_ceiling" if mz > af.ISA_CEILING
                           else "vehicle_divergence")
            diagnostic = "integration failed at t=%g: %s" % (t, exc)
            break

    # a zero-copy view: the series and both velocities are its columns
    data = np.frombuffer(rows, dtype=float).reshape(-1, len(CSV_COLUMNS) + 6)
    # guidance took the prediction only if a recorded step reached the warm-up
    switch_time = (guid.warmup if guid.source == "predicted" and len(data) > 0
                   and data[-1, 0] >= guid.warmup else None)
    record = EngagementRecord(
        series=dict(zip(CSV_COLUMNS, data.T)),
        missile_velocity=data[:, -6:-3],
        target_velocity=data[:, -3:],
        miss_distance=math.nan, miss_time=math.nan,
        termination_reason=termination,
        source_switch_time=switch_time,
        diagnostic=diagnostic,
    )
    if len(record) > 0:
        d, tm = miss_distance(record)
        record.miss_distance = d
        record.miss_time = tm
    return record


def _vehicle_rk4(x: tuple, deflections: tuple, frame: af.Airframe,
                 t: float, dt: float) -> tuple:
    """One RK4 step of the airframe with deflections held over the step.

    The ambient sample and the interpolated aero row are frozen at the
    step start (their within-step variation is negligible at the fixed
    step sizes used here), and the mass is reset from the exact
    burnt-impulse integral after the step.  The stages are classical RK4
    on the 11-state derivative: :func:`pgsim.airframe.vehicle_rhs` gives
    the accelerations, the position and attitude rates are the stage
    velocities and body rates, and the mass rate is minus the mass flow.
    From burnout on, thrust and mass flow are zero and the mass after the
    step is the burnout mass.
    """
    px, py, pz, vx, vy, vz, pitch, yaw, q, r, m = x
    rho, sound, _, _ = af.atmosphere(pz)
    speed = math.sqrt(vx * vx + vy * vy + vz * vz)
    table = frame.table
    row = table.interpolate(speed / sound)
    sref = table.reference_area
    lref = table.reference_length
    inv_i = 1.0 / frame.transverse_inertia
    dp, dyaw = deflections
    prof = frame.thrust
    h2 = dt * 0.5
    if t < prof.burnout_time:
        th0 = prof.thrust(t)
        th1 = prof.thrust(t + h2)
        th2 = prof.thrust(t + dt)
        md0 = prof.mass_flow(th0)
        md1 = prof.mass_flow(th1)
        # m + h * (-mdot) of the full-state stage, rounded the same way
        m1 = m - h2 * md0
        m2 = m - h2 * md1
        m3 = m - dt * md1
        m_end = prof.mass_at(t + dt)
    else:
        th0 = th1 = th2 = 0.0
        m1 = m2 = m3 = m
        m_end = prof.burnout_mass
    rhs = af.vehicle_rhs
    ax0, ay0, az0, qd0, rd0 = rhs(vx, vy, vz, pitch, yaw, q, r, m,
                                  dp, dyaw, row, sref, lref, inv_i, th0, rho)
    vx1 = vx + h2 * ax0
    vy1 = vy + h2 * ay0
    vz1 = vz + h2 * az0
    q1 = q + h2 * qd0
    r1 = r + h2 * rd0
    ax1, ay1, az1, qd1, rd1 = rhs(vx1, vy1, vz1, pitch + h2 * q, yaw + h2 * r, q1, r1, m1,
                                  dp, dyaw, row, sref, lref, inv_i, th1, rho)
    vx2 = vx + h2 * ax1
    vy2 = vy + h2 * ay1
    vz2 = vz + h2 * az1
    q2 = q + h2 * qd1
    r2 = r + h2 * rd1
    ax2, ay2, az2, qd2, rd2 = rhs(vx2, vy2, vz2, pitch + h2 * q1, yaw + h2 * r1, q2, r2, m2,
                                  dp, dyaw, row, sref, lref, inv_i, th1, rho)
    vx3 = vx + dt * ax2
    vy3 = vy + dt * ay2
    vz3 = vz + dt * az2
    q3 = q + dt * qd2
    r3 = r + dt * rd2
    ax3, ay3, az3, qd3, rd3 = rhs(vx3, vy3, vz3, pitch + dt * q2, yaw + dt * r2, q3, r3, m3,
                                  dp, dyaw, row, sref, lref, inv_i, th2, rho)
    h6 = dt / 6.0
    return (
        px + h6 * (vx + 2.0 * (vx1 + vx2) + vx3),
        py + h6 * (vy + 2.0 * (vy1 + vy2) + vy3),
        pz + h6 * (vz + 2.0 * (vz1 + vz2) + vz3),
        vx + h6 * (ax0 + 2.0 * (ax1 + ax2) + ax3),
        vy + h6 * (ay0 + 2.0 * (ay1 + ay2) + ay3),
        vz + h6 * (az0 + 2.0 * (az1 + az2) + az3),
        pitch + h6 * (q + 2.0 * (q1 + q2) + q3),
        yaw + h6 * (r + 2.0 * (r1 + r2) + r3),
        q + h6 * (qd0 + 2.0 * (qd1 + qd2) + qd3),
        r + h6 * (rd0 + 2.0 * (rd1 + rd2) + rd3),
        m_end,
    )


def miss_distance(record: EngagementRecord) -> tuple:
    """Minimum missile-target separation with sub-step refinement.

    Fits a quadratic to the squared range at the three samples around
    the discrete minimum; squared range is exactly quadratic for locally
    linear relative motion, so the vertex is the refined miss.
    """
    if len(record) == 0:
        raise ValueError("empty engagement record")
    rng = record.series["range"]
    ts = record.series["t"]
    i = int(np.argmin(rng))
    if i == 0 or i == len(rng) - 1:
        return float(rng[i]), float(ts[i])
    t0, t1 = ts[i - 1], ts[i]
    f0, f1, f2 = rng[i - 1] ** 2, rng[i] ** 2, rng[i + 1] ** 2
    # quadratic through three equally spaced samples.  The first argmin
    # is interior and squaring is strictly increasing on floats, so
    # f0 > f1 <= f2: the curvature a is positive and the vertex lies
    # within h/2 of t1, so no fit is degenerate.
    h = t1 - t0
    a = (f0 - 2.0 * f1 + f2) / (2.0 * h * h)
    b = (f2 - f0) / (2.0 * h)
    dt_star = -b / (2.0 * a)
    val = f1 + b * dt_star + a * dt_star * dt_star
    return math.sqrt(max(val, 0.0)), float(t1 + dt_star)


def los_rmse(predicted_series, reference_series, delta: float, dt: float,
             exclude_before: float = 0.0, min_samples: int = 1) -> float:
    """RMSE of a horizon-ahead prediction against the shifted reference.

    Sample i of ``predicted_series`` is compared with sample
    i + delta/dt of ``reference_series``; ``delta`` must sit on the step
    grid.  Series are (n, 2) channel arrays or 1-D; the result is the
    root of the mean of the per-channel mean squared errors.  Samples
    before ``exclude_before`` seconds are dropped.  Engagement metrics
    demand at least 100 overlapping samples; the default permits the
    short hand-checked series used in unit tests.
    """
    pred = np.atleast_2d(np.asarray(predicted_series, dtype=float).T).T
    ref = np.atleast_2d(np.asarray(reference_series, dtype=float).T).T
    shift_f = delta / dt
    shift = int(round(shift_f))
    if abs(shift_f - shift) > 1e-9:
        raise ValueError("delta=%g is not an integer multiple of dt=%g" % (delta, dt))
    start = int(math.ceil(exclude_before / dt - 1e-9))
    n = min(len(pred), len(ref) - shift)
    if n - start < max(min_samples, 1):
        raise ValueError("fewer than %d overlapping samples after alignment"
                         % max(min_samples, 1))
    err = pred[start:n] - ref[start + shift:n + shift]
    return float(math.sqrt(np.mean(np.mean(err ** 2, axis=0))))


def commanded_accel_stats(record: EngagementRecord) -> dict:
    """Peak acceleration demand and the time integral of fin travel."""
    if len(record) == 0:
        raise ValueError("empty engagement record")
    s = record.series
    mag = np.hypot(s["acc_cmd_p"], s["acc_cmd_y"])
    defl = np.abs(s["defl_p"]) + np.abs(s["defl_y"])
    integral = float(np.trapezoid(defl, s["t"])) if len(record) > 1 else 0.0
    return {"peak": float(np.max(mag)), "integral_abs_deflection": integral}


def compute_metrics(record: EngagementRecord, config: EngagementConfig) -> MetricsReport:
    """Engagement-level metrics; RMSE entries are NaN when the series is
    too short to align."""
    s = record.series
    dt = config.dt
    delta = config.observer.delta
    delta_aligned = round(delta / dt) * dt
    true_series = np.column_stack([s["lam_true_p"], s["lam_true_y"]])
    pred_series = np.column_stack([s["lam_pred_p"], s["lam_pred_y"]])
    del_series = np.column_stack([s["lam_del_p"], s["lam_del_y"]])
    warm = config.guidance.warmup

    def safe(series, exclude):
        try:
            return los_rmse(series, true_series, delta_aligned, dt, exclude,
                            min_samples=100)
        except ValueError:
            return math.nan

    stats = commanded_accel_stats(record)
    return MetricsReport(
        rmse_delayed=safe(del_series, warm),
        rmse_predicted=safe(pred_series, warm),
        rmse_delayed_full=safe(del_series, 0.0),
        rmse_predicted_full=safe(pred_series, 0.0),
        miss_distance=record.miss_distance,
        peak_accel_cmd=stats["peak"],
        integrated_abs_deflection=stats["integral_abs_deflection"],
    )
