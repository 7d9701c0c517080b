"""Closed-loop engagement simulation and the metrics derived from it.

One engagement integrates target kinematics, the seeker lag, one
observer per LOS channel, PN guidance with the fin autopilot, and the
5-DOF airframe on a shared fixed step, then refines the closest approach
below the step size.
"""

from __future__ import annotations

import math
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

TERMINATIONS = ("closest_approach", "ground_impact", "timeout", "observer_divergence")


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

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.dt > self.observer.epsilon / 4.0:
            raise ValueError("dt=%g exceeds the observer stiffness guard "
                             "epsilon/4=%g" % (self.dt, self.observer.epsilon / 4.0))
        if not self.max_time > 0.0:
            raise ValueError("max_time must be positive")

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
        with open(path, "w") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            rows = np.array([self.series[c] for c in CSV_COLUMNS], dtype=float).T
            for row in rows.tolist():
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

    Never raises for in-flight failures: observer divergence or a
    non-finite vehicle state terminates the record with reason
    ``observer_divergence`` and a diagnostic message.
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

    rows: list = []  # one tuple per step: CSV_COLUMNS, missile and target velocity
    delayed = obs_p = obs_y = None  # set on the first step
    defl_p = defl_y = 0.0
    termination = "timeout"
    diagnostic = ""
    switch_time = guid.warmup if guid.source == "predicted" else None

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
            termination = "observer_divergence"
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

        rows.append((t, true_rate[0], true_rate[1], delayed[0], delayed[1],
                     predicted[0], predicted[1], acc_p, acc_y, defl_p, defl_y,
                     mx, my, mz, tx, ty, tz, rng,
                     mvx, mvy, mvz, tvx, tvy, tvz))

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
            vehicle = _vehicle_rk4(vehicle, (defl_p, defl_y), frame, t, dt)
        except (ValueError, OverflowError) as exc:
            termination = "observer_divergence"
            diagnostic = "integration failed at t=%g: %s" % (t, exc)
            break

    data = np.array(rows, dtype=float).reshape(-1, len(CSV_COLUMNS) + 6)
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
    on :func:`pgsim.airframe.vehicle_rhs`.
    """
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10 = x
    atm = af.atmosphere(max(x2, 0.0))
    speed = math.sqrt(x3 * x3 + x4 * x4 + x5 * x5)
    table = frame.table
    row = table.interpolate(speed / atm.speed_of_sound)
    sref = table.reference_area
    lref = table.reference_length
    inv_i = 1.0 / frame.transverse_inertia
    dp, dyaw = deflections
    rho = atm.density
    prof = frame.thrust
    h2 = dt * 0.5
    th0 = prof.thrust(t)
    th1 = prof.thrust(t + h2)
    th2 = prof.thrust(t + dt)
    md0 = prof.mass_flow(th0)
    md1 = prof.mass_flow(th1)
    md2 = prof.mass_flow(th2)
    rhs = af.vehicle_rhs
    p = rhs(x, dp, dyaw, row, sref, lref, inv_i, th0, md0, rho)
    q = rhs((x0 + h2 * p[0], x1 + h2 * p[1], x2 + h2 * p[2],
             x3 + h2 * p[3], x4 + h2 * p[4], x5 + h2 * p[5],
             x6 + h2 * p[6], x7 + h2 * p[7], x8 + h2 * p[8],
             x9 + h2 * p[9], x10 + h2 * p[10]),
            dp, dyaw, row, sref, lref, inv_i, th1, md1, rho)
    r = rhs((x0 + h2 * q[0], x1 + h2 * q[1], x2 + h2 * q[2],
             x3 + h2 * q[3], x4 + h2 * q[4], x5 + h2 * q[5],
             x6 + h2 * q[6], x7 + h2 * q[7], x8 + h2 * q[8],
             x9 + h2 * q[9], x10 + h2 * q[10]),
            dp, dyaw, row, sref, lref, inv_i, th1, md1, rho)
    s = rhs((x0 + dt * r[0], x1 + dt * r[1], x2 + dt * r[2],
             x3 + dt * r[3], x4 + dt * r[4], x5 + dt * r[5],
             x6 + dt * r[6], x7 + dt * r[7], x8 + dt * r[8],
             x9 + dt * r[9], x10 + dt * r[10]),
            dp, dyaw, row, sref, lref, inv_i, th2, md2, rho)
    h6 = dt / 6.0
    return (
        x0 + h6 * (p[0] + 2.0 * (q[0] + r[0]) + s[0]),
        x1 + h6 * (p[1] + 2.0 * (q[1] + r[1]) + s[1]),
        x2 + h6 * (p[2] + 2.0 * (q[2] + r[2]) + s[2]),
        x3 + h6 * (p[3] + 2.0 * (q[3] + r[3]) + s[3]),
        x4 + h6 * (p[4] + 2.0 * (q[4] + r[4]) + s[4]),
        x5 + h6 * (p[5] + 2.0 * (q[5] + r[5]) + s[5]),
        x6 + h6 * (p[6] + 2.0 * (q[6] + r[6]) + s[6]),
        x7 + h6 * (p[7] + 2.0 * (q[7] + r[7]) + s[7]),
        x8 + h6 * (p[8] + 2.0 * (q[8] + r[8]) + s[8]),
        x9 + h6 * (p[9] + 2.0 * (q[9] + r[9]) + s[9]),
        prof.mass_at(t + dt),
    )


def miss_distance(record: EngagementRecord) -> tuple:
    """Minimum missile-target separation with sub-step refinement.

    Fits a quadratic to the squared range at the three samples around
    the discrete minimum; squared range is exactly quadratic for locally
    linear relative motion, so the vertex is the refined miss.  Falls
    back to dense Hermite sampling at dt/100 if the fit is degenerate.
    """
    if len(record) == 0:
        raise ValueError("empty engagement record")
    rng = record.series["range"]
    ts = record.series["t"]
    i = int(np.argmin(rng))
    if i == 0 or i == len(rng) - 1:
        return float(rng[i]), float(ts[i])
    t0, t1, t2 = ts[i - 1], ts[i], ts[i + 1]
    f0, f1, f2 = rng[i - 1] ** 2, rng[i] ** 2, rng[i + 1] ** 2
    # quadratic through three equally spaced samples
    h = t1 - t0
    a = (f0 - 2.0 * f1 + f2) / (2.0 * h * h)
    b = (f2 - f0) / (2.0 * h)
    if a > 0.0:
        dt_star = -b / (2.0 * a)
        if -h <= dt_star <= h:
            val = f1 + b * dt_star + a * dt_star * dt_star
            return math.sqrt(max(val, 0.0)), float(t1 + dt_star)
    return _dense_miss(record, i)


def _rel_state(record: EngagementRecord, i: int) -> tuple:
    s = record.series
    pos = np.array([s["tx"][i] - s["mx"][i], s["ty"][i] - s["my"][i],
                    s["tz"][i] - s["mz"][i]])
    vel = record.target_velocity[i] - record.missile_velocity[i]
    return pos, vel


def _dense_miss(record: EngagementRecord, i: int) -> tuple:
    """Hermite resampling of the relative trajectory at dt/100."""
    ts = record.series["t"]
    lo = max(i - 1, 0)
    hi = min(i + 1, len(ts) - 1)
    best = (math.inf, ts[i])
    for j in range(lo, hi):
        p0, v0 = _rel_state(record, j)
        p1, v1 = _rel_state(record, j + 1)
        h = ts[j + 1] - ts[j]
        for k in range(101):
            s = k / 100.0
            h00 = (1 + 2 * s) * (1 - s) ** 2
            h10 = s * (1 - s) ** 2
            h01 = s * s * (3 - 2 * s)
            h11 = s * s * (s - 1)
            p = h00 * p0 + h10 * h * v0 + h01 * p1 + h11 * h * v1
            d = float(np.linalg.norm(p))
            if d < best[0]:
                best = (d, float(ts[j] + s * h))
    return best


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
