"""Closed-loop engagement simulation and the metrics derived from it.

One engagement integrates target kinematics, the seeker lag, one
observer per LOS channel, PN guidance with the fin autopilot, and the
5-DOF airframe on a shared fixed step, then refines the closest approach
below the step size.
"""

from __future__ import annotations

import dataclasses
import math
import os
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
    "CsvStream",
    "WarmupState",
    "run_engagement",
    "miss_distance",
    "closest_approach",
    "los_rmse",
    "compute_metrics",
]

CSV_COLUMNS = (
    "t", "lam_true_p", "lam_true_y", "lam_del_p", "lam_del_y",
    "lam_pred_p", "lam_pred_y", "acc_cmd_p", "acc_cmd_y",
    "defl_p", "defl_y", "mx", "my", "mz", "tx", "ty", "tz", "range",
)

# one recorded step: CSV_COLUMNS, then missile and target velocity
_ROW = struct.Struct("%dd" % (len(CSV_COLUMNS) + 6))
# the prefix at launch, and of a handoff state until its record attaches one
_NO_ROWS = np.empty((0, len(CSV_COLUMNS) + 6))
# what one airframe step reads of the boost profile (_boost_schedule):
# three stage thrusts, three stage mass drops and the mass after the step
_BOOST_ROW = struct.Struct("7d")
# rows per block that the CSV formatter converts to Python floats at a
# time, and per write into and read from a CsvStream's pipe: 256 packed
# rows are 48 KiB, within the 64 KiB a Linux pipe holds by default, so a
# writer that keeps up never blocks the loop
STREAM_CHUNK_ROWS = 256
# the observer state of a run that no later step reads
_UNREAD_OBSERVER = (math.nan,) * 8

# cells of [0, 1] on which closest_approach brackets the roots of d(r^2)/du
_ROOT_GRID = 16

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
        """The config of :func:`pgsim.config.build_setup`'s fields."""
        return EngagementConfig(**setup)

    def with_source(self, source: str) -> "EngagementConfig":
        """This config with guidance fed from ``source``."""
        return dataclasses.replace(self, guidance=dataclasses.replace(self.guidance,
                                                                      source=source))


@dataclass(frozen=True)
class WarmupState:
    """The loop state at the start of the first step with
    ``t >= guidance.warmup``, where a predicted source's guidance takes
    the prediction (:func:`pgsim.guidance.select_source`).

    Until that step the delayed and the predicted source fly the same
    engagement, so :func:`run_engagement` can resume either of them from
    here.  ``prefix`` holds the rows recorded before the step, one per
    step; in a record it is a view of the record's own rows.  A run of
    the true source, or one that ends before the step, has no state.
    A fresh run starts from the launch state, at step 0.
    """

    step: int
    vehicle: tuple
    delayed: tuple | None     # None at launch: step 0 seeds the channels
    obs_p: tuple | None
    obs_y: tuple | None
    defl_p: float
    defl_y: float
    range_min: float
    rising: int
    prefix: np.ndarray        # (step, len(CSV_COLUMNS) + 6) packed rows

    def detached(self) -> "WarmupState":
        """This state with its own copy of the prefix rows, so that it
        keeps no record's rows alive."""
        return dataclasses.replace(self, prefix=self.prefix.copy())


@dataclass
class EngagementRecord:
    """Per-step series plus the terminal outcome of one engagement."""

    series: dict                      # column name -> numpy array
    missile_velocity: np.ndarray      # (n, 3), read by closest_approach
    target_velocity: np.ndarray       # (n, 3)
    miss_distance: float
    miss_time: float
    termination_reason: str
    source_switch_time: float | None  # first step that used the prediction
    diagnostic: str = ""
    warmup: WarmupState | None = None  # None if the run shares no warm-up

    def __len__(self):
        return len(self.series["t"])

    def write_csv(self, path) -> None:
        """Write the series, converting :data:`STREAM_CHUNK_ROWS` rows at
        a time so that no Python copy of the whole table is ever held."""
        cols = [self.series[c] for c in CSV_COLUMNS]
        with open(path, "w") as fh:
            _write_table(fh, (np.array([c[i:i + STREAM_CHUNK_ROWS] for c in cols], dtype=float).T
                              for i in range(0, len(self), STREAM_CHUNK_ROWS)))


def _write_table(fh, blocks) -> None:
    """Write the CSV header, then the rows of each block in ``blocks``:
    float arrays whose first columns are :data:`CSV_COLUMNS`.  Values
    are written with ``repr``, which reloads bit for bit."""
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for block in blocks:
        for row in block[:, :len(CSV_COLUMNS)].tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def _packed_blocks(pipe):
    """The packed rows read from the binary file ``pipe`` until end of
    file, :data:`STREAM_CHUNK_ROWS` rows per block; a buffered read
    returns whole blocks until the last, so a stream that ends mid-row
    raises ``ValueError``."""
    while data := pipe.read(STREAM_CHUNK_ROWS * _ROW.size):
        yield np.frombuffer(data).reshape(-1, len(CSV_COLUMNS) + 6)


class CsvStream:
    """The CSV of packed rows, written by a forked process as they come.

    ``CsvStream(fh)`` forks a writer that writes the rows passed to
    :meth:`write` into the open text file ``fh``, with the formatter of
    :meth:`EngagementRecord.write_csv`, so the file gets the same bytes.
    ``write`` is the ``on_rows`` of :func:`run_engagement`.  Leaving the
    ``with`` block closes the pipe and reaps the writer on every path;
    when no exception is pending, a writer that fails or exits early
    raises ``OSError`` naming the file, as do a ``BrokenPipeError``
    from ``write`` and a fork that fails.  Fork only from a process that
    runs no other thread.
    """

    def __init__(self, fh):
        self.name = fh.name
        fh.flush()  # the writer must not write what the caller buffered
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except BaseException as exc:
            os.close(read_fd)
            os.close(write_fd)
            if isinstance(exc, OSError):
                raise OSError(exc.errno, "could not fork the writer of %s: %s"
                              % (self.name, exc.strerror)) from exc
            raise
        if pid == 0:  # the writer leaves only through os._exit
            code = 1
            try:
                os.close(write_fd)
                with open(read_fd, "rb") as pipe:
                    _write_table(fh, _packed_blocks(pipe))
                fh.flush()
                code = 0
            finally:
                os._exit(code)
        os.close(read_fd)
        self.pid = pid
        # the buffer gives the pipe whole blocks of STREAM_CHUNK_ROWS rows
        self._pipe = open(write_fd, "wb", buffering=STREAM_CHUNK_ROWS * _ROW.size)
        self.write = self._pipe.write

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        broken = False
        try:
            self._pipe.close()
        except BrokenPipeError:
            broken = True
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        failed = code != 0 or broken if kind is None else issubclass(kind, BrokenPipeError)
        if failed:
            raise OSError("the writer of %s exited with status %d" % (self.name, code)) from exc
        return False


def run_engagement(config: EngagementConfig, resume: WarmupState | None = None,
                   on_rows=None, record_prediction: bool = True) -> EngagementRecord:
    """Simulate one engagement to termination.

    Never raises for in-flight failures: they terminate the record with
    one of :data:`FAILURES` and a diagnostic message.  A non-finite
    observer state is ``observer_divergence``; a non-finite vehicle state
    or an airframe step that fails is ``vehicle_divergence``, except above
    the atmosphere model's ceiling, which is ``altitude_ceiling``.

    Given ``resume``, the warm-up state of a delayed- or predicted-source
    run of ``config`` with only the source changed, the run continues
    from that state's step with a copy of its prefix rows; the record is
    the one an independent run gives, bit for bit.  Without it, the
    run resumes from the launch state.

    Given ``on_rows``, the loop hands it each row as it packs it, as
    bytes of ``len(CSV_COLUMNS) + 6`` doubles.  A resumed run's prefix
    rows come first, in one call.

    With ``record_prediction=False`` the observer steps only while a
    later step can read it: throughout for the predicted source, until
    the run takes its warm-up state (the state a resumed predicted run
    starts from) for the delayed one, and never for the true one.  After
    that its state is NaN, so ``lam_pred_p/y`` read NaN from the next row
    and the run cannot end in ``observer_divergence``; every other
    column and outcome field is the default run's.  A sweep run records
    no prediction, and no file holds its prediction columns.
    """
    dt = config.dt
    n_max = int(round(config.max_time / dt))
    frame = config.airframe
    obs_map = ob.step_map(dt, config.observer.coefficients())
    guid = config.guidance
    target = config.target
    tvx, tvy = tg.ground_velocity(target)
    lag = sk.lag_coefficients(dt, config.seeker)
    ap = config.autopilot
    gain, lim = ap.accel_to_deflection_gain, ap.deflection_limit
    act_a, act_b = gd.actuator_coefficients(dt, ap)
    # the delayed and predicted sources fly the same steps before the
    # first with t >= warm_t, where select_source hands over
    warm_t = guid.warmup if guid.source != "true" else math.inf
    warm = resume  # the loop state at the start of that step
    # unless the prediction is recorded, only the predicted source's
    # guidance reads the observer: a delayed run hands it on to that
    # source in its warm-up state, and a true run takes none
    observe_all = record_prediction or guid.source == "predicted"
    observe_to_warm = warm_t < math.inf

    if resume is None:
        tx, ty, _, _ = tg.target_state(0.0, target, tvx, tvy)
        az = math.atan2(ty, tx)
        el = config.launch_elevation
        bx, _, _ = af.body_axes(el, az)
        speed = config.launch_speed
        vehicle = (0.0, 0.0, 0.0, speed * bx[0], speed * bx[1], speed * bx[2],
                   el, az, 0.0, 0.0, frame.thrust.initial_mass)
        resume = WarmupState(step=0, vehicle=vehicle, delayed=None, obs_p=None, obs_y=None,
                             defl_p=0.0, defl_y=0.0, range_min=math.inf, rising=0,
                             prefix=_NO_ROWS)
    s = resume
    start, vehicle, delayed, obs_p, obs_y = s.step, s.vehicle, s.delayed, s.obs_p, s.obs_y
    defl_p, defl_y, range_min, rising = s.defl_p, s.defl_y, s.range_min, s.rising
    rows = bytearray(s.prefix.data)  # one packed _ROW per step
    pack = _ROW.pack
    termination = "timeout"
    diagnostic = ""
    if on_rows is not None and start:
        on_rows(bytes(rows))
    # the boost row of each step from start that begins before burnout,
    # then the coast row: no thrust, no mass flow, the burnout mass
    prof = frame.thrust
    burn = _BOOST_ROW.iter_unpack(_boost_schedule(prof, start, n_max, dt))
    coast = (0.0,) * 6 + (prof.burnout_mass,)

    for n in range(start, n_max + 1):
        t = n * dt
        if warm is None and t >= warm_t:
            warm = WarmupState(n, vehicle, delayed, obs_p, obs_y, defl_p, defl_y,
                               range_min, rising, _NO_ROWS)
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

        row = pack(t, true_rate[0], true_rate[1], delayed[0], delayed[1],
                   predicted[0], predicted[1], acc_p, acc_y, defl_p, defl_y,
                   mx, my, mz, tx, ty, tz, rng,
                   mvx, mvy, mvz, tvx, tvy, tvz)
        rows += row
        if on_rows is not None:
            on_rows(row)

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

        # advance the observer (ZOH on the delayed signal) while a later
        # step can read it, and the airframe
        if observe_all or warm is None and observe_to_warm:
            obs_p = ob.rk4_step8(obs_p, delayed[0], obs_map)
            obs_y = ob.rk4_step8(obs_y, delayed[1], obs_map)
            # a non-finite state or map entry reaches x12 within two steps
            if not (math.isfinite(obs_p[4]) and math.isfinite(obs_y[4])):
                termination = "observer_divergence"
                diagnostic = "observer state non-finite at t=%g" % t
                break
        else:
            obs_p = obs_y = _UNREAD_OBSERVER
        try:
            vehicle = _vehicle_rk4(vehicle, (defl_p, defl_y), frame, next(burn, coast), dt)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            # the atmosphere model raises for the step-start altitude mz
            termination = ("altitude_ceiling" if mz > af.ISA_CEILING
                           else "vehicle_divergence")
            diagnostic = "integration failed at t=%g: %s" % (t, exc)
            break

    # a zero-copy view: the series and both velocities are its columns
    data = np.frombuffer(rows, dtype=float).reshape(-1, len(CSV_COLUMNS) + 6)
    # guidance took the prediction only if the handoff step was recorded
    switch_time = (warm.step * dt if guid.source == "predicted" and warm is not None
                   and len(data) > warm.step else None)
    record = EngagementRecord(
        series=dict(zip(CSV_COLUMNS, data.T)),
        missile_velocity=data[:, -6:-3],
        target_velocity=data[:, -3:],
        miss_distance=math.nan, miss_time=math.nan,
        termination_reason=termination,
        source_switch_time=switch_time,
        diagnostic=diagnostic,
        warmup=None if warm is None else dataclasses.replace(warm, prefix=data[:warm.step]),
    )
    if len(record) > 0:
        d, tm = miss_distance(record)
        record.miss_distance = d
        record.miss_time = tm
    return record


def _boost_schedule(prof: af.ThrustProfile, start: int, stop: int, dt: float) -> np.ndarray:
    """The :data:`_BOOST_ROW` of each airframe step ``n`` from ``start``,
    and before ``stop``, that starts before burnout (``n * dt <
    prof.burnout_time``): a float array of one 7-value row per step.

    Each row holds ``(th0, th1, th2, h2 * md0, h2 * md1, dt * md1,
    m_end)`` with ``t = n * dt`` and ``h2 = dt / 2``: the thrust at
    ``t``, ``t + h2`` and ``t + dt``; the mass drops from the step's
    start mass to its second, third and fourth RK4 stage, from the mass
    flows ``md0`` and ``md1`` at the first two thrusts; and the mass at
    ``t + dt``.  The step reads the same values at the same times as
    one that called the profile itself, so it gets the same bits.
    """
    # n * dt grows with n, so the steps before burnout come first, and
    # the first step at or after it is at most 2 past burnout_time / dt
    last = int(min(prof.burnout_time / dt, stop)) + 2
    t = np.arange(start, min(stop, last)) * dt
    t = t[:np.searchsorted(t, prof.burnout_time)]  # t is sorted
    h2 = dt * 0.5
    th0 = prof.thrust(t)
    th1 = prof.thrust(t + h2)
    md1 = prof.mass_flow(th1)
    return np.column_stack([th0, th1, prof.thrust(t + dt), h2 * prof.mass_flow(th0),
                            h2 * md1, dt * md1, prof.mass_at(t + dt)])


def _vehicle_rk4(x: tuple, deflections: tuple, frame: af.Airframe,
                 boost: tuple, dt: float) -> tuple:
    """One RK4 step of the airframe with deflections held over the step.

    The ambient sample and the interpolated aero row are frozen at the
    step start (their within-step variation is negligible at the fixed
    step sizes used here).  ``boost`` is the step's row of
    :func:`_boost_schedule`: the stage thrusts, the stage mass drops, and
    the mass after the step from the exact burnt-impulse integral.  The
    stages are classical RK4 on the 11-state derivative:
    :func:`pgsim.airframe.vehicle_rhs` gives the accelerations, the
    position and attitude rates are the stage velocities and body rates,
    and the mass rate is minus the mass flow.  From burnout on, the row
    is zero but for the burnout mass: ``m - 0.0`` is ``m`` for every
    float.
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
    th0, th1, th2, dm1, dm2, dm3, m_end = boost
    h2 = dt * 0.5
    rhs = af.vehicle_rhs
    ax0, ay0, az0, qd0, rd0 = rhs(vx, vy, vz, pitch, yaw, q, r, m,
                                  dp, dyaw, row, sref, lref, inv_i, th0, rho)
    vx1 = vx + h2 * ax0
    vy1 = vy + h2 * ay0
    vz1 = vz + h2 * az0
    q1 = q + h2 * qd0
    r1 = r + h2 * rd0
    ax1, ay1, az1, qd1, rd1 = rhs(vx1, vy1, vz1, pitch + h2 * q, yaw + h2 * r, q1, r1, m - dm1,
                                  dp, dyaw, row, sref, lref, inv_i, th1, rho)
    vx2 = vx + h2 * ax1
    vy2 = vy + h2 * ay1
    vz2 = vz + h2 * az1
    q2 = q + h2 * qd1
    r2 = r + h2 * rd1
    ax2, ay2, az2, qd2, rd2 = rhs(vx2, vy2, vz2, pitch + h2 * q1, yaw + h2 * r1, q2, r2, m - dm2,
                                  dp, dyaw, row, sref, lref, inv_i, th1, rho)
    vx3 = vx + dt * ax2
    vy3 = vy + dt * ay2
    vz3 = vz + dt * az2
    q3 = q + dt * qd2
    r3 = r + dt * rd2
    ax3, ay3, az3, qd3, rd3 = rhs(vx3, vy3, vz3, pitch + dt * q2, yaw + dt * r2, q3, r3, m - dm3,
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
    """(miss, time): the vertex of the quadratic through the squared
    range at the three samples around the discrete minimum, clamped at
    0, or that sample at either end of the record.

    Squared range is exactly quadratic only for linear relative motion;
    otherwise a negative vertex reads 0 m.  :func:`closest_approach`
    gives the continuous miss.
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


def closest_approach(record: EngagementRecord) -> float:
    """The least separation of the cubic Hermite relative trajectory
    through the recorded relative positions and velocities, on the steps
    either side of the discrete minimum (one step at either end of the
    record): the least over the step ends and :func:`_step_minima`."""
    n = len(record)
    if n == 0:
        raise ValueError("empty engagement record")
    s = record.series
    i = int(np.argmin(s["range"]))
    lo, hi = max(i - 1, 0), min(i + 2, n)
    ts = s["t"][lo:hi].tolist()
    r = np.column_stack([s[c][lo:hi] - s[m][lo:hi]
                         for c, m in (("tx", "mx"), ("ty", "my"), ("tz", "mz"))]).tolist()
    w = (record.target_velocity[lo:hi] - record.missile_velocity[lo:hi]).tolist()
    best = float(s["range"][i])
    for k in range(len(ts) - 1):
        h = ts[k + 1] - ts[k]
        # per axis, p(u) = c0 + c1 u + c2 u^2 + c3 u^3 on u in [0, 1]
        cs = [(r0, h * w0, 3.0 * (r1 - r0) - h * (2.0 * w0 + w1), 2.0 * (r0 - r1) + h * (w0 + w1))
              for r0, r1, w0, w1 in zip(r[k], r[k + 1], w[k], w[k + 1])]
        best = min([best, *_step_minima(cs)])
    return best


def _step_minima(cs) -> list:
    """|p(u)| at each minimum of |p(u)|^2 within (0, 1), for the cubic
    ``p`` with per-axis coefficients ``cs``.  Each is bracketed by a rise
    of the quintic ``d|p|^2/du`` through 0 on a grid of
    :data:`_ROOT_GRID` cells and bisected in floats, so no LAPACK call
    decides the result."""
    def slope(u):  # half of d|p|^2/du
        return sum((c0 + u * (c1 + u * (c2 + u * c3))) * (c1 + u * (2.0 * c2 + u * 3.0 * c3))
                   for c0, c1, c2, c3 in cs)

    def norm(u):
        return math.sqrt(sum((c0 + u * (c1 + u * (c2 + u * c3))) ** 2 for c0, c1, c2, c3 in cs))

    grid = [j / _ROOT_GRID for j in range(_ROOT_GRID + 1)]
    qs = [slope(u) for u in grid]
    out = []
    for a, b, qa, qb in zip(grid, grid[1:], qs, qs[1:]):
        if qa < 0.0 <= qb:
            while a < (mid := 0.5 * (a + b)) < b:
                a, b = (mid, b) if slope(mid) < 0.0 else (a, mid)
            out += [norm(a), norm(b)]
    return out


def los_rmse(predicted_series, reference_series, delta: float, dt: float,
             start: int = 0) -> float:
    """RMSE of a horizon-ahead prediction against the shifted reference.

    Sample i of ``predicted_series`` is compared with sample
    i + delta/dt of ``reference_series``; ``delta`` must sit on the step
    grid.  Series are (n, 2) channel arrays or 1-D; the result is the
    root of the mean of the per-channel mean squared errors.  Samples
    before index ``start`` are dropped; with no overlapping sample left,
    it raises ``ValueError``.
    """
    pred = np.atleast_2d(np.asarray(predicted_series, dtype=float).T).T
    ref = np.atleast_2d(np.asarray(reference_series, dtype=float).T).T
    shift_f = delta / dt
    shift = int(round(shift_f))
    if abs(shift_f - shift) > 1e-9:
        raise ValueError("delta=%g is not an integer multiple of dt=%g" % (delta, dt))
    n = min(len(pred), len(ref) - shift)
    if n <= start:
        raise ValueError("no overlapping samples after alignment")
    err = pred[start:n] - ref[start + shift:n + shift]
    return float(math.sqrt(np.mean(np.mean(err ** 2, axis=0))))


def compute_metrics(record: EngagementRecord, config: EngagementConfig) -> dict:
    """Engagement-level metrics, as the ``metrics`` block of
    ``metrics.json`` holds them; an RMSE entry is NaN when its window
    holds fewer than 100 aligned samples.  The windowed RMSEs start at
    the first recorded step with ``t >= guidance.warmup``, where guidance
    takes the prediction.  ``miss_continuous`` is
    :func:`closest_approach`.  ``peak_accel_cmd`` is the largest commanded
    acceleration magnitude and ``integrated_abs_deflection`` the time
    integral of ``|defl_p| + |defl_y|``, 0 for a one-row record; an
    empty record raises ``ValueError``.  A run without a recorded
    prediction (``run_engagement(..., record_prediction=False)``) has
    NaN prediction columns after its warm-up state, so its
    ``rmse_predicted*`` read NaN; a sweep writes none of them.
    """
    s = record.series
    dt = config.dt
    shift = round(config.observer.delta / dt)
    true_series = np.column_stack([s["lam_true_p"], s["lam_true_y"]])
    pred_series = np.column_stack([s["lam_pred_p"], s["lam_pred_y"]])
    del_series = np.column_stack([s["lam_del_p"], s["lam_del_y"]])
    handoff = int(np.searchsorted(s["t"], config.guidance.warmup, side="left"))

    def rmse(series, start):
        if len(record) - shift - start < 100:
            return math.nan
        return los_rmse(series, true_series, shift * dt, dt, start)

    return {
        "rmse_delayed": rmse(del_series, handoff),
        "rmse_predicted": rmse(pred_series, handoff),
        "rmse_delayed_full": rmse(del_series, 0),
        "rmse_predicted_full": rmse(pred_series, 0),
        "miss_distance": record.miss_distance,
        "miss_continuous": closest_approach(record),
        "peak_accel_cmd": float(np.max(np.hypot(s["acc_cmd_p"], s["acc_cmd_y"]))),
        "integrated_abs_deflection": float(np.trapezoid(np.abs(s["defl_p"]) + np.abs(s["defl_y"]),
                                                        s["t"])),
    }
