import math
import random
import struct

import numpy as np
import pytest

from pgsim import airframe as af
from pgsim import config as cf
from pgsim import engagement as en
from pgsim import guidance as gd
from pgsim import observer as ob
from pgsim import seeker as sk
from pgsim import targets as tg


def build(overrides=None):
    cfg = cf.resolve()
    for key, value in (overrides or {}).items():
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node[p]
        node[parts[-1]] = value
    return en.EngagementConfig.from_setup(cf.build_setup(cfg))


@pytest.fixture(scope="module")
def true_run():
    cfg = build({"guidance.source": "true"})
    return en.run_engagement(cfg), cfg


@pytest.fixture(scope="module")
def predicted_run():
    cfg = build({"guidance.source": "predicted",
                 "seeker.lag_time_constant": 0.2})
    return en.run_engagement(cfg), cfg


def synthetic_record(ts, missile_pos, missile_vel, target_pos, target_vel):
    """Record with real kinematic columns and zeroed signal columns."""
    n = len(ts)
    mp = np.array([missile_pos(t) for t in ts], dtype=float).reshape(-1, 3)
    mv = np.array([missile_vel(t) for t in ts], dtype=float).reshape(-1, 3)
    tp = np.array([target_pos(t) for t in ts], dtype=float).reshape(-1, 3)
    tv = np.array([target_vel(t) for t in ts], dtype=float).reshape(-1, 3)
    series = {c: np.zeros(n) for c in en.CSV_COLUMNS}
    series["t"] = np.asarray(ts, dtype=float)
    series["mx"], series["my"], series["mz"] = mp.T.copy()
    series["tx"], series["ty"], series["tz"] = tp.T.copy()
    series["range"] = np.linalg.norm(tp - mp, axis=1)
    return en.EngagementRecord(
        series=series, missile_velocity=mv, target_velocity=tv,
        miss_distance=math.nan, miss_time=math.nan,
        termination_reason="closest_approach", source_switch_time=None)


class TestLosRmse:
    def test_perfect_prediction_is_zero(self):
        s = np.sin(np.arange(200) * 0.01)
        assert en.los_rmse(s, s, 0.0, 0.01) == 0.0

    def test_three_sample_hand_value(self):
        pred = [1.0, 2.0, 3.0]
        ref = [0.0, 2.0, 2.0, 5.0]
        # errors after a one-step shift: (1-2, 2-2, 3-5) = (-1, 0, -2)
        got = en.los_rmse(pred, ref, 0.1, 0.1)
        assert got == pytest.approx(math.sqrt(5.0 / 3.0), rel=1e-12)

    def test_two_channel_average(self):
        pred = np.array([[1.0, 0.0], [1.0, 0.0]])
        ref = np.array([[0.0, 2.0], [0.0, 2.0]])
        # channel MSEs 1 and 4 -> root of their mean
        assert en.los_rmse(pred, ref, 0.0, 0.1) == pytest.approx(
            math.sqrt(2.5), rel=1e-12)

    def test_shift_alignment_on_sine(self):
        dt, delta, w = 0.001, 0.2, 3.0
        t = np.arange(0, 10, dt)
        ref = np.sin(w * t)
        pred = np.sin(w * (t + delta))  # ideal horizon-ahead prediction
        n = len(t) - int(round(delta / dt))
        assert en.los_rmse(pred[:n], ref, delta, dt) < 1e-12

    def test_off_grid_delta_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            en.los_rmse([1.0] * 10, [1.0] * 10, 0.00037, 0.001)

    def test_min_samples_enforced(self):
        s = [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="overlapping"):
            en.los_rmse(s, s, 0.0, 0.1, min_samples=100)
        assert en.los_rmse(s, s, 0.0, 0.1) == 0.0

    def test_exclude_before_drops_transient(self):
        pred = np.array([100.0, 100.0, 1.0, 1.0, 1.0, 1.0])
        ref = np.ones(6)
        full = en.los_rmse(pred, ref, 0.0, 1.0)
        trimmed = en.los_rmse(pred, ref, 0.0, 1.0, exclude_before=2.0)
        assert full > 10.0
        assert trimmed == 0.0


class TestMissDistance:
    def test_line_past_point(self):
        # target crosses 5 m abeam a stationary missile; closest approach
        # falls between samples but the squared-range quadratic is exact
        ts = np.arange(0.0, 4.0, 0.03)
        rec = synthetic_record(
            ts,
            lambda t: (0.0, 0.0, 0.0), lambda t: (0.0, 0.0, 0.0),
            lambda t: (100.0 - 50.0 * t, 5.0, 0.0), lambda t: (-50.0, 0.0, 0.0))
        miss, tm = en.miss_distance(rec)
        assert miss == pytest.approx(5.0, rel=1e-12)
        assert tm == pytest.approx(2.0, rel=1e-12)

    def test_matches_dense_oracle(self):
        # independent check: brute-force the analytic range on a fine grid
        def t_pos(t):
            return (80.0 - 30.0 * t, 3.0 + 2.0 * t, 10.0 - 1.0 * t)

        def m_pos(t):
            return (10.0 * t, 0.0, 0.0)

        ts = np.arange(0.0, 4.0, 0.05)
        rec = synthetic_record(ts, m_pos, lambda t: (10.0, 0.0, 0.0),
                               t_pos, lambda t: (-30.0, 2.0, -1.0))
        miss, tm = en.miss_distance(rec)
        fine = np.arange(0.0, 4.0, 1e-6)
        d = np.linalg.norm(
            np.array([t_pos(t) for t in fine]) - np.array([m_pos(t) for t in fine]),
            axis=1)
        assert miss == pytest.approx(float(d.min()), abs=1e-6)
        assert tm == pytest.approx(float(fine[d.argmin()]), abs=1e-4)

    def test_refined_below_sampled_minimum(self):
        ts = np.arange(0.0, 4.0, 0.03)
        rec = synthetic_record(
            ts,
            lambda t: (0.0, 0.0, 0.0), lambda t: (0.0, 0.0, 0.0),
            lambda t: (100.0 - 50.0 * t, 5.0, 0.0), lambda t: (-50.0, 0.0, 0.0))
        miss, _ = en.miss_distance(rec)
        assert miss <= float(rec.series["range"].min())

    def test_minimum_at_last_sample(self):
        ts = np.arange(0.0, 1.0, 0.1)
        rec = synthetic_record(
            ts,
            lambda t: (0.0, 0.0, 0.0), lambda t: (0.0, 0.0, 0.0),
            lambda t: (100.0 - 50.0 * t, 0.0, 0.0), lambda t: (-50.0, 0.0, 0.0))
        miss, tm = en.miss_distance(rec)
        assert miss == pytest.approx(float(rec.series["range"][-1]))
        assert tm == pytest.approx(float(ts[-1]))

    def test_empty_record_rejected(self):
        rec = synthetic_record(np.array([]), lambda t: (0, 0, 0),
                               lambda t: (0, 0, 0), lambda t: (1, 0, 0),
                               lambda t: (0, 0, 0))
        with pytest.raises(ValueError):
            en.miss_distance(rec)


class TestRunEngagement:
    def test_ideal_pursuit_intercepts(self, true_run):
        record, _ = true_run
        assert record.termination_reason == "closest_approach"
        assert record.miss_distance < 1.0
        assert math.isfinite(record.miss_time)

    def test_record_integrity(self, true_run):
        record, cfg = true_run
        n = len(record)
        assert n > 100
        for c in en.CSV_COLUMNS:
            assert len(record.series[c]) == n
        assert record.missile_velocity.shape == (n, 3)
        assert record.target_velocity.shape == (n, 3)
        ts = record.series["t"]
        assert np.allclose(np.diff(ts), cfg.dt)
        assert np.all(record.series["range"] > 0.0)
        assert np.all(np.isfinite(record.series["mx"]))

    def test_deflections_respect_travel_limit(self, predicted_run):
        record, cfg = predicted_run
        lim = cfg.autopilot.deflection_limit
        assert np.max(np.abs(record.series["defl_p"])) <= lim + 1e-12
        assert np.max(np.abs(record.series["defl_y"])) <= lim + 1e-12

    def test_determinism_bit_identical(self):
        cfg = build({"guidance.source": "predicted",
                     "seeker.lag_time_constant": 0.15,
                     "target.kind": "weaving", "target.phase": 1.2})
        a = en.run_engagement(cfg)
        b = en.run_engagement(cfg)
        assert a.miss_distance == b.miss_distance
        assert a.miss_time == b.miss_time
        for c in en.CSV_COLUMNS:
            assert np.array_equal(a.series[c], b.series[c])

    def test_zero_lag_delayed_equals_true(self, true_run):
        record, _ = true_run
        assert np.array_equal(record.series["lam_del_p"],
                              record.series["lam_true_p"])
        assert np.array_equal(record.series["lam_del_y"],
                              record.series["lam_true_y"])

    def test_predicted_tracks_shifted_truth(self, predicted_run):
        record, cfg = predicted_run
        delta = cfg.observer.delta
        pred = np.column_stack([record.series["lam_pred_p"],
                                record.series["lam_pred_y"]])
        true = np.column_stack([record.series["lam_true_p"],
                                record.series["lam_true_y"]])
        delayed = np.column_stack([record.series["lam_del_p"],
                                   record.series["lam_del_y"]])
        # compare over the mid-course portion; in the final second the LOS
        # rate spikes faster than any lag-compensated signal can follow
        cut = len(record) - int(round(1.0 / cfg.dt))
        r_pred = en.los_rmse(pred[:cut], true, delta, cfg.dt,
                             exclude_before=2.0)
        r_del = en.los_rmse(delayed[:cut], true, delta, cfg.dt,
                            exclude_before=2.0)
        assert r_pred < 0.6 * r_del

    def test_source_switch_time_recorded(self, predicted_run):
        record, cfg = predicted_run
        assert record.source_switch_time == cfg.guidance.warmup

    def test_no_switch_for_direct_sources(self, true_run):
        record, _ = true_run
        assert record.source_switch_time is None

    def test_timeout(self):
        cfg = build({"engagement.max_time": 0.5,
                     "target.position": [30000.0, 0.0, 2000.0]})
        record = en.run_engagement(cfg)
        assert record.termination_reason == "timeout"
        assert record.series["t"][-1] == pytest.approx(0.5)

    def test_ground_impact(self):
        cfg = build({"engagement.launch_elevation_deg": -60.0,
                     "engagement.max_time": 20.0,
                     "guidance.nav_ratio": 0.1})
        record = en.run_engagement(cfg)
        assert record.termination_reason == "ground_impact"
        assert record.series["mz"][-1] <= 0.0

    def test_divergence_recorded_not_raised(self, tmp_path):
        # a destabilizing pitch-damping sign makes the airframe blow up;
        # the record must capture that instead of propagating an exception
        p = tmp_path / "unstable.txt"
        p.write_text("""
[airframe]
reference_area = 0.0254
reference_length = 2.0
transverse_inertia = 22.0
[mass]
initial_mass = 85.0
propellant_mass = 30.0
[aero]
0.4 20.0 0.3 -1.0 200000.0 8.0 10.0
3.0 20.0 0.3 -1.0 200000.0 8.0 10.0
[thrust]
0.0 15000.0
3.0 15000.0
3.1 0.0
""")
        cfg = build({"airframe.dataset": str(p),
                     "guidance.source": "predicted",
                     "seeker.lag_time_constant": 0.2,
                     "engagement.max_time": 30.0})
        record = en.run_engagement(cfg)
        assert record.termination_reason == "observer_divergence"
        assert record.diagnostic != ""
        assert len(record) > 0

    def test_mass_follows_exact_burn(self, true_run):
        record, cfg = true_run
        prof = cfg.airframe.thrust
        # after burnout the vehicle must carry exactly the dry mass;
        # check via one explicit step of the integrator
        state = (0.0, 0.0, 1000.0, 300.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                 prof.mass_at(prof.burnout_time))
        out = en._vehicle_rk4(state, (0.0, 0.0), cfg.airframe,
                              prof.burnout_time + 1.0, cfg.dt)
        assert out[10] == prof.initial_mass - prof.propellant_mass

    def test_fuzzed_configs_never_crash(self):
        rng = random.Random(7)
        for _ in range(30):
            over = {
                "observer.epsilon": rng.uniform(0.03, 0.1),
                "seeker.lag_time_constant": rng.choice(
                    [0.0, rng.uniform(0.01, 0.4)]),
                "guidance.source": rng.choice(["true", "delayed", "predicted"]),
                "guidance.nav_ratio": rng.uniform(2.0, 6.0),
                "guidance.warmup": rng.uniform(0.0, 1.0),
                "target.kind": rng.choice(["level", "weaving"]),
                "target.phase": rng.uniform(0.0, 6.28),
                "target.position": [rng.uniform(2000.0, 12000.0),
                                    rng.uniform(-3000.0, 3000.0),
                                    rng.uniform(500.0, 4000.0)],
                "target.speed": rng.uniform(100.0, 300.0),
                "engagement.launch_elevation_deg": rng.uniform(-20.0, 80.0),
                "engagement.launch_speed": rng.uniform(5.0, 50.0),
                "engagement.max_time": 0.3,
            }
            record = en.run_engagement(build(over))
            assert record.termination_reason in en.TERMINATIONS
            assert len(record) > 0


class TestMetricsAndCsv:
    def test_metrics_consistent_with_record(self, predicted_run):
        record, cfg = predicted_run
        m = en.compute_metrics(record, cfg)
        assert m.miss_distance == record.miss_distance
        assert m.rmse_predicted < m.rmse_delayed
        assert math.isfinite(m.rmse_predicted_full)
        assert m.peak_accel_cmd > 0.0
        assert m.integrated_abs_deflection > 0.0

    def test_peak_matches_series(self, predicted_run):
        record, _ = predicted_run
        s = record.series
        stats = en.commanded_accel_stats(record)
        want = float(np.max(np.hypot(s["acc_cmd_p"], s["acc_cmd_y"])))
        assert stats["peak"] == want

    def test_csv_round_trip(self, true_run, tmp_path):
        record, _ = true_run
        path = tmp_path / "run.csv"
        record.write_csv(path)
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        assert tuple(header) == en.CSV_COLUMNS
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        assert data.shape == (len(record), len(en.CSV_COLUMNS))
        # repr-format floats reload exactly
        assert np.array_equal(data[:, 0], record.series["t"])
        assert np.array_equal(data[:, -1], record.series["range"])

    def test_short_run_rmse_is_nan(self):
        cfg = build({"engagement.max_time": 0.05})
        record = en.run_engagement(cfg)
        m = en.compute_metrics(record, cfg)
        assert math.isnan(m.rmse_delayed)
        assert math.isnan(m.rmse_predicted)
        assert math.isfinite(m.miss_distance)


def _bits(values) -> bytes:
    return struct.pack("%dd" % len(values), *values)


def vehicle_rk4_reference(x, defl, frame, t, dt):
    """RK4 composed from vehicle_rhs with the profile's own thrust,
    mass_flow and mass_at: the reference for _vehicle_rk4."""
    atm = af.atmosphere(max(x[2], 0.0))
    speed = math.sqrt(x[3] * x[3] + x[4] * x[4] + x[5] * x[5])
    row = frame.table.interpolate(speed / atm.speed_of_sound)
    prof = frame.thrust

    def rhs(state, tt):
        return af.vehicle_rhs(state, defl[0], defl[1], row, frame.table.reference_area,
                              frame.table.reference_length, 1.0 / frame.transverse_inertia,
                              prof.thrust(tt), prof.mass_flow(prof.thrust(tt)), atm.density)

    h2 = dt * 0.5
    k1 = rhs(x, t)
    k2 = rhs(tuple(a + h2 * b for a, b in zip(x, k1)), t + h2)
    k3 = rhs(tuple(a + h2 * b for a, b in zip(x, k2)), t + h2)
    k4 = rhs(tuple(a + dt * b for a, b in zip(x, k3)), t + dt)
    h6 = dt / 6.0
    out = [a + h6 * (p + 2.0 * (q + r) + s) for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
    out[10] = prof.mass_at(t + dt)
    return tuple(out)


class TestVehicleStepParity:
    DT = 1e-3

    @staticmethod
    def step_times(prof, dt):
        """Before, straddling and after burnout, and with each stage time
        exactly at a thrust breakpoint."""
        times = [0.0, 0.4, 1.7, prof.burnout_time - 0.3 * dt,
                 prof.burnout_time - 0.7 * dt, prof.burnout_time + 0.2,
                 prof.burnout_time + 30.0]
        for tb in prof.times:
            times += [tb, tb - dt * 0.5, tb - dt]
        return [t for t in times if t >= 0.0]

    @pytest.mark.parametrize("profile", ["builtin", "zero_impulse"])
    def test_bit_identical_to_rhs_fast_composition(self, profile):
        frame = af.load_airframe()
        if profile == "zero_impulse":
            # one breakpoint: thrust until t=0.5, zero total impulse
            frame = af.Airframe(table=frame.table,
                                thrust=af.ThrustProfile([0.5], [900.0], 80.0, 20.0),
                                transverse_inertia=frame.transverse_inertia)
        prof = frame.thrust
        rng = np.random.default_rng(5)
        for t in self.step_times(prof, self.DT):
            for _ in range(20):
                vel = rng.uniform(-400.0, 400.0, 3)
                x = (0.0, 0.0, float(rng.uniform(0.0, 12000.0)),
                     *(float(v) for v in vel),
                     float(rng.uniform(-1.2, 1.2)), float(rng.uniform(-math.pi, math.pi)),
                     float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-3.0, 3.0)),
                     prof.mass_at(t))
                defl = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)))
                got = en._vehicle_rk4(x, defl, frame, t, self.DT)
                want = vehicle_rk4_reference(x, defl, frame, t, self.DT)
                assert _bits(got) == _bits(want), t

    def test_burnout_mass_matches_impulse_integral(self):
        prof = af.load_airframe().thrust
        for t in (prof.burnout_time, prof.burnout_time + 1e-3, 60.0):
            frac = min(prof.impulse_to(t) / prof.total_impulse, 1.0)
            assert prof.mass_at(t) == prof.initial_mass - prof.propellant_mass * frac


class TestLoopReplay:
    """Replaying the recorded inputs through the target, seeker-lag,
    observer and autopilot kernels reproduces the recorded series."""

    @pytest.fixture(scope="class")
    def weave_run(self):
        cfg = build({"guidance.source": "predicted", "seeker.lag_time_constant": 0.2,
                     "target.kind": "weaving"})
        return en.run_engagement(cfg), cfg

    def test_target_positions(self, weave_run):
        record, cfg = weave_run
        s = record.series
        vx, vy = tg.ground_velocity(cfg.target)
        states = [tg.target_state(float(t), cfg.target, vx, vy) for t in s["t"]]
        for i, c in enumerate(("tx", "ty", "tz")):
            assert s[c].tobytes() == np.array([st[i] for st in states]).tobytes()
        assert record.target_velocity.tobytes() == \
            np.array([(vx, vy, st[3]) for st in states]).tobytes()

    def test_delayed_rates(self, weave_run):
        record, cfg = weave_run
        s = record.series
        true = list(zip(s["lam_true_p"].tolist(), s["lam_true_y"].tolist()))
        coeffs = sk.lag_coefficients(cfg.dt, cfg.seeker)
        delayed = [true[0]]
        for rate in true[1:]:
            delayed.append(sk.delay_step(delayed[-1], rate, coeffs))
        assert _bits([d[0] for d in delayed]) == s["lam_del_p"].tobytes()
        assert _bits([d[1] for d in delayed]) == s["lam_del_y"].tobytes()

    def test_deflections(self, weave_run):
        record, cfg = weave_run
        s = record.series
        ap = cfg.autopilot
        a, b = gd.actuator_coefficients(cfg.dt, ap)
        for ch in ("p", "y"):
            defl, out = 0.0, []
            for cmd in s["acc_cmd_" + ch].tolist():
                defl = gd.autopilot_step(cmd, defl, ap.accel_to_deflection_gain,
                                         ap.deflection_limit, a, b)
                out.append(defl)
            assert _bits(out) == s["defl_" + ch].tobytes()

    def test_predicted_rates(self, weave_run):
        # the observer runs on the delayed rate, held over each step
        record, cfg = weave_run
        s = record.series
        coeffs = cfg.observer.coefficients()
        for ch in ("p", "y"):
            delayed = s["lam_del_" + ch].tolist()
            x = (delayed[0], 0.0, 0.0, 0.0, delayed[0], 0.0, 0.0, 0.0)
            pred = [x[4]]
            for v in delayed[:-1]:
                x = ob.rk4_step8(x, v, cfg.dt, coeffs, cfg.observer.coupled_step1)
                pred.append(x[4])
            assert _bits(pred) == s["lam_pred_" + ch].tobytes()
