import dataclasses
import math
import os
import random
import struct
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from conftest import (boost_row, engagement_config, mass_at, mass_flow_at, state_derivative,
                      thrust_at)

from pgsim import airframe as af
from pgsim import engagement as en
from pgsim import guidance as gd
from pgsim import observer as ob
from pgsim import seeker as sk
from pgsim import targets as tg


@pytest.fixture(scope="module")
def true_run():
    cfg = engagement_config({"guidance.source": "true"})
    return en.run_engagement(cfg), cfg


@pytest.fixture(scope="module")
def predicted_run():
    cfg = engagement_config({"guidance.source": "predicted",
                             "seeker.lag_time_constant": 0.2})
    return en.run_engagement(cfg), cfg


# bytes of one packed row
ROW_BYTES = (len(en.CSV_COLUMNS) + 6) * 8


def packed_rows(record) -> bytes:
    """The record's rows as the loop packs them: the CSV columns, then
    missile and target velocity."""
    return np.column_stack([record.series[c] for c in en.CSV_COLUMNS]
                           + [record.missile_velocity, record.target_velocity]).tobytes()


def write_streamed(record, path, piece=ROW_BYTES) -> None:
    """Write ``record`` through a CsvStream fed its packed rows in pieces
    of ``piece`` bytes, by default one row at a time as the loop hands
    them off."""
    rows = packed_rows(record)
    with open(path, "w") as fh, en.CsvStream(fh) as stream:
        for i in range(0, len(rows), piece):
            stream.write(rows[i:i + piece])


def rows_handed_off(config, resume=None):
    """(record, chunks): the run, and the rows it passed to on_rows."""
    chunks = []
    record = en.run_engagement(config, resume, on_rows=chunks.append)
    return record, chunks


def assert_chunks_join_to_record(chunks, record):
    """The chunks join to the record's rows bit for bit, and a stream's
    block of rows fits in a 64 KiB pipe."""
    assert en.STREAM_CHUNK_ROWS * ROW_BYTES <= 64 * 1024
    assert b"".join(chunks) == packed_rows(record)


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


def still_record(ts):
    """A synthetic record of a still missile and target 1 km apart."""
    def still(t):
        return (0.0, 0.0, 0.0)
    return synthetic_record(ts, still, still, lambda t: (1000.0, 0.0, 0.0), still)


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

    def test_no_overlap_rejected(self):
        s = [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="overlapping"):
            en.los_rmse(s, s, 0.3, 0.1)
        with pytest.raises(ValueError, match="overlapping"):
            en.los_rmse(s, s, 0.0, 0.1, start=3)
        assert en.los_rmse(s, s, 0.0, 0.1, start=2) == 0.0

    def test_exclude_before_drops_transient(self):
        pred = np.array([100.0, 100.0, 1.0, 1.0, 1.0, 1.0])
        ref = np.ones(6)
        full = en.los_rmse(pred, ref, 0.0, 1.0)
        trimmed = en.los_rmse(pred, ref, 0.0, 1.0, start=2)
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
        d = np.sqrt(sum((a - b) ** 2 for a, b in zip(t_pos(fine), m_pos(fine))))
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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: miss_distance returns the clamped "
                   "quadratic vertex of r^2 (2.74 mm at 1 ms, 0.206 mm at 0.5 ms), not the "
                   "continuous closest approach")
def test_miss_converges_in_dt():
    # halving dt moves a converged miss by a fraction of itself: item 1's
    # Hermite closest approach of this run reads 0.1616 and 0.1611 mm
    misses = [en.run_engagement(engagement_config({
        "guidance.source": "predicted", "seeker.lag_time_constant": 0.2,
        "target.kind": "weaving", "target.phase": 1.0, "engagement.dt": dt})).miss_distance
        for dt in (1e-3, 5e-4)]
    assert abs(misses[0] - misses[1]) <= 0.02 * misses[1]


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
        cfg = engagement_config({"guidance.source": "predicted",
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
        start = int(round(2.0 / cfg.dt))  # t = 2 s
        r_pred = en.los_rmse(pred[:cut], true, delta, cfg.dt, start)
        r_del = en.los_rmse(delayed[:cut], true, delta, cfg.dt, start)
        assert r_pred < 0.6 * r_del

    def test_source_switch_time_recorded(self, predicted_run):
        record, cfg = predicted_run
        assert record.source_switch_time == cfg.guidance.warmup

    @pytest.mark.parametrize("max_time, switch", [(1.0, None), (2.0, 2.0)])
    def test_no_switch_before_warmup_reached(self, max_time, switch):
        # a run that stops before the 2 s warm-up never hands off; one
        # whose last step lands on it does
        cfg = engagement_config({"guidance.source": "predicted", "seeker.lag_time_constant": 0.2,
                                 "engagement.max_time": max_time})
        assert cfg.guidance.warmup == 2.0
        record = en.run_engagement(cfg)
        assert record.termination_reason == "timeout"
        assert record.source_switch_time == switch

    def test_switch_time_is_first_predicted_step(self):
        # an off-grid warm-up hands off at the next step, t = 0.201; the
        # commands replayed from the recorded kinematics take the delayed
        # rate before that row and the prediction from it on
        cfg = engagement_config({"guidance.source": "predicted", "seeker.lag_time_constant": 0.2,
                                 "target.kind": "weaving", "target.phase": 0.7,
                                 "guidance.warmup": 0.2005, "engagement.max_time": 0.25})
        record = en.run_engagement(cfg)
        s = record.series
        assert record.source_switch_time == s["t"][201] == 0.201
        r = np.column_stack([s["tx"] - s["mx"], s["ty"] - s["my"], s["tz"] - s["mz"]])
        rv = record.target_velocity - record.missile_velocity
        nav = cfg.guidance.nav_ratio
        for i in range(190, 212):
            rx, ry, rz = r[i].tolist()
            rvx, rvy, rvz = rv[i].tolist()
            vc = -(rx * rvx + ry * rvy + rz * rvz) / math.sqrt(rx * rx + ry * ry + rz * rz)
            src = "pred" if i >= 201 else "del"
            for ch in ("p", "y"):
                acc = float(s["acc_cmd_" + ch][i])
                assert acc == nav * vc * float(s["lam_%s_%s" % (src, ch)][i]), i
            # the two sources differ here, so the check tells them apart
            assert s["lam_pred_p"][i] != s["lam_del_p"][i], i

    def test_rmse_window_starts_at_switch_step(self):
        # a warm-up just past a grid point hands over one step later; the
        # windowed RMSE scores the prediction from that step on
        cfg = engagement_config({"guidance.source": "predicted", "seeker.lag_time_constant": 0.2,
                                 "target.kind": "weaving", "guidance.warmup": 2.0 + 1e-13})
        record = en.run_engagement(cfg)
        s = record.series
        ts = s["t"].tolist()
        step = ts.index(record.source_switch_time)
        assert step == 2001
        pred = np.column_stack([s["lam_pred_p"], s["lam_pred_y"]])
        true = np.column_stack([s["lam_true_p"], s["lam_true_y"]])
        want = en.los_rmse(pred, true, cfg.observer.delta, cfg.dt, step)
        assert en.compute_metrics(record, cfg)["rmse_predicted"] == want

    def test_no_switch_for_direct_sources(self, true_run):
        record, _ = true_run
        assert record.source_switch_time is None

    def test_timeout(self):
        cfg = engagement_config({"engagement.max_time": 0.5,
                                 "target.position": [30000.0, 0.0, 2000.0]})
        record = en.run_engagement(cfg)
        assert record.termination_reason == "timeout"
        assert record.series["t"][-1] == pytest.approx(0.5)

    def test_ground_impact(self):
        cfg = engagement_config({"engagement.launch_elevation_deg": -60.0,
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
        cfg = engagement_config({"airframe.dataset": str(p),
                                 "guidance.source": "predicted",
                                 "seeker.lag_time_constant": 0.2,
                                 "engagement.max_time": 30.0})
        record = en.run_engagement(cfg)
        assert record.termination_reason == "vehicle_divergence"
        assert record.diagnostic != ""
        assert len(record) > 0

    def test_nonfinite_vehicle_state_labelled(self, monkeypatch):
        real = en._vehicle_rk4
        calls = []

        def blow_up(x, deflections, frame, t, dt):
            calls.append(1)
            x = real(x, deflections, frame, t, dt)
            return x if len(calls) < 10 else x[:3] + (math.nan,) + x[4:]

        monkeypatch.setattr(en, "_vehicle_rk4", blow_up)
        record = en.run_engagement(engagement_config({"engagement.max_time": 0.1}))
        assert record.termination_reason == "vehicle_divergence"
        assert "non-finite vehicle state" in record.diagnostic
        assert len(record) == 10

    def test_altitude_ceiling(self, tmp_path):
        # a 400 kN boost toward a target above the atmosphere model
        p = tmp_path / "hot.txt"
        p.write_text(resources.files("pgsim.data").joinpath("generic_airframe.txt")
                     .read_text().replace("15000.0", "400000.0"))
        record = en.run_engagement(engagement_config({"airframe.dataset": str(p),
                                                      "target.position": [2000.0, 0.0, 60000.0],
                                                      "engagement.launch_elevation_deg": 85.0}))
        assert record.termination_reason == "altitude_ceiling"
        assert record.series["mz"][-1] > af.ISA_CEILING
        assert record.series["mz"][-2] <= af.ISA_CEILING
        assert "ceiling" in record.diagnostic

    def test_mass_follows_exact_burn(self, true_run):
        record, cfg = true_run
        prof = cfg.airframe.thrust
        # after burnout the vehicle must carry exactly the dry mass;
        # check via one explicit step of the integrator
        state = (0.0, 0.0, 1000.0, 300.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                 prof.mass_at(prof.burnout_time))
        out = en._vehicle_rk4(state, (0.0, 0.0), cfg.airframe,
                              boost_row(prof, prof.burnout_time + 1.0, cfg.dt), cfg.dt)
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
            record = en.run_engagement(engagement_config(over))
            assert record.termination_reason in en.TERMINATIONS
            assert len(record) > 0


def assert_same_record(a, b):
    """Every recorded value and outcome field of ``a`` and ``b`` agree
    bit for bit."""
    assert len(a) == len(b)
    for c in en.CSV_COLUMNS:
        assert a.series[c].tobytes() == b.series[c].tobytes(), c
    assert a.missile_velocity.tobytes() == b.missile_velocity.tobytes()
    assert a.target_velocity.tobytes() == b.target_velocity.tobytes()
    assert _bits([a.miss_distance, a.miss_time]) == _bits([b.miss_distance, b.miss_time])
    assert a.termination_reason == b.termination_reason
    assert a.diagnostic == b.diagnostic
    assert a.source_switch_time == b.source_switch_time


class TestWarmupResume:
    """A run resumed from the other source's warm-up state is the
    independent run of its own source."""

    LAGGED = {"seeker.lag_time_constant": 0.2, "target.kind": "weaving",
              "target.phase": 0.7}
    # warm-up, max_time: on the grid, off it, at t = 0, at the last step,
    # past the timeout, where the first run leaves no state, and after
    # burnout (6.6 s), where the resumed run schedules no boost row
    WARMUPS = [(0.0, 60.0), (0.2005, 60.0), (2.0, 60.0), (3.0, 3.0), (5.0, 3.0), (7.0, 60.0)]

    @pytest.fixture(scope="class")
    def runs(self):
        """(config, record) of each source's independent run; the configs
        of one warm-up share everything but the source."""
        bases, cache = {}, {}

        def run(warmup, max_time, source, record_prediction=True):
            key = (warmup, max_time)
            if key not in bases:
                bases[key] = engagement_config({**self.LAGGED, "guidance.warmup": warmup,
                                                "engagement.max_time": max_time})
            case = key + (source, record_prediction)
            if case not in cache:
                cfg = bases[key].with_source(source)
                cache[case] = cfg, en.run_engagement(cfg, record_prediction=record_prediction)
            return cache[case]
        return run

    @pytest.mark.parametrize("record_prediction", [True, False])
    @pytest.mark.parametrize("warmup, max_time", WARMUPS)
    @pytest.mark.parametrize("first, second", [("delayed", "predicted"),
                                               ("predicted", "delayed")])
    def test_resumed_run_is_independent_run(self, runs, warmup, max_time, first, second,
                                            record_prediction):
        _, first_record = runs(warmup, max_time, first, record_prediction)
        cfg, independent = runs(warmup, max_time, second, record_prediction)
        state = first_record.warmup
        if warmup > max_time:
            # a run that times out before the handoff leaves no state,
            # and the other source flies from the start
            assert state is None
            return
        ts = first_record.series["t"].tolist()
        assert state.step == next(i for i, t in enumerate(ts) if t >= warmup)
        assert len(state.prefix) == state.step
        # the closest-approach bookkeeping over the prefix ranges
        range_min, rising = math.inf, 0
        for r in first_record.series["range"][:state.step].tolist():
            range_min, rising = (range_min, rising + 1) if r > range_min else (r, 0)
        assert (state.range_min, state.rising) == (range_min, rising)
        resumed = en.run_engagement(cfg, state.detached(), record_prediction=record_prediction)
        assert_same_record(resumed, independent)
        assert resumed.termination_reason == ("timeout" if warmup >= max_time
                                              else "closest_approach")

    def test_unread_prediction_is_not_stepped(self, runs, monkeypatch):
        # without a recorded prediction, a delayed run steps the observer
        # only until its warm-up state is taken, and records NaN after it
        full_cfg, full = runs(2.0, 60.0, "delayed")
        real, calls = ob.rk4_step8, []

        def counted(x, v, m):
            calls.append(1)
            return real(x, v, m)

        monkeypatch.setattr(ob, "rk4_step8", counted)
        lean = en.run_engagement(full_cfg, record_prediction=False)
        step = full.warmup.step
        assert len(calls) == 2 * step
        for c in en.CSV_COLUMNS:
            if c in ("lam_pred_p", "lam_pred_y"):
                assert lean.series[c][:step + 1].tobytes() == full.series[c][:step + 1].tobytes()
                assert np.isnan(lean.series[c][step + 1:]).all(), c
            else:
                assert lean.series[c].tobytes() == full.series[c].tobytes(), c
        assert_same_record(dataclasses.replace(lean, series=full.series), full)
        assert (lean.warmup.step, lean.warmup.obs_p, lean.warmup.obs_y) == (
            step, full.warmup.obs_p, full.warmup.obs_y)
        # the predicted source reads the observer throughout
        pred_cfg, pred = runs(2.0, 60.0, "predicted")
        assert_same_record(en.run_engagement(pred_cfg, record_prediction=False), pred)
        # the true source reads it never
        calls.clear()
        true = en.run_engagement(full_cfg.with_source("true"), record_prediction=False)
        assert calls == []
        assert true.termination_reason == "closest_approach"

    def test_unread_observer_cannot_end_flight(self):
        # epsilon 1e-4 makes the observer blow up within 0.13 s;
        # replace bypasses the validation that would refuse it
        cfg = engagement_config({**self.LAGGED, "guidance.source": "delayed",
                                 "guidance.warmup": 0.0})
        bad = dataclasses.replace(cfg, observer=dataclasses.replace(cfg.observer,
                                                                    epsilon=1e-4))
        diverged = en.run_engagement(bad)
        assert diverged.termination_reason == "observer_divergence"
        assert diverged.diagnostic == "observer state non-finite at t=0.121"
        assert len(diverged) == 122
        lean = en.run_engagement(bad, record_prediction=False)
        stable = en.run_engagement(cfg)
        assert lean.termination_reason == "closest_approach"
        for c in en.CSV_COLUMNS:
            if c not in ("lam_pred_p", "lam_pred_y"):
                assert lean.series[c].tobytes() == stable.series[c].tobytes(), c
        assert np.isnan(lean.series["lam_pred_p"][1:]).all()
        assert_same_record(dataclasses.replace(lean, series=stable.series), stable)

    def test_resumed_rows_handed_off_from_row_zero(self, runs):
        _, first_record = runs(2.0, 60.0, "delayed")
        cfg, independent = runs(2.0, 60.0, "predicted")
        # the 2000 prefix rows in one call before the loop, then one row a call
        resumed, chunks = rows_handed_off(cfg, first_record.warmup.detached())
        assert_same_record(resumed, independent)
        assert first_record.warmup.step == 2000
        assert [len(c) for c in chunks] == [2000 * ROW_BYTES] + [ROW_BYTES] * (len(resumed) - 2000)
        assert_chunks_join_to_record(chunks, resumed)

    def test_state_shares_the_record_rows(self, runs):
        _, record = runs(2.0, 60.0, "delayed")
        prefix = record.warmup.prefix
        assert np.shares_memory(prefix, record.missile_velocity)
        assert not np.shares_memory(record.warmup.detached().prefix, prefix)

    def test_no_state_for_closest_approach_before_warmup(self):
        cfg = engagement_config({**self.LAGGED, "guidance.source": "predicted",
                                 "guidance.warmup": 30.0, "target.position": [2000.0, 0.0, 800.0]})
        record = en.run_engagement(cfg)
        assert record.termination_reason == "closest_approach"
        assert record.series["t"][-1] < 30.0
        assert record.warmup is None
        assert record.source_switch_time is None

    def test_no_state_for_true_source(self, true_run):
        record, _ = true_run
        assert record.warmup is None

    def test_warmup_step_matches_step_grid(self):
        # short runs with the warm-up on a grid point, one ulp either
        # side of it and between two points: the state is stored at the
        # first recorded step with t >= warmup, which the predicted
        # source also reports as its switch time
        rng = random.Random(11)
        for i in range(40):
            dt = rng.choice([1e-3, 5e-4, 1.0 / 3.0e3, rng.uniform(1e-4, 1e-2)])
            n_max = rng.randint(1, 30)
            k = rng.randint(0, n_max + 1)
            source = ("delayed", "predicted")[i % 2]
            for warmup in (k * dt, math.nextafter(k * dt, math.inf),
                           math.nextafter(k * dt, 0.0), (k + 0.5) * dt):
                record = en.run_engagement(engagement_config({
                    "guidance.source": source, "seeker.lag_time_constant": 0.2,
                    "guidance.warmup": warmup, "engagement.dt": dt,
                    "engagement.max_time": n_max * dt}))
                ts = record.series["t"].tolist()
                assert len(ts) == n_max + 1
                want = next((n for n, t in enumerate(ts) if t >= warmup), None)
                got = None if record.warmup is None else record.warmup.step
                assert got == want, (warmup, dt, n_max)
                if source == "predicted":
                    assert record.source_switch_time == (None if want is None else ts[want])

    def test_warmup_step_constant_time(self):
        # a warm-up no step reaches stores no state, however far away
        record = en.run_engagement(engagement_config({"guidance.source": "predicted",
                                                      "guidance.warmup": 1e300,
                                                      "engagement.max_time": 0.01}))
        assert record.termination_reason == "timeout"
        assert record.warmup is None
        assert record.source_switch_time is None


class TestMetricsAndCsv:
    def test_metrics_consistent_with_record(self, predicted_run):
        record, cfg = predicted_run
        m = en.compute_metrics(record, cfg)
        assert m["miss_distance"] == record.miss_distance
        assert m["rmse_predicted"] < m["rmse_delayed"]
        assert math.isfinite(m["rmse_predicted_full"])
        assert m["peak_accel_cmd"] > 0.0
        assert m["integrated_abs_deflection"] > 0.0

    def test_peak_matches_series(self, predicted_run):
        record, cfg = predicted_run
        s = record.series
        want = float(np.max(np.hypot(s["acc_cmd_p"], s["acc_cmd_y"])))
        assert en.compute_metrics(record, cfg)["peak_accel_cmd"] == want

    def test_integrated_deflection_closed_form(self):
        # defl_p = k t is linear, so the trapezoid is exact: k T^2 / 2;
        # a constant defl_y = -c adds c T
        k, c, big_t = 0.3, 0.05, 2.0
        ts = np.linspace(0.0, big_t, 401)
        record = still_record(ts)
        record.series["defl_p"] = k * ts
        record.series["defl_y"] = np.full_like(ts, -c)
        got = en.compute_metrics(record, engagement_config())["integrated_abs_deflection"]
        assert got == pytest.approx(k * big_t ** 2 / 2 + c * big_t, rel=1e-12)

    def test_one_row_record_metrics(self):
        record = still_record([0.0])
        record.series["acc_cmd_p"] = np.array([-3.0])
        record.series["acc_cmd_y"] = np.array([4.0])
        record.series["defl_p"] = np.array([0.2])
        m = en.compute_metrics(record, engagement_config())
        assert m["peak_accel_cmd"] == 5.0
        assert m["integrated_abs_deflection"] == 0.0

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

    @pytest.mark.parametrize("max_time", [0.001, 0.254, 0.255, 0.256, 2.0])
    def test_rows_handed_off_join_to_record(self, max_time):
        cfg = engagement_config({"engagement.max_time": max_time})
        record, chunks = rows_handed_off(cfg)
        assert len(record) == round(max_time / cfg.dt) + 1
        assert_same_record(record, en.run_engagement(cfg))
        assert [len(c) for c in chunks] == [ROW_BYTES] * len(record)
        assert_chunks_join_to_record(chunks, record)

    @pytest.mark.parametrize("piece", [1, ROW_BYTES - 1, 70_000],
                             ids=["byte", "row-less-one-byte", "over-a-pipe"])
    def test_stream_joins_rows_split_across_writes(self, piece, tmp_path):
        record = en.run_engagement(engagement_config({"engagement.max_time": 2.0}))
        record.write_csv(tmp_path / "want.csv")
        write_streamed(record, tmp_path / "got.csv", piece)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("extra", [100, 200])
    def test_stream_ending_mid_row_fails(self, extra, tmp_path):
        path = tmp_path / "run.csv"
        with open(path, "w") as fh:
            stream = en.CsvStream(fh)
            with pytest.raises(OSError, match="run.csv"), stream:
                stream.write(np.arange(3 * ROW_BYTES // 8, dtype=float).tobytes())
                stream.write(bytes(extra))
        with pytest.raises(ChildProcessError):  # the writer was reaped
            os.waitpid(stream.pid, 0)

    def test_short_run_rmse_is_nan(self):
        cfg = engagement_config({"engagement.max_time": 0.05})
        record = en.run_engagement(cfg)
        m = en.compute_metrics(record, cfg)
        assert math.isnan(m["rmse_delayed"])
        assert math.isnan(m["rmse_predicted"])
        assert math.isfinite(m["miss_distance"])

    @pytest.mark.parametrize("samples", [99, 100])
    def test_rmse_needs_100_samples(self, samples):
        # a timeout's full-run window holds every step but the last
        # delta / dt, which have no reference sample
        cfg = engagement_config()
        shift = round(cfg.observer.delta / cfg.dt)
        cfg = engagement_config({"engagement.max_time": (shift + samples - 1) * cfg.dt})
        record = en.run_engagement(cfg)
        assert record.termination_reason == "timeout"
        assert len(record) - shift == samples
        m = en.compute_metrics(record, cfg)
        for rmse in (m["rmse_delayed_full"], m["rmse_predicted_full"]):
            assert math.isfinite(rmse) if samples == 100 else math.isnan(rmse)


    # both sides of write_csv's block boundaries and of the stream's chunks,
    # through write_csv (ids "n") and through the stream (ids "stream-n")
    @pytest.mark.parametrize("write, n", [
        pytest.param(write, n, id=prefix + str(n))
        for write, prefix in [(en.EngagementRecord.write_csv, ""), (write_streamed, "stream-")]
        for n in [0, 1, 255, 256, 257, 1023, 1024, 1025, 2049]])
    def test_csv_blocks_round_trip_bits(self, write, n, tmp_path):
        # rows on both sides of the write block boundaries reload bit for bit
        rng = np.random.default_rng(n)
        series = {}
        for c in en.CSV_COLUMNS:
            col = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)
            col[:3] = [-0.0, 1e-300, 1e300][:n]
            series[c] = col
        rec = en.EngagementRecord(
            series=series, missile_velocity=np.zeros((n, 3)),
            target_velocity=np.zeros((n, 3)), miss_distance=math.nan,
            miss_time=math.nan, termination_reason="timeout",
            source_switch_time=None)
        path = tmp_path / "run.csv"
        write(rec, path)
        lines = path.read_text().splitlines()
        assert tuple(lines[0].split(",")) == en.CSV_COLUMNS
        assert len(lines) == n + 1
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]],
                       dtype=float).reshape(n, len(en.CSV_COLUMNS))
        for j, c in enumerate(en.CSV_COLUMNS):
            assert got[:, j].tobytes() == series[c].tobytes(), c

    def test_record_memory_near_its_size(self):
        # the loop keeps packed doubles, not a Python object per value:
        # the traced peak stays within twice the record's own size
        cfg = engagement_config({"engagement.max_time": 2.0})
        en.run_engagement(cfg)  # warm-up: first-call caches are not the record
        tracemalloc.start()
        try:
            record = en.run_engagement(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        nbytes = len(record) * (len(en.CSV_COLUMNS) + 6) * 8
        assert len(record) == 2001
        assert peak < 2 * nbytes + 64 * 1024, (peak, nbytes)

    def test_record_ending_at_step_zero(self, tmp_path):
        # a target at the launch site gives no line of sight on step 0
        cfg = engagement_config()
        cfg = dataclasses.replace(cfg, target=dataclasses.replace(
            cfg.target, initial_position=(0.0, 0.0, 0.0)))
        record = en.run_engagement(cfg)
        assert len(record) == 0
        assert all(record.series[c].shape == (0,) for c in en.CSV_COLUMNS)
        assert record.missile_velocity.shape == (0, 3)
        assert record.target_velocity.shape == (0, 3)
        assert math.isnan(record.miss_distance)
        with pytest.raises(ValueError):
            en.compute_metrics(record, cfg)
        record.write_csv(tmp_path / "run.csv")
        assert (tmp_path / "run.csv").read_text() == ",".join(en.CSV_COLUMNS) + "\n"


def _bits(values) -> bytes:
    return struct.pack("%dd" % len(values), *values)


def vehicle_rk4_reference(x, defl, frame, t, dt):
    """Classical RK4 on the whole 11-state derivative, with the scalar
    reference of the profile's thrust, mass flow and mass at every stage
    time: the reference for _vehicle_rk4, which integrates only the
    states the dynamics read and takes the boost from a schedule row."""
    atm = af.atmosphere(max(x[2], 0.0))
    speed = math.sqrt(x[3] * x[3] + x[4] * x[4] + x[5] * x[5])
    row = frame.table.interpolate(speed / atm.speed_of_sound)
    prof = frame.thrust

    def rhs(state, tt):
        return state_derivative(state, defl[0], defl[1], row, frame.table.reference_area,
                                frame.table.reference_length, 1.0 / frame.transverse_inertia,
                                thrust_at(prof, tt), mass_flow_at(prof, thrust_at(prof, tt)),
                                atm.density)

    h2 = dt * 0.5
    k1 = rhs(x, t)
    k2 = rhs(tuple(a + h2 * b for a, b in zip(x, k1)), t + h2)
    k3 = rhs(tuple(a + h2 * b for a, b in zip(x, k2)), t + h2)
    k4 = rhs(tuple(a + dt * b for a, b in zip(x, k3)), t + dt)
    h6 = dt / 6.0
    out = [a + h6 * (p + 2.0 * (q + r) + s) for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
    out[10] = mass_at(prof, t + dt)
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
                     mass_at(prof, t) * float(rng.uniform(0.9, 1.1)))
                defl = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)))
                got = en._vehicle_rk4(x, defl, frame, boost_row(prof, t, self.DT), self.DT)
                want = vehicle_rk4_reference(x, defl, frame, t, self.DT)
                assert _bits(got) == _bits(want), t

    def test_burnout_mass_matches_impulse_integral(self):
        prof = af.load_airframe().thrust
        for t in (prof.burnout_time, prof.burnout_time + 1e-3, 60.0):
            frac = min(prof.impulse_to(t) / prof.total_impulse, 1.0)
            assert prof.mass_at(t) == prof.initial_mass - prof.propellant_mass * frac


BOOST_PROFILES = {
    "builtin": lambda: af.load_airframe().thrust,
    # one breakpoint: no thrust and zero total impulse
    "zero_impulse": lambda: af.ThrustProfile([0.5], [900.0], 80.0, 20.0),
    # ignites at 0.8 s
    "late_ignition": lambda: af.ThrustProfile([0.8, 7.3, 8.2, 9.1],
                                              [3828.1, 14895.7, 1175.2, 0.0], 90.0, 30.0),
}


class TestBoostSchedule:
    """The schedule holds what each burning step reads of the profile,
    bit for bit as the scalar reference gives it."""

    @pytest.mark.parametrize("dt", [5e-4, 7e-4, 1e-3, 2e-3])
    @pytest.mark.parametrize("profile", sorted(BOOST_PROFILES))
    def test_rows_match_scalar_reference(self, profile, dt):
        prof = BOOST_PROFILES[profile]()
        n_max = int(round(60.0 / dt))
        rows = en._boost_schedule(prof, 0, n_max, dt)
        burning = [n for n in range(n_max) if n * dt < prof.burnout_time]
        assert burning == list(range(len(rows)))
        assert rows.shape == (len(burning), 7)
        for n, row in zip(burning, rows.tolist()):
            assert _bits(row) == _bits(boost_row(prof, n * dt, dt)), n
        # a resumed run's schedule is the tail of the fresh run's
        for start in (1, len(rows) // 2, len(rows) - 1, len(rows), len(rows) + 5):
            tail = en._boost_schedule(prof, start, n_max, dt)
            assert tail.tobytes() == rows[start:].tobytes(), start
        # and a run that stops before burnout schedules only its steps
        assert en._boost_schedule(prof, 0, 7, dt).tobytes() == rows[:7].tobytes()

    def test_off_grid_step_straddles_burnout(self):
        # at 0.7 ms the stage times fall between the breakpoints, and the
        # last burning step ends after burnout
        prof = af.load_airframe().thrust
        dt = 7e-4
        rows = en._boost_schedule(prof, 0, 100_000, dt).tolist()
        last = len(rows) - 1
        assert last * dt < prof.burnout_time < (last + 1) * dt
        assert rows[last][2] == 0.0 < rows[last][1]
        assert rows[last][6] == prof.burnout_mass
        stage_times = {n * dt + h for n in range(len(rows)) for h in (0.0, dt * 0.5, dt)}
        assert not stage_times & set(prof.times[1:])


class TestLoopReplay:
    """Replaying the recorded inputs through the target, seeker-lag,
    observer and autopilot kernels reproduces the recorded series."""

    @pytest.fixture(scope="class")
    def weave_run(self):
        cfg = engagement_config({"guidance.source": "predicted", "seeker.lag_time_constant": 0.2,
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
        m = ob.step_map(cfg.dt, cfg.observer.coefficients())
        for ch in ("p", "y"):
            delayed = s["lam_del_" + ch].tolist()
            x = (delayed[0], 0.0, 0.0, 0.0, delayed[0], 0.0, 0.0, 0.0)
            pred = [x[4]]
            for v in delayed[:-1]:
                x = ob.rk4_step8(x, v, m)
                pred.append(x[4])
            assert _bits(pred) == s["lam_pred_" + ch].tobytes()
