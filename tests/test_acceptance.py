"""End-to-end acceptance gate.

Each test exercises one release criterion at its stated tolerance and
prints a single PASS/FAIL line on the live terminal, bypassing capture,
so the gate is readable straight from the pytest run.
"""

import math
import random

import numpy as np
import pytest
from conftest import engagement_config, rk4_from_rhs8

from pgsim import airframe as af
from pgsim import engagement as en
from pgsim import montecarlo as mc
from pgsim import observer as ob
from pgsim import seeker as sk


def report(capsys, number, ok, detail):
    line = "ACCEPTANCE %d: %s — %s" % (number, "PASS" if ok else "FAIL", detail)
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def observer_config(epsilon=0.05, delta=0.2):
    return ob.ObserverConfig(4.0, 6.0, 4.0, 1.0, epsilon=epsilon, delta=delta)


def seed(v0):
    """The observer state the engagement loop starts from."""
    return (v0, 0.0, 0.0, 0.0, v0, 0.0, 0.0, 0.0)


def test_criterion_1_polynomial_exactness(capsys):
    # cubic input: the prediction must be exact up to integrator error.
    # The RK4 reference steps on the input sampled at the stage times,
    # which removes the hold's tracking bias; the shipped held-sample
    # kernel is pinned to the exact held-input step by its expm oracle.
    cfg = observer_config(epsilon=0.05, delta=0.2)
    dt = cfg.epsilon / 10.0

    def v(t):
        return 2.0 * t ** 3 - t ** 2 + 5.0

    coeffs = cfg.coefficients()
    x, t = seed(v(0.0)), 0.0
    n = int(round(2.0 / dt))
    for _ in range(n):
        x = rk4_from_rhs8(x, (v(t), v(t + dt * 0.5), v(t + dt)), dt, coeffs)
        t = t + dt
    want = v(t + cfg.delta)
    rel = abs(x[4] - want) / abs(want)
    report(capsys, 1, rel < 1e-5,
           "cubic-signal prediction relative error %.3g (< 1e-5)" % rel)


def test_criterion_2_prediction_dominance(capsys):
    # sin(t) through the observer vs through a 0.2 s first-order lag
    delta = 0.2
    cfg = observer_config(epsilon=0.05, delta=delta)
    dt = 1e-3
    lag = sk.lag_coefficients(dt, sk.SeekerConfig(lag_time_constant=delta))
    m = ob.step_map(dt, cfg.coefficients())
    obs = seed(0.0)
    filt = (0.0, 0.0)
    pred, delayed, ref = [], [], []
    n = int(round(10.0 / dt))
    for i in range(n):
        t = i * dt
        ref.append(math.sin(t))
        pred.append(obs[4])
        delayed.append(filt[0])
        obs = ob.rk4_step8(obs, math.sin(t), m)
        filt = sk.delay_step(filt, (math.sin(t), 0.0), lag)
    start = int(round(2.0 / dt))  # t = 2 s
    r_pred = en.los_rmse(pred, ref, delta, dt, start)
    r_del = en.los_rmse(delayed, ref, delta, dt, start)
    report(capsys, 2, r_pred <= r_del / 5.0,
           "prediction RMSE %.3g vs lagged RMSE %.3g (ratio %.1fx, need >= 5x)"
           % (r_pred, r_del, r_del / max(r_pred, 1e-300)))


def test_criterion_3_zero_horizon_degeneracy(capsys):
    cfg = observer_config(epsilon=0.05, delta=0.0)
    dt = cfg.epsilon / 10.0
    m = ob.step_map(dt, cfg.coefficients())
    x = seed(0.0)
    worst = 0.0
    for i in range(10000):
        x = ob.rk4_step8(x, math.sin(0.7 * i * dt), m)
        worst = max(worst, max(abs(a - b) for a, b in zip(x[:4], x[4:])))
    report(capsys, 3, worst <= 1e-12,
           "max |step-one - step-two| over 1e4 steps = %.3g (<= 1e-12)" % worst)


def test_criterion_4_miss_distance_ordering(capsys):
    miss = {}
    for source, lag in (("delayed", 0.2), ("predicted", 0.2), ("true", 0.0)):
        cfg = engagement_config({"guidance.source": source,
                                 "seeker.lag_time_constant": lag})
        miss[source] = en.run_engagement(cfg).miss_distance
    ok = (miss["predicted"] <= 0.6 * miss["delayed"]
          and miss["true"] <= miss["predicted"])
    report(capsys, 4, ok,
           "miss true=%.4g m, predicted=%.4g m, delayed=%.4g m "
           "(need predicted <= 0.6*delayed and true <= predicted)"
           % (miss["true"], miss["predicted"], miss["delayed"]))


def test_criterion_5_zero_delay_baseline(capsys):
    record = en.run_engagement(engagement_config({"guidance.source": "true"}))
    report(capsys, 5, record.miss_distance < 0.5,
           "zero-lag ideal-source miss %.4g m (< 0.5 m)" % record.miss_distance)


@pytest.mark.slow
def test_criterion_6_sweep_trends(capsys, default_sweep):
    sweep, summary, elapsed = default_sweep
    g = summary.groups
    d_lo, d_hi = sweep.delays[0], sweep.delays[-1]
    near_02 = min(sweep.delays, key=lambda d: abs(d - 0.2))
    growth = g[(d_hi, "delayed")]["mean_miss"] / g[(d_lo, "delayed")]["mean_miss"]
    flatness = (g[(near_02, "predicted")]["mean_miss"]
                / g[(d_lo, "predicted")]["mean_miss"])
    std_pred = np.mean([g[(d, "predicted")]["std_miss"] for d in sweep.delays])
    std_del = np.mean([g[(d, "delayed")]["std_miss"] for d in sweep.delays])
    failures = sum(st["failure_count"] for st in g.values())
    checks = {
        "delayed miss grows >= 2x": growth >= 2.0,
        "predicted miss flat to 0.2 s (<= 2x)": flatness <= 2.0,
        "std(predicted) < std(delayed)": std_pred < std_del,
        "zero failed runs": failures == 0,
    }
    ok = all(checks.values())
    report(capsys, 6, ok,
           "400-run sweep in %.0f s: delayed growth %.2fx, predicted "
           "flatness %.2fx, mean std %.3g vs %.3g m, failures %d%s"
           % (elapsed, growth, flatness, std_pred, std_del, failures,
              "" if ok else "; failed: %s"
              % [k for k, v in checks.items() if not v]))


def test_criterion_7_metric_oracles(capsys):
    rmse = en.los_rmse([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], 0.0, 0.1)
    rmse_ok = abs(rmse - math.sqrt(5.0 / 3.0)) <= 1e-12

    ts = np.arange(0.0, 4.0, 0.03)
    n = len(ts)
    mp = np.zeros((n, 3))
    tp = np.column_stack([100.0 - 50.0 * ts, np.full(n, 5.0), np.zeros(n)])
    series = {c: np.zeros(n) for c in en.CSV_COLUMNS}
    series["t"] = ts
    series["tx"], series["ty"], series["tz"] = tp.T.copy()
    series["range"] = np.linalg.norm(tp - mp, axis=1)
    rec = en.EngagementRecord(
        series=series, missile_velocity=mp.copy(),
        target_velocity=np.tile([-50.0, 0.0, 0.0], (n, 1)),
        miss_distance=math.nan, miss_time=math.nan,
        termination_reason="closest_approach", source_switch_time=None)
    miss, _ = en.miss_distance(rec)
    fine = np.arange(0.0, 4.0, 1e-6)
    dense = float(np.min(np.sqrt((100.0 - 50.0 * fine) ** 2 + 25.0)))
    miss_ok = abs(miss - dense) <= 1e-4

    rs = [mc.RunResult(delay=0.1, source="delayed", sample=i, seed=i, miss=m,
                       miss_continuous=m, rmse=0.0, peak_accel=0.0,
                       termination="closest_approach")
          for i, m in enumerate([1.0, 2.0, 3.0])]
    std = mc.aggregate(rs).groups[(0.1, "delayed")]["std_miss"]
    std_ok = abs(std - math.sqrt(2.0 / 3.0)) <= 1e-12

    report(capsys, 7, rmse_ok and miss_ok and std_ok,
           "los_rmse=%.12g (want sqrt(5/3)), miss=%.6g m (dense oracle "
           "%.6g m), std=%.12g (want sqrt(2/3))"
           % (rmse, miss, dense, std))


def test_criterion_8_sweep_determinism(capsys, tmp_path):
    sweep = mc.SweepConfig(delays=(0.1, 0.25), samples_per_delay=3,
                           master_seed=2024, sources=("delayed", "predicted"),
                           base=engagement_config({"engagement.max_time": 15.0}))
    paths = []
    for tag in ("a", "b"):
        summary = mc.run_sweep(sweep)
        path = tmp_path / ("sweep_runs_%s.csv" % tag)
        mc.write_runs_csv(summary, path)
        paths.append(path.read_bytes())
    report(capsys, 8, paths[0] == paths[1],
           "repeated 2x3 sweep CSVs byte-identical: %s"
           % (paths[0] == paths[1]))


def test_criterion_9_airframe_invariants(capsys):
    rng = random.Random(3)
    frame = af.load_airframe()
    table = frame.table
    inertia = frame.transverse_inertia
    atm = af.atmosphere(500.0)

    def loads(vel, rates, defl):
        # total force in N and body moments in N*m at 500 m, 70 kg
        speed = math.sqrt(sum(c * c for c in vel))
        d = af.vehicle_rhs(*vel, 0.0, 0.0, *rates, 70.0, *defl,
                           table.interpolate(speed / atm.speed_of_sound),
                           table.reference_area, table.reference_length,
                           1.0 / inertia, 0.0, atm.density)
        return 70.0 * d[1], 70.0 * (d[2] + af.G0), inertia * d[3], inertia * d[4]

    worst_sym = 0.0
    mono_ok = True
    prev = None
    for i in range(1000):
        inc = rng.uniform(-0.3, 0.3)
        defl = rng.uniform(-0.4, 0.4)
        rate = rng.uniform(-3.0, 3.0)
        speed = rng.uniform(200.0, 800.0)
        _, fz, m_pitch, _ = loads(
            (speed * math.cos(inc), 0.0, -speed * math.sin(inc)), (rate, 0.0), (defl, 0.0))
        fy, _, _, m_yaw = loads(
            (speed * math.cos(inc), -speed * math.sin(inc), 0.0), (0.0, rate), (0.0, defl))
        worst_sym = max(worst_sym, abs(fy - fz), abs(m_yaw - m_pitch))
        h = i * 20.0  # 0 to 20 km
        sample = af.atmosphere(h)
        if prev is not None and not (sample.density < prev.density
                                     and sample.pressure < prev.pressure):
            mono_ok = False
        prev = sample
    sym_ok = worst_sym < 1e-6
    report(capsys, 9, sym_ok and mono_ok,
           "cruciform pitch/yaw mismatch %.3g N or N*m (< 1e-6); "
           "atmosphere monotonic over 1000 altitudes: %s"
           % (worst_sym, mono_ok))
