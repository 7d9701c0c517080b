import math

import numpy as np
import pytest
from conftest import engagement_config, rhs8, rk4_from_rhs8, schema_config
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsim import engagement as en
from pgsim import observer as ob

GAINS = dict(k1=4.0, k2=6.0, k3=4.0, k4=1.0)  # (s+1)^4, roots all at -1


def make_config(**kw):
    """The schema's observer config with the binomial gains; ``kw``
    replaces any field."""
    return schema_config("observer", **{**GAINS, **kw})


class TestValidateGains:
    def test_binomial_gains_are_stable(self):
        assert ob.validate_gains(4, 6, 4, 1)
        # oracle: the quartic factors as (s+1)^4
        roots = np.roots([1, 4, 6, 4, 1])
        assert np.allclose(roots, -1.0, atol=1e-2)

    def test_unit_gains_are_unstable(self):
        # (k1 k2 - k3) k3 - k1^2 k4 = (1*1-1)*1 - 1 = -1 < 0
        assert not ob.validate_gains(1, 1, 1, 1)

    def test_nonpositive_k1_rejected(self):
        assert not ob.validate_gains(0, 6, 4, 1)

    @given(st.tuples(*[st.floats(0.01, 50.0) for _ in range(4)]))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_root_finding(self, ks):
        roots = np.roots([1.0, *ks])
        stable = bool(np.all(roots.real < -1e-9))
        marginal = bool(np.any(np.abs(roots.real) < 1e-9))
        if not marginal:
            assert ob.validate_gains(*ks) == stable


class TestInjectionGains:
    def test_zero_horizon_collapses_to_step_one_gains(self):
        c = make_config(epsilon=0.1, delta=0.0).coefficients()
        assert c[:4] == pytest.approx((40.0, 600.0, 4000.0, 10000.0), rel=1e-12)
        assert c[4:] == c[:4]

    def test_direct_evaluation(self):
        cfg = make_config(epsilon=0.1, delta=0.05)
        g = cfg.coefficients()[4:]
        # hand evaluation: b = (40, 600, 4000, 10000)
        # g1 = 10000*0.05^3/6 + 4000*0.05^2/2 + 600*0.05 + 40
        assert g[0] == pytest.approx(75.20833333333333, rel=1e-12)
        # g2 = 10000*0.05^2/2 + 4000*0.05 + 600 = 12.5 + 200 + 600
        assert g[1] == pytest.approx(812.5, rel=1e-12)
        assert g[2] == pytest.approx(4500.0, rel=1e-12)
        assert g[3] == pytest.approx(10000.0, rel=1e-12)

    def test_unit_epsilon_and_horizon(self):
        cfg = make_config(k1=2, k2=3, k3=2, k4=1, epsilon=1.0, delta=1.0)
        g = cfg.coefficients()[4:]
        assert g == pytest.approx((1 / 6 + 1 + 3 + 2, 0.5 + 2 + 3, 1 + 2, 1))


class TestObserverRhs:
    def test_zero_error_leaves_integrator_chains(self):
        coeffs = make_config(epsilon=0.1, delta=0.2).coefficients()
        d = rhs8((0.7, 1.0, 2.0, 3.0, 0.1, 4.0, 5.0, 6.0), 0.7, coeffs)
        assert d == (1.0, 2.0, 3.0, 0.0, 4.0, 5.0, 6.0, 0.0)

    def test_unit_error_injects_gains(self):
        coeffs = make_config(epsilon=1.0, delta=0.0).coefficients()
        d = rhs8((0.0,) * 8, 1.0, coeffs)
        assert d == (4.0, 6.0, 4.0, 1.0, 4.0, 6.0, 4.0, 1.0)

    def test_zero_state_zero_input(self):
        assert rhs8((0.0,) * 8, 0.0, make_config().coefficients()) == (0.0,) * 8


def seed(v0):
    """The state the engagement loop starts from: x11 = x12 = v0."""
    return (v0, 0.0, 0.0, 0.0, v0, 0.0, 0.0, 0.0)


def step_map(cfg, dt):
    """The RK4 step map of ``cfg``'s observer at step size ``dt``."""
    return ob.step_map(dt, cfg.coefficients())


def run_observer(cfg, signal, duration, dt, staged=False):
    """(state, t) after ``duration`` seconds on ``signal(t)`` from its
    seed.  The shipped kernel steps on each step's start sample, held
    over the step; with ``staged``, the RK4 reference steps instead, on
    ``signal`` sampled at the stage times, which removes the hold's
    tracking bias."""
    m = step_map(cfg, dt)
    coeffs = cfg.coefficients()
    x, t = seed(signal(0.0)), 0.0
    for _ in range(int(round(duration / dt))):
        if staged:
            x = rk4_from_rhs8(x, (signal(t), signal(t + dt * 0.5), signal(t + dt)),
                              dt, coeffs)
        else:
            x = ob.rk4_step8(x, signal(t), m)
        t = t + dt
    return x, t


class TestReset:
    def test_zero_seed(self):
        # seeding with the current sample leaves no initial error: the
        # seeded state is at rest under that sample
        m = step_map(make_config(delta=0.2), 1e-3)
        for v0 in (0.0, 0.3, -2.5):
            x = seed(v0)
            assert ob.rk4_step8(x, v0, m) == x

    def test_seed_value_placed_in_both_steps(self):
        s = en.run_engagement(engagement_config({"guidance.source": "predicted",
                                                 "seeker.lag_time_constant": 0.2,
                                                 "engagement.max_time": 0.01})).series
        for ch in ("p", "y"):
            assert s["lam_pred_" + ch][0] == s["lam_true_" + ch][0]
            assert s["lam_del_" + ch][0] == s["lam_true_" + ch][0]


class TestObserverStep:
    def test_equilibrium(self):
        assert ob.rk4_step8((0.0,) * 8, 0.0, step_map(make_config(), 1e-3)) == (0.0,) * 8

    def test_divergence_names_entry(self, monkeypatch):
        # a non-finite observer state ends the run as observer_divergence
        # and the diagnostic names the observer
        real = ob.rk4_step8
        calls = []

        def blow_up(x, v, m):
            calls.append(1)
            x = real(x, v, m)
            return x if len(calls) < 10 else x[:4] + (math.inf,) + x[5:]

        monkeypatch.setattr(ob, "rk4_step8", blow_up)
        record = en.run_engagement(engagement_config({"engagement.max_time": 0.1}))
        assert record.termination_reason == "observer_divergence"
        assert record.diagnostic == "observer state non-finite at t=0.004"
        assert len(record) == 5

    def test_nonfinite_map_diverges(self, monkeypatch):
        # any non-finite entry of the map the loop steps with ends the
        # run as observer_divergence within two steps
        eng = engagement_config({"engagement.max_time": 0.05})
        m = ob.step_map(eng.dt, eng.observer.coefficients())
        for i in range(len(m)):
            for bad in (math.inf, math.nan):
                monkeypatch.setattr(ob, "step_map",
                                    lambda dt, c, m=m[:i] + (bad,) + m[i + 1:]: m)
                record = en.run_engagement(eng)
                assert record.termination_reason == "observer_divergence", (i, bad)
                assert len(record) <= 2, (i, bad)

    def test_cubic_tracking(self):
        # zero steady-state error for inputs with vanishing 4th derivative
        cfg = make_config(epsilon=0.05, delta=0.0)
        x, t = run_observer(cfg, lambda t: t ** 3, 2.0, 1e-3, staged=True)
        expected = (t ** 3, 3 * t ** 2, 6 * t, 6.0)
        for got, want in zip(x[:4], expected):
            assert got == pytest.approx(want, rel=1e-3)

    def test_sine_prediction_beats_raw_signal(self):
        delta = 0.5
        cfg = make_config(epsilon=0.02, delta=delta)
        dt = 1e-3
        m = step_map(cfg, dt)
        x, t = seed(0.0), 0.0
        n_settle = int(3.0 / dt)
        err_pred = err_raw = 0.0
        for i in range(int(6.0 / dt)):
            x = ob.rk4_step8(x, math.sin(t), m)
            t = t + dt
            if i >= n_settle:
                future = math.sin(t + delta)
                err_pred = max(err_pred, abs(x[4] - future))
                err_raw = max(err_raw, abs(math.sin(t) - future))
        assert err_pred <= err_raw / 5.0


class TestPrediction:
    """The prediction is the step-two chain (x12, x22, x32, x42): the
    signal and its first three derivatives at the horizon."""

    def test_zero_state(self):
        x, _ = run_observer(make_config(delta=0.3), lambda t: 0.0, 1.0, 1e-3)
        assert x[4:] == (0.0, 0.0, 0.0, 0.0)

    def test_converged_cubic_future_value(self):
        cfg = make_config(epsilon=0.05, delta=0.1)
        x, _ = run_observer(cfg, lambda t: t ** 3, 2.0, 1e-3, staged=True)
        assert x[4] == pytest.approx(2.1 ** 3, rel=1e-4)

    def test_constant_signal(self):
        cfg = make_config(epsilon=0.05, delta=0.3)
        x, _ = run_observer(cfg, lambda t: 4.2, 2.0, 1e-3)
        assert x[4] == pytest.approx(4.2, abs=1e-12)
        assert abs(x[5]) < 1e-12 and abs(x[6]) < 1e-12 and abs(x[7]) < 1e-12


class TestInvariants:
    def test_zero_horizon_steps_identical(self):
        # with delta=0 both chains have the same RHS: bit-identical paths
        m = step_map(make_config(epsilon=0.05, delta=0.0), 1e-3)
        rng = np.random.default_rng(7)
        x = seed(0.5)
        for v in rng.normal(size=500):
            x = ob.rk4_step8(x, float(v), m)
            assert x[:4] == x[4:]

    def test_polynomial_exactness(self):
        # settling window of 40*eps at dt = eps/10
        eps = 0.05
        cfg = make_config(epsilon=eps, delta=0.2)
        dt = eps / 10.0

        def v(t):
            return 2 * t ** 3 - t ** 2 + 5

        x, t = run_observer(cfg, v, 2.0, dt, staged=True)
        assert x[0] == pytest.approx(v(t), rel=1e-6)
        assert x[4] == pytest.approx(v(t + 0.2), rel=1e-5)
        # derivative states carry the residual RK4 propagator error at
        # this coarse step; they are checked at the looser tolerance
        assert x[1] == pytest.approx(6 * t ** 2 - 2 * t, rel=1e-3)
        assert x[2] == pytest.approx(12 * t - 2, rel=1e-3)
        assert x[3] == pytest.approx(12.0, rel=1e-3)
        assert x[5] == pytest.approx(6 * (t + 0.2) ** 2 - 2 * (t + 0.2), rel=1e-3)

    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("delta", [0.1, 0.3])
    def test_prediction_dominance(self, omega, delta):
        cfg = make_config(epsilon=0.02, delta=delta)
        dt = 1e-3
        m = step_map(cfg, dt)
        x, t = seed(0.0), 0.0
        sq_pred = sq_raw = 0.0
        n_settle = int(3.0 / dt)
        n = int(6.0 / dt)
        for i in range(n):
            x = ob.rk4_step8(x, math.sin(omega * t), m)
            t = t + dt
            if i >= n_settle:
                future = math.sin(omega * (t + delta))
                sq_pred += (x[4] - future) ** 2
                sq_raw += (math.sin(omega * t) - future) ** 2
        assert sq_pred < sq_raw

    def test_peaking_grows_as_epsilon_shrinks(self):
        def peak(eps):
            cfg = make_config(epsilon=eps, delta=0.3)
            dt = eps / 10.0
            m = step_map(cfg, dt)
            x, t = seed(math.sin(0.0)), 0.0
            worst = 0.0
            for _ in range(40 * 10):  # 40*eps seconds at dt=eps/10
                x = ob.rk4_step8(x, math.sin(t), m)
                t = t + dt
                worst = max(worst, abs(x[4]))
            assert math.isfinite(worst)
            return worst

        p1 = peak(0.04)
        p2 = peak(0.02)
        assert p2 >= p1

    def test_determinism(self):
        cfg = make_config(epsilon=0.05, delta=0.1)
        rng = np.random.default_rng(3)
        inputs = [float(v) for v in rng.normal(size=300)]

        def run():
            m = step_map(cfg, 1e-3)
            x = seed(inputs[0])
            out = []
            for v in inputs:
                x = ob.rk4_step8(x, v, m)
                out.append(x)
            return out

        assert run() == run()


class TestRk4StepParity:
    # The map rounds differently from the written-out stages; the bound
    # is in ulp of the step's scale, max(|x|, |v|, |result|), and the
    # largest error over these cases is 2.0 ulp.
    ULPS = 16

    def test_agrees_with_rhs8_composition(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            x = tuple(float(v) for v in rng.normal(size=8) * 10.0 ** rng.integers(-3, 4, 8))
            cfg = make_config(epsilon=float(rng.uniform(0.02, 0.2)),
                              delta=float(rng.uniform(0.0, 0.4)))
            coeffs = cfg.coefficients()
            dt = cfg.epsilon / float(rng.uniform(4.0, 40.0))
            v = float(rng.normal())
            got = ob.rk4_step8(x, v, ob.step_map(dt, coeffs))
            want = rk4_from_rhs8(x, v, dt, coeffs)
            scale = max(map(abs, (*x, v, *want)))
            err = max(abs(a - b) for a, b in zip(got, want))
            assert err <= self.ULPS * scale * 2.0 ** -52, (x, v, dt, coeffs)
