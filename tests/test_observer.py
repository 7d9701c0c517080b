import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsim import observer as ob

GAINS = ob.ObserverGains(4.0, 6.0, 4.0, 1.0)  # (s+1)^4, roots all at -1


def make_config(**kw):
    kw.setdefault("gains", GAINS)
    return ob.ObserverConfig(**kw)


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

    def test_unstable_gains_unconstructible(self):
        with pytest.raises(ValueError):
            ob.ObserverGains(1, 1, 1, 1)


class TestInjectionGains:
    def test_zero_horizon_collapses_to_step_one_gains(self):
        cfg = make_config(epsilon=0.1, delta=0.0)
        assert ob.second_step_injection_gains(cfg) == pytest.approx(
            (40.0, 600.0, 4000.0, 10000.0), rel=1e-12)

    def test_direct_evaluation(self):
        cfg = make_config(epsilon=0.1, delta=0.05)
        g = ob.second_step_injection_gains(cfg)
        # hand evaluation: b = (40, 600, 4000, 10000)
        # g1 = 10000*0.05^3/6 + 4000*0.05^2/2 + 600*0.05 + 40
        assert g[0] == pytest.approx(75.20833333333333, rel=1e-12)
        # g2 = 10000*0.05^2/2 + 4000*0.05 + 600 = 12.5 + 200 + 600
        assert g[1] == pytest.approx(812.5, rel=1e-12)
        assert g[2] == pytest.approx(4500.0, rel=1e-12)
        assert g[3] == pytest.approx(10000.0, rel=1e-12)

    def test_unit_epsilon_and_horizon(self):
        cfg = make_config(gains=ob.ObserverGains(2, 3, 2, 1), epsilon=1.0, delta=1.0)
        g = ob.second_step_injection_gains(cfg)
        assert g == pytest.approx((1 / 6 + 1 + 3 + 2, 0.5 + 2 + 3, 1 + 2, 1))


class TestObserverRhs:
    def test_zero_error_leaves_integrator_chains(self):
        cfg = make_config(epsilon=0.1, delta=0.2)
        state = ob.ObserverState(step1=(0.7, 1.0, 2.0, 3.0),
                                 step2=(0.1, 4.0, 5.0, 6.0))
        d = ob.observer_rhs(state, 0.7, cfg)
        assert d == (1.0, 2.0, 3.0, 0.0, 4.0, 5.0, 6.0, 0.0)

    def test_unit_error_injects_gains(self):
        cfg = make_config(epsilon=1.0, delta=0.0)
        state = ob.ObserverState(step1=(0.0,) * 4, step2=(0.0,) * 4)
        d = ob.observer_rhs(state, 1.0, cfg)
        assert d == (4.0, 6.0, 4.0, 1.0, 4.0, 6.0, 4.0, 1.0)

    def test_zero_state_zero_input(self):
        cfg = make_config()
        state = ob.ObserverState(step1=(0.0,) * 4, step2=(0.0,) * 4)
        assert ob.observer_rhs(state, 0.0, cfg) == (0.0,) * 8

    def test_nonfinite_input_rejected(self):
        cfg = make_config()
        state = ob.ObserverState(step1=(0.0,) * 4, step2=(0.0,) * 4)
        with pytest.raises(ValueError):
            ob.observer_rhs(state, math.nan, cfg)


class TestReset:
    def test_zero_seed(self):
        st_ = ob.reset(make_config(), 0.0)
        assert st_.step1 == (0.0, 0.0, 0.0, 0.0)
        assert st_.step2 == (0.0, 0.0, 0.0, 0.0)
        assert st_.t == 0.0

    def test_seed_value_placed_in_both_steps(self):
        st_ = ob.reset(make_config(), 0.3)
        assert st_.step1 == (0.3, 0.0, 0.0, 0.0)
        assert st_.step2 == (0.3, 0.0, 0.0, 0.0)

    def test_nan_seed_rejected(self):
        with pytest.raises(ValueError):
            ob.reset(make_config(), math.nan)


def run_observer(cfg, signal, duration, dt):
    state = ob.reset(cfg, signal(0.0))
    n = int(round(duration / dt))
    for _ in range(n):
        state = ob.observer_step(state, signal, dt, cfg)
    return state


class TestObserverStep:
    def test_equilibrium(self):
        cfg = make_config()
        state = ob.reset(cfg, 0.0)
        out = ob.observer_step(state, 0.0, 1e-3, cfg)
        assert out.step1 == (0.0,) * 4
        assert out.step2 == (0.0,) * 4
        assert out.t == 1e-3

    def test_dt_guards(self):
        cfg = make_config(epsilon=0.05)
        state = ob.reset(cfg, 0.0)
        with pytest.raises(ValueError):
            ob.observer_step(state, 0.0, -1e-3, cfg)
        with pytest.raises(ValueError):
            ob.observer_step(state, 0.0, 0.05, cfg)  # > epsilon/4

    def test_divergence_names_entry(self):
        cfg = make_config(epsilon=0.05)
        state = ob.ObserverState(step1=(1e308, 0, 0, 0), step2=(0.0,) * 4)
        with pytest.raises(ob.DivergenceError, match="x"):
            ob.observer_step(state, -1e308, 0.01, cfg)

    def test_cubic_tracking(self):
        # zero steady-state error for inputs with vanishing 4th derivative
        cfg = make_config(epsilon=0.05, delta=0.0)
        state = run_observer(cfg, lambda t: t ** 3, 2.0, 1e-3)
        t = state.t
        expected = (t ** 3, 3 * t ** 2, 6 * t, 6.0)
        for got, want in zip(state.step1, expected):
            assert got == pytest.approx(want, rel=1e-3)

    def test_sine_prediction_beats_raw_signal(self):
        delta = 0.5
        cfg = make_config(epsilon=0.02, delta=delta)
        dt = 1e-3
        state = ob.reset(cfg, 0.0)
        n_settle = int(3.0 / dt)
        err_pred = err_raw = 0.0
        for i in range(int(6.0 / dt)):
            state = ob.observer_step(state, math.sin, dt, cfg)
            if i >= n_settle:
                future = math.sin(state.t + delta)
                err_pred = max(err_pred, abs(state.step2[0] - future))
                err_raw = max(err_raw, abs(math.sin(state.t) - future))
        assert err_pred <= err_raw / 5.0


class TestPrediction:
    def test_zero_state(self):
        st_ = ob.ObserverState(step1=(0.0,) * 4, step2=(0.0,) * 4)
        p = ob.prediction(st_)
        assert (p.value, p.d1, p.d2, p.d3) == (0.0, 0.0, 0.0, 0.0)

    def test_converged_cubic_future_value(self):
        cfg = make_config(epsilon=0.05, delta=0.1)
        state = run_observer(cfg, lambda t: t ** 3, 2.0, 1e-3)
        assert ob.prediction(state).value == pytest.approx(2.1 ** 3, rel=1e-4)

    def test_constant_signal(self):
        cfg = make_config(epsilon=0.05, delta=0.3)
        state = run_observer(cfg, lambda t: 4.2, 2.0, 1e-3)
        p = ob.prediction(state)
        assert p.value == pytest.approx(4.2, abs=1e-12)
        assert abs(p.d1) < 1e-12 and abs(p.d2) < 1e-12 and abs(p.d3) < 1e-12


class TestInvariants:
    def test_zero_horizon_steps_identical(self):
        # with delta=0 both chains have the same RHS: bit-identical paths
        cfg = make_config(epsilon=0.05, delta=0.0)
        rng = np.random.default_rng(7)
        state = ob.reset(cfg, 0.5)
        for v in rng.normal(size=500):
            state = ob.observer_step(state, float(v), 1e-3, cfg)
            assert state.step1 == state.step2

    def test_polynomial_exactness(self):
        # settling window of 40*eps at dt = eps/10
        eps = 0.05
        cfg = make_config(epsilon=eps, delta=0.2)
        dt = eps / 10.0

        def v(t):
            return 2 * t ** 3 - t ** 2 + 5

        state = run_observer(cfg, v, 2.0, dt)
        t = state.t
        assert state.step1[0] == pytest.approx(v(t), rel=1e-6)
        assert state.step2[0] == pytest.approx(v(t + 0.2), rel=1e-5)
        # derivative states carry the residual RK4 propagator error at
        # this coarse step; they are checked at the looser tolerance
        assert state.step1[1] == pytest.approx(6 * t ** 2 - 2 * t, rel=1e-3)
        assert state.step1[2] == pytest.approx(12 * t - 2, rel=1e-3)
        assert state.step1[3] == pytest.approx(12.0, rel=1e-3)
        assert state.step2[1] == pytest.approx(6 * (t + 0.2) ** 2 - 2 * (t + 0.2),
                                               rel=1e-3)

    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("delta", [0.1, 0.3])
    def test_prediction_dominance(self, omega, delta):
        cfg = make_config(epsilon=0.02, delta=delta)
        dt = 1e-3
        state = ob.reset(cfg, 0.0)
        sq_pred = sq_raw = 0.0
        n_settle = int(3.0 / dt)
        n = int(6.0 / dt)
        for i in range(n):
            state = ob.observer_step(state, lambda t: math.sin(omega * t), dt, cfg)
            if i >= n_settle:
                future = math.sin(omega * (state.t + delta))
                sq_pred += (state.step2[0] - future) ** 2
                sq_raw += (math.sin(omega * state.t) - future) ** 2
        assert sq_pred < sq_raw

    def test_peaking_grows_as_epsilon_shrinks(self):
        def peak(eps):
            cfg = make_config(epsilon=eps, delta=0.3)
            dt = eps / 10.0
            state = ob.reset(cfg, math.sin(0.0))
            worst = 0.0
            for _ in range(40 * 10):  # 40*eps seconds at dt=eps/10
                state = ob.observer_step(state, math.sin, dt, cfg)
                worst = max(worst, abs(state.step2[0]))
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
            state = ob.reset(cfg, inputs[0])
            out = []
            for v in inputs:
                state = ob.observer_step(state, v, 1e-3, cfg)
                out.append(state.as_tuple())
            return out

        assert run() == run()


class TestCoupledStepOneVariant:
    def test_flag_changes_dynamics(self):
        plain = make_config(epsilon=0.05, delta=0.1)
        coupled = make_config(epsilon=0.05, delta=0.1, coupled_step1=True)
        s1 = run_observer(plain, math.sin, 1.0, 1e-3)
        s2 = run_observer(coupled, math.sin, 1.0, 1e-3)
        assert s1.step1 != s2.step1

    def test_coupled_variant_corrupts_prediction(self):
        # the cross-coupled x41 equation destroys the tracking property,
        # which is why the default drops it
        delta = 0.3
        plain = make_config(epsilon=0.05, delta=delta)
        coupled = make_config(epsilon=0.05, delta=delta, coupled_step1=True)
        e_plain = abs(run_observer(plain, math.sin, 6.0, 1e-3).step2[0]
                      - math.sin(6.0 + delta))
        e_coupled = abs(run_observer(coupled, math.sin, 6.0, 1e-3).step2[0]
                        - math.sin(6.0 + delta))
        assert e_plain < 0.01
        assert e_coupled > 10 * e_plain


def _bits(values) -> bytes:
    return struct.pack("%dd" % len(values), *values)


def rk4_from_rhs8(x, v, dt, coeffs, coupled):
    """Classical RK4 composed from rhs8: the reference for rk4_step8."""
    v0, vm, v1 = v if isinstance(v, tuple) else (v, v, v)
    h2 = dt * 0.5
    k1 = ob.rhs8(x, v0, coeffs, coupled)
    k2 = ob.rhs8(tuple(a + h2 * b for a, b in zip(x, k1)), vm, coeffs, coupled)
    k3 = ob.rhs8(tuple(a + h2 * b for a, b in zip(x, k2)), vm, coeffs, coupled)
    k4 = ob.rhs8(tuple(a + dt * b for a, b in zip(x, k3)), v1, coeffs, coupled)
    h6 = dt / 6.0
    return tuple(a + h6 * (p + 2.0 * (q + r) + s)
                 for a, p, q, r, s in zip(x, k1, k2, k3, k4))


class TestRk4StepParity:
    @pytest.mark.parametrize("coupled", [False, True])
    @pytest.mark.parametrize("stage_samples", [False, True])
    def test_bit_identical_to_rhs8_composition(self, coupled, stage_samples):
        rng = np.random.default_rng(11)
        for _ in range(300):
            x = tuple(float(v) for v in rng.normal(size=8) * 10.0 ** rng.integers(-3, 4, 8))
            cfg = make_config(epsilon=float(rng.uniform(0.02, 0.2)),
                              delta=float(rng.uniform(0.0, 0.4)))
            coeffs = cfg.coefficients()
            dt = cfg.epsilon / float(rng.uniform(4.0, 40.0))
            if stage_samples:
                v = tuple(float(s) for s in rng.normal(size=3))
            else:
                v = float(rng.normal())
            got = ob.rk4_step8(x, v, dt, coeffs, coupled)
            want = rk4_from_rhs8(x, v, dt, coeffs, coupled)
            assert _bits(got) == _bits(want)
