import math
import struct

import numpy as np
import pytest
from conftest import schema_config
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsim import config as cf
from pgsim import engagement as en
from pgsim import observer as ob

GAINS = ob.ObserverGains(4.0, 6.0, 4.0, 1.0)  # (s+1)^4, roots all at -1


def make_config(**kw):
    """The schema's observer config with the binomial gains and the
    uncoupled step one; ``kw`` replaces any field."""
    return schema_config("observer", **{"gains": GAINS, "coupled_step1": False, **kw})


def rhs8(x, v, coeffs, coupled_step1=False):
    """Time derivatives of the eight states for input sample ``v``: the
    parity oracle that :func:`rk4_from_rhs8` composes RK4 from.

    ``x`` is (x11, x21, x31, x41, x12, x22, x32, x42); ``coeffs`` is the
    tuple from :meth:`ObserverConfig.coefficients`.
    """
    x11, x21, x31, x41, x12, x22, x32, x42 = x
    b1, b2, b3, b4, g1, g2, g3, g4 = coeffs
    e = v - x11
    d41 = b4 * e
    if coupled_step1:
        d41 = x31 + d41
    return (
        x21 + b1 * e,
        x31 + b2 * e,
        x41 + b3 * e,
        d41,
        x22 + g1 * e,
        x32 + g2 * e,
        x42 + g3 * e,
        g4 * e,
    )


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
        cfg = make_config(gains=ob.ObserverGains(2, 3, 2, 1), epsilon=1.0, delta=1.0)
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


def step(x, v, t, dt, cfg):
    """One observer step from time ``t``; a callable ``v(t)`` is sampled
    at the RK4 stage times, which removes the hold-induced tracking bias,
    and a number is held over the step (zero-order hold)."""
    if callable(v):
        v = (v(t), v(t + dt * 0.5), v(t + dt))
    return ob.rk4_step8(x, v, dt, cfg.coefficients(), cfg.coupled_step1)


def run_observer(cfg, signal, duration, dt):
    """(state, t) after ``duration`` seconds on ``signal(t)`` from its seed."""
    x, t = seed(signal(0.0)), 0.0
    for _ in range(int(round(duration / dt))):
        x = step(x, signal, t, dt, cfg)
        t = t + dt
    return x, t


class TestReset:
    def test_zero_seed(self):
        # seeding with the current sample leaves no initial error: the
        # seeded state is at rest under that sample
        for v0 in (0.0, 0.3, -2.5):
            x = seed(v0)
            assert step(x, v0, 0.0, 1e-3, make_config(delta=0.2)) == x

    def test_seed_value_placed_in_both_steps(self):
        cfg = cf.resolve()
        cfg["guidance"]["source"] = "predicted"
        cfg["seeker"]["lag_time_constant"] = 0.2
        cfg["engagement"]["max_time"] = 0.01
        s = en.run_engagement(en.EngagementConfig.from_setup(cf.build_setup(cfg))).series
        for ch in ("p", "y"):
            assert s["lam_pred_" + ch][0] == s["lam_true_" + ch][0]
            assert s["lam_del_" + ch][0] == s["lam_true_" + ch][0]


class TestObserverStep:
    def test_equilibrium(self):
        assert step((0.0,) * 8, 0.0, 0.0, 1e-3, make_config()) == (0.0,) * 8

    def test_divergence_names_entry(self, monkeypatch):
        # a non-finite observer state ends the run as observer_divergence
        # and the diagnostic names the observer
        real = ob.rk4_step8
        calls = []

        def blow_up(x, v, dt, coeffs, coupled_step1=False):
            calls.append(1)
            x = real(x, v, dt, coeffs, coupled_step1)
            return x if len(calls) < 10 else x[:4] + (math.inf,) + x[5:]

        monkeypatch.setattr(ob, "rk4_step8", blow_up)
        cfg = cf.resolve()
        cfg["engagement"]["max_time"] = 0.1
        record = en.run_engagement(en.EngagementConfig.from_setup(cf.build_setup(cfg)))
        assert record.termination_reason == "observer_divergence"
        assert "observer state non-finite" in record.diagnostic
        assert len(record) == 5

    def test_cubic_tracking(self):
        # zero steady-state error for inputs with vanishing 4th derivative
        cfg = make_config(epsilon=0.05, delta=0.0)
        x, t = run_observer(cfg, lambda t: t ** 3, 2.0, 1e-3)
        expected = (t ** 3, 3 * t ** 2, 6 * t, 6.0)
        for got, want in zip(x[:4], expected):
            assert got == pytest.approx(want, rel=1e-3)

    def test_sine_prediction_beats_raw_signal(self):
        delta = 0.5
        cfg = make_config(epsilon=0.02, delta=delta)
        dt = 1e-3
        x, t = seed(0.0), 0.0
        n_settle = int(3.0 / dt)
        err_pred = err_raw = 0.0
        for i in range(int(6.0 / dt)):
            x = step(x, math.sin, t, dt, cfg)
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
        x, _ = run_observer(cfg, lambda t: t ** 3, 2.0, 1e-3)
        assert x[4] == pytest.approx(2.1 ** 3, rel=1e-4)

    def test_constant_signal(self):
        cfg = make_config(epsilon=0.05, delta=0.3)
        x, _ = run_observer(cfg, lambda t: 4.2, 2.0, 1e-3)
        assert x[4] == pytest.approx(4.2, abs=1e-12)
        assert abs(x[5]) < 1e-12 and abs(x[6]) < 1e-12 and abs(x[7]) < 1e-12


class TestInvariants:
    def test_zero_horizon_steps_identical(self):
        # with delta=0 both chains have the same RHS: bit-identical paths
        cfg = make_config(epsilon=0.05, delta=0.0)
        rng = np.random.default_rng(7)
        x = seed(0.5)
        for v in rng.normal(size=500):
            x = step(x, float(v), 0.0, 1e-3, cfg)
            assert x[:4] == x[4:]

    def test_polynomial_exactness(self):
        # settling window of 40*eps at dt = eps/10
        eps = 0.05
        cfg = make_config(epsilon=eps, delta=0.2)
        dt = eps / 10.0

        def v(t):
            return 2 * t ** 3 - t ** 2 + 5

        x, t = run_observer(cfg, v, 2.0, dt)
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
        x, t = seed(0.0), 0.0
        sq_pred = sq_raw = 0.0
        n_settle = int(3.0 / dt)
        n = int(6.0 / dt)
        for i in range(n):
            x = step(x, lambda t: math.sin(omega * t), t, dt, cfg)
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
            x, t = seed(math.sin(0.0)), 0.0
            worst = 0.0
            for _ in range(40 * 10):  # 40*eps seconds at dt=eps/10
                x = step(x, math.sin, t, dt, cfg)
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
            x = seed(inputs[0])
            out = []
            for v in inputs:
                x = step(x, v, 0.0, 1e-3, cfg)
                out.append(x)
            return out

        assert run() == run()


class TestCoupledStepOneVariant:
    def test_flag_changes_dynamics(self):
        plain = make_config(epsilon=0.05, delta=0.1)
        coupled = make_config(epsilon=0.05, delta=0.1, coupled_step1=True)
        s1, _ = run_observer(plain, math.sin, 1.0, 1e-3)
        s2, _ = run_observer(coupled, math.sin, 1.0, 1e-3)
        assert s1[:4] != s2[:4]

    def test_coupled_variant_corrupts_prediction(self):
        # the cross-coupled x41 equation destroys the tracking property,
        # which is why the default drops it
        delta = 0.3
        plain = make_config(epsilon=0.05, delta=delta)
        coupled = make_config(epsilon=0.05, delta=delta, coupled_step1=True)
        e_plain = abs(run_observer(plain, math.sin, 6.0, 1e-3)[0][4]
                      - math.sin(6.0 + delta))
        e_coupled = abs(run_observer(coupled, math.sin, 6.0, 1e-3)[0][4]
                        - math.sin(6.0 + delta))
        assert e_plain < 0.01
        assert e_coupled > 10 * e_plain


def _bits(values) -> bytes:
    return struct.pack("%dd" % len(values), *values)


def rk4_from_rhs8(x, v, dt, coeffs, coupled):
    """Classical RK4 composed from rhs8: the reference for rk4_step8."""
    v0, vm, v1 = v if isinstance(v, tuple) else (v, v, v)
    h2 = dt * 0.5
    k1 = rhs8(x, v0, coeffs, coupled)
    k2 = rhs8(tuple(a + h2 * b for a, b in zip(x, k1)), vm, coeffs, coupled)
    k3 = rhs8(tuple(a + h2 * b for a, b in zip(x, k2)), vm, coeffs, coupled)
    k4 = rhs8(tuple(a + dt * b for a, b in zip(x, k3)), v1, coeffs, coupled)
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
