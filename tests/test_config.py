import copy
import dataclasses
import math
from importlib import resources

import pytest

from pgsim import airframe as af
from pgsim import config as cf
from pgsim import engagement as en
from pgsim import montecarlo as mc
from pgsim import observer as ob


class TestResolve:
    def test_defaults_validate_cleanly(self):
        assert cf.validate(cf.resolve()) == []

    def test_file_overlay(self):
        cfg = cf.resolve({"observer": {"epsilon": 0.08},
                          "guidance": {"source": "delayed"}})
        assert cfg["observer"]["epsilon"] == 0.08
        assert cfg["observer"]["k1"] == 4.0  # untouched sibling keeps default
        assert cfg["guidance"]["source"] == "delayed"

    def test_unknown_file_key_rejected(self):
        with pytest.raises(cf.ConfigError, match="unknown config key"):
            cf.resolve({"observer": {"bandwidth": 1.0}})

    def test_section_type_mismatch_rejected(self):
        with pytest.raises(cf.ConfigError, match="section"):
            cf.resolve({"observer": 5})

    def test_defaults_not_mutated(self):
        before = copy.deepcopy(cf.DEFAULTS)
        cfg = cf.resolve()
        cfg["observer"]["epsilon"] = 99.0
        cfg["sweep"]["delays"].append(0.5)
        cfg["sweep"]["sources"].remove("delayed")
        cfg["target"]["position"][0] = -1.0
        assert cf.DEFAULTS == before
        assert cf.resolve() == before


class TestApplyOverride:
    def test_json_coercion(self):
        cfg = cf.resolve()
        cf.apply_override(cfg, "observer.epsilon", "0.07")
        cf.apply_override(cfg, "sweep.delays", "[0.1, 0.2]")
        cf.apply_override(cfg, "seed", "7")
        assert cfg["observer"]["epsilon"] == 0.07
        assert cfg["sweep"]["delays"] == [0.1, 0.2]
        assert cfg["seed"] == 7 and type(cfg["seed"]) is int

    def test_bare_string_value(self):
        cfg = cf.resolve()
        cf.apply_override(cfg, "guidance.source", "predicted")
        assert cfg["guidance"]["source"] == "predicted"

    def test_unknown_key(self):
        with pytest.raises(cf.ConfigError, match="unknown config key"):
            cf.apply_override(cf.resolve(), "observer.zeta", "1")


class TestValidate:
    def test_reads_no_dataset(self, monkeypatch, tmp_path):
        def load_airframe(path=None):
            raise OSError("validate opened %s" % path)

        monkeypatch.setattr(af, "load_airframe", load_airframe)
        cfg = cf.resolve()
        cfg["airframe"]["dataset"] = str(tmp_path / "airframe.txt")
        assert cf.validate(cfg) == []

    def test_collects_all_violations(self):
        cfg = cf.resolve()
        cfg["guidance"]["nav_ratio"] = -1
        cfg["target"]["speed"] = 0
        cfg["sweep"]["samples_per_delay"] = 0
        problems = cf.validate(cfg)
        assert len(problems) == 3

    def test_hurwitz_gate(self):
        # unit gains fail only the last Routh-Hurwitz condition:
        # (k1 k2 - k3) k3 - k1^2 k4 = -1
        for gains in ({"k4": -1.0}, {"k1": 1.0, "k2": 1.0, "k3": 1.0, "k4": 1.0}):
            cfg = cf.resolve()
            cfg["observer"].update(gains)
            assert any("Hurwitz" in p for p in cf.validate(cfg))

    def test_dt_epsilon_cross_check(self):
        cfg = cf.resolve()
        cfg["observer"]["epsilon"] = 0.003
        assert any("epsilon/4" in p for p in cf.validate(cfg))

    @staticmethod
    def quadruple_root(a):
        """Gains of (s + a)^4: every observer pole at -a / epsilon."""
        return {"k1": 4.0 * a, "k2": 6.0 * a ** 2, "k3": 4.0 * a ** 3, "k4": a ** 4}

    @pytest.mark.parametrize("a", [20.0, 139.0, 140.0, 1000.0])
    def test_stiff_gains_validate_and_fly(self, a):
        # dt / epsilon = 0.02 puts a pole at -0.02 a per step, past RK4's
        # real-axis limit of -2.7853 from a = 140 on; the exact step damps
        # every pole, so no gain past the Hurwitz gate is refused
        cfg = cf.resolve(overrides=["seeker.lag_time_constant=0.2", "guidance.source=predicted"]
                         + ["observer.%s=%r" % kv for kv in self.quadruple_root(a).items()])
        assert cf.validate(cfg) == []
        eng = en.EngagementConfig.from_setup(cf.build_setup(cfg))
        assert all(map(math.isfinite, ob.step_map(eng.dt, eng.observer.coefficients())))
        assert en.run_engagement(eng).termination_reason in en.TERMINATIONS

    def test_step_count_cap(self):
        # a power-of-two dt makes max_time / dt exact at the cap
        cfg = cf.resolve()
        dt = 2.0 ** -12
        cfg["observer"]["epsilon"] = 1.0  # keeps the stiffness guard out of it
        cfg["engagement"]["dt"] = dt
        cfg["engagement"]["max_time"] = cf.MAX_STEPS * dt
        assert cf.validate(cfg) == []
        cfg["engagement"]["max_time"] = (cf.MAX_STEPS + 1) * dt
        problems = cf.validate(cfg)
        assert len(problems) == 1 and "engagement.dt" in problems[0], problems

    def test_bad_sweep_delays(self):
        cfg = cf.resolve()
        cfg["sweep"]["delays"] = [0.2, 0.1]
        assert any("delays" in p for p in cf.validate(cfg))

    def test_bad_source_list(self):
        cfg = cf.resolve()
        for sources in (["true"], [["delayed"]]):
            cfg["sweep"]["sources"] = sources
            assert any("sources" in p for p in cf.validate(cfg))


# one bad value per case, and the key that validate must name; the
# typed configs that build_setup returns carry no range checks of their own
EPS_GUARD = cf.DEFAULTS["observer"]["epsilon"] / 4.0 * 1.01
BAD_VALUES = [
    ("observer.epsilon", 0.0),
    ("observer.epsilon", math.inf),
    ("observer.delta", -0.1),
    ("observer.delta", math.nan),
    ("seeker.lag_time_constant", -0.1),
    ("seeker.lag_time_constant", math.inf),
    ("seeker.lag_time_constant", math.nan),
    ("guidance.nav_ratio", 0.0),
    ("guidance.source", "estimated"),
    ("guidance.warmup", -1.0),
    ("autopilot.actuator_time_constant", 0.0),
    ("autopilot.deflection_limit", 0.0),
    ("autopilot.gain", 0.0),
    ("target.kind", "spiral"),
    ("target.speed", 0.0),
    ("target.weave_frequency", 0.0),
    ("target.weave_amplitude", -1.0),
    ("engagement.dt", -1e-3),
    ("engagement.dt", 0.0),
    ("engagement.dt", EPS_GUARD),
    ("engagement.max_time", 0.0),
    ("sweep.delays", []),
    ("sweep.delays", [0.2, 0.1]),
    ("sweep.samples_per_delay", 0),
    ("sweep.sources", ["true"]),
    ("seed", -1),
]


@pytest.mark.parametrize("key, value", BAD_VALUES,
                         ids=["%s=%r" % case for case in BAD_VALUES])
def test_validate_names_the_bad_key(key, value):
    cfg = cf.resolve()
    cfg["target"]["kind"] = "weaving"  # as a sweep flies it
    section, _, name = key.rpartition(".")
    (cfg[section] if section else cfg)[name] = value
    problems = cf.validate(cfg)
    assert len(problems) == 1 and key in problems[0], problems


class TestBuildSetup:
    def test_auto_delta_matches_lag(self):
        cfg = cf.resolve()
        cfg["seeker"]["lag_time_constant"] = 0.3
        setup = cf.build_setup(cfg)
        assert setup["observer"].delta == 0.3
        assert setup["seeker"].lag_time_constant == 0.3

    def test_explicit_delta_kept(self):
        cfg = cf.resolve()
        cfg["seeker"]["lag_time_constant"] = 0.3
        cfg["observer"]["delta"] = 0.1
        assert cf.build_setup(cfg)["observer"].delta == 0.1

    def test_auto_gain_from_trim(self):
        setup = cf.build_setup(cf.resolve())
        assert 0.0 < setup["autopilot"].accel_to_deflection_gain < 0.1

    def test_explicit_gain_kept(self):
        cfg = cf.resolve()
        cfg["autopilot"]["gain"] = 0.002
        assert cf.build_setup(cfg)["autopilot"].accel_to_deflection_gain == 0.002

    def test_auto_phase_seeded(self):
        a = cf.build_setup(cf.resolve())["target"].phase
        b = cf.build_setup(cf.resolve())["target"].phase
        assert a == b  # same seed, same draw
        cfg = cf.resolve()
        cfg["seed"] = 999
        assert cf.build_setup(cfg)["target"].phase != a

    def test_invalid_config_raises(self):
        cfg = cf.resolve()
        cfg["guidance"]["nav_ratio"] = 0
        with pytest.raises(cf.ConfigError):
            cf.build_setup(cfg)

    def test_typed_observer_config(self):
        obs = cf.build_setup(cf.resolve())["observer"]
        assert isinstance(obs, ob.ObserverConfig)
        assert (obs.k1, obs.k2, obs.k3, obs.k4) == (4.0, 6.0, 4.0, 1.0)
        assert obs.epsilon == 0.05

    def test_keys_are_engagement_config_fields(self):
        fields = {f.name for f in dataclasses.fields(en.EngagementConfig)}
        assert set(cf.build_setup(cf.resolve())) == fields

    def test_file_airframe_read_at_every_build(self, tmp_path):
        path = tmp_path / "airframe.txt"
        text = resources.files("pgsim.data").joinpath("generic_airframe.txt").read_text()
        cfg = cf.resolve()
        cfg["airframe"]["dataset"] = str(path)
        for inertia in ("22.0", "30.0"):
            path.write_text(text.replace("transverse_inertia = 22.0",
                                         "transverse_inertia = " + inertia))
            assert cf.build_setup(cfg)["airframe"].transverse_inertia == float(inertia)

    def test_file_copy_of_builtin_trims_the_same_gain(self, tmp_path):
        path = tmp_path / "airframe.txt"
        path.write_text(resources.files("pgsim.data").joinpath("generic_airframe.txt").read_text())
        cfg = cf.resolve()
        builtin = cf.build_setup(cfg)
        cfg["airframe"]["dataset"] = str(path)
        setup = cf.build_setup(cfg)
        assert setup["autopilot"].accel_to_deflection_gain.hex() \
            == builtin["autopilot"].accel_to_deflection_gain.hex()

    def test_engagement_values_typed(self):
        cfg = cf.resolve()
        cfg["engagement"].update(dt=1e-3, max_time=30, launch_speed=25, launch_elevation_deg=90)
        setup = cf.build_setup(cfg)
        assert [(setup[k], type(setup[k])) for k in ("dt", "max_time", "launch_speed")] \
            == [(1e-3, float), (30.0, float), (25.0, float)]
        assert setup["launch_elevation"] == math.pi / 2


class TestBuildSweep:
    def test_matches_hand_built(self):
        cfg = cf.resolve()
        sweep = cf.build_sweep(cfg)
        setup = cf.build_setup(cfg)
        base = en.EngagementConfig(
            observer=setup["observer"], seeker=setup["seeker"], guidance=setup["guidance"],
            autopilot=setup["autopilot"], target=setup["target"],
            airframe=sweep.base.airframe,  # an airframe compares by identity
            dt=0.001, max_time=60.0, launch_speed=20.0, launch_elevation=math.radians(45.0))
        assert sweep == mc.SweepConfig(
            delays=(0.025, 0.071, 0.118, 0.164, 0.211, 0.257, 0.304, 0.35),
            samples_per_delay=25, master_seed=12345, sources=("delayed", "predicted"),
            base=base)

    def test_delays_are_floats(self):
        cfg = cf.resolve()
        cfg["sweep"]["delays"] = [1, 2]
        assert [type(d) for d in cf.build_sweep(cfg).delays] == [float, float]
