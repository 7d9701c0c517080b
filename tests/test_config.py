import math

import pytest

from pgsim import config as cf
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
        cfg = cf.resolve()
        cfg["observer"]["epsilon"] = 99.0
        assert cf.DEFAULTS["observer"]["epsilon"] == 0.05


class TestApplyOverride:
    def test_json_coercion(self):
        cfg = cf.resolve()
        cf.apply_override(cfg, "observer.epsilon", "0.07")
        cf.apply_override(cfg, "sweep.delays", "[0.1, 0.2]")
        cf.apply_override(cfg, "observer.coupled_step1", "true")
        assert cfg["observer"]["epsilon"] == 0.07
        assert cfg["sweep"]["delays"] == [0.1, 0.2]
        assert cfg["observer"]["coupled_step1"] is True

    def test_bare_string_value(self):
        cfg = cf.resolve()
        cf.apply_override(cfg, "guidance.source", "predicted")
        assert cfg["guidance"]["source"] == "predicted"

    def test_unknown_key(self):
        with pytest.raises(cf.ConfigError, match="unknown config key"):
            cf.apply_override(cf.resolve(), "observer.zeta", "1")


class TestValidate:
    def test_collects_all_violations(self):
        cfg = cf.resolve()
        cfg["guidance"]["nav_ratio"] = -1
        cfg["target"]["speed"] = 0
        cfg["sweep"]["samples_per_delay"] = 0
        problems = cf.validate(cfg)
        assert len(problems) == 3

    def test_hurwitz_gate(self):
        cfg = cf.resolve()
        cfg["observer"]["k4"] = -1.0
        assert any("Hurwitz" in p for p in cf.validate(cfg))

    def test_dt_epsilon_cross_check(self):
        cfg = cf.resolve()
        cfg["observer"]["epsilon"] = 0.003
        assert any("epsilon/4" in p for p in cf.validate(cfg))

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
        assert obs.gains.k1 == 4.0
        assert obs.epsilon == 0.05
