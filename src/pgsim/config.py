"""Configuration schema, defaults, overrides and validation.

A run is described by one nested JSON document.  Defaults live here,
a config file overlays them, and dotted-key overrides overlay the file.
Validation is collected: every violation is reported, not just the
first.
"""

from __future__ import annotations

import copy
import json
import math

from . import airframe as af
from . import guidance as gd
from . import observer as ob
from . import seeker as sk
from . import targets as tg

__all__ = ["DEFAULTS", "resolve", "apply_override", "validate", "build_setup",
           "ConfigError"]

DEFAULTS = {
    "seed": 12345,
    "observer": {
        "k1": 4.0, "k2": 6.0, "k3": 4.0, "k4": 1.0,
        "epsilon": 0.05,
        "delta": "auto",          # "auto": match the seeker lag
        "coupled_step1": False,
    },
    "seeker": {
        "lag_time_constant": 0.0,
    },
    "guidance": {
        "nav_ratio": 4.0,
        "source": "true",
        "warmup": 2.0,
    },
    "autopilot": {
        "actuator_time_constant": 0.02,
        "deflection_limit": 0.52,
        "gain": "auto",           # "auto": derived from trim at load
    },
    "target": {
        "kind": "level",
        "position": [8000.0, 0.0, 2000.0],
        "speed": 200.0,
        "weave_amplitude": 5.0,
        "weave_frequency": 3.0,
        "phase": "auto",          # "auto": seeded draw
    },
    "airframe": {
        "dataset": "builtin",
    },
    "engagement": {
        "dt": 0.001,
        "max_time": 60.0,
        "launch_speed": 20.0,
        "launch_elevation_deg": 45.0,
    },
    "sweep": {
        "delays": [0.025, 0.071, 0.118, 0.164, 0.211, 0.257, 0.304, 0.35],
        "samples_per_delay": 25,
        "sources": ["delayed", "predicted"],
    },
}


class ConfigError(ValueError):
    """Raised with one message per violation, newline separated."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


def _flatten(d, prefix=""):
    out = {}
    for k, v in d.items():
        key = prefix + k
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = v
    return out


_FLAT_DEFAULTS = _flatten(DEFAULTS)
KNOWN_KEYS = frozenset(_FLAT_DEFAULTS)


def apply_override(cfg: dict, dotted_key: str, raw_value: str) -> None:
    """Set one dotted key from its string form; unknown keys are errors.

    The value is parsed as JSON, falling back to the raw string, so bare
    words like ``predicted`` need no quotes.  For a key whose default is
    a string, a JSON ``true``/``false``/``null`` stays the raw string:
    ``guidance.source=true`` names the true-rate source.
    """
    if dotted_key not in KNOWN_KEYS:
        raise ConfigError(["unknown config key: %s" % dotted_key])
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value  # bare strings like "predicted"
    if (value is None or isinstance(value, bool)) \
            and isinstance(_FLAT_DEFAULTS[dotted_key], str):
        value = raw_value
    node = cfg
    parts = dotted_key.split(".")
    for p in parts[:-1]:
        node = node[p]
    node[parts[-1]] = value


def _merge(base: dict, overlay: dict, path="") -> list:
    problems = []
    for k, v in overlay.items():
        key = path + k
        if k not in base:
            problems.append("unknown config key: %s" % key)
        elif isinstance(base[k], dict):
            if isinstance(v, dict):
                problems += _merge(base[k], v, key + ".")
            else:
                problems.append("config key %s must be a section" % key)
        else:
            base[k] = v
    return problems


def resolve(file_cfg: dict | None = None, overrides=()) -> dict:
    """Defaults overlaid with a config document and dotted overrides."""
    cfg = copy.deepcopy(DEFAULTS)
    problems = _merge(cfg, file_cfg or {})
    if problems:
        raise ConfigError(problems)
    for key, value in overrides:
        apply_override(cfg, key, value)
    return cfg


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _num(cfg, key, problems, cond=lambda v: True, msg=""):
    node = cfg
    for p in key.split("."):
        node = node[p]
    if not _finite(node) or not cond(node):
        problems.append("invalid value for %s: %r%s"
                        % (key, node, " (%s)" % msg if msg else ""))
        return None
    return float(node)


def validate(cfg: dict) -> list:
    """All violations in the resolved config; empty list means valid."""
    problems: list = []
    ks = [_num(cfg, "observer." + k, problems) for k in ("k1", "k2", "k3", "k4")]
    if None not in ks and not ob.validate_gains(*ks):
        problems.append("observer gains (k1..k4) fail the Hurwitz stability gate")
    eps = _num(cfg, "observer.epsilon", problems, lambda v: v > 0, "must be > 0")
    if not isinstance(cfg["observer"]["coupled_step1"], bool):
        problems.append("observer.coupled_step1 must be true or false")
    if cfg["observer"]["delta"] != "auto":
        _num(cfg, "observer.delta", problems, lambda v: v >= 0, "must be >= 0 or 'auto'")
    _num(cfg, "seeker.lag_time_constant", problems, lambda v: v >= 0, "must be >= 0")
    _num(cfg, "guidance.nav_ratio", problems, lambda v: v > 0, "must be > 0")
    _num(cfg, "guidance.warmup", problems, lambda v: v >= 0, "must be >= 0")
    if cfg["guidance"]["source"] not in gd.SOURCES:
        problems.append("guidance.source must be one of %s" % (gd.SOURCES,))
    _num(cfg, "autopilot.actuator_time_constant", problems, lambda v: v > 0, "must be > 0")
    _num(cfg, "autopilot.deflection_limit", problems, lambda v: v > 0, "must be > 0")
    if cfg["autopilot"]["gain"] != "auto":
        _num(cfg, "autopilot.gain", problems, lambda v: v > 0, "must be > 0 or 'auto'")
    t = cfg["target"]
    if t["kind"] not in ("level", "weaving"):
        problems.append("target.kind must be 'level' or 'weaving'")
    if not (isinstance(t["position"], (list, tuple)) and len(t["position"]) == 3
            and all(_finite(v) for v in t["position"])):
        problems.append("target.position must be a list of 3 finite numbers")
    elif not any(t["position"]):
        problems.append("target.position must not be the launch site [0, 0, 0]")
    _num(cfg, "target.speed", problems, lambda v: v > 0, "must be > 0")
    _num(cfg, "target.weave_amplitude", problems, lambda v: v >= 0, "must be >= 0")
    _num(cfg, "target.weave_frequency", problems, lambda v: v > 0, "must be > 0")
    if t["phase"] != "auto":
        _num(cfg, "target.phase", problems)
    dt = _num(cfg, "engagement.dt", problems, lambda v: v > 0, "must be > 0")
    _num(cfg, "engagement.max_time", problems, lambda v: v > 0, "must be > 0")
    _num(cfg, "engagement.launch_speed", problems, lambda v: v > 0, "must be > 0")
    _num(cfg, "engagement.launch_elevation_deg", problems)
    if dt is not None and eps is not None and dt > eps / 4.0:
        problems.append("engagement.dt=%g exceeds the observer stiffness guard "
                        "epsilon/4=%g" % (dt, eps / 4.0))
    sw = cfg["sweep"]
    delays = sw["delays"]
    if not (isinstance(delays, (list, tuple)) and delays
            and all(_finite(d) and d > 0 for d in delays)
            and all(b > a for a, b in zip(delays, delays[1:]))):
        problems.append("sweep.delays must be a positive ascending list")
    if not (type(sw["samples_per_delay"]) is int and sw["samples_per_delay"] >= 1):
        problems.append("sweep.samples_per_delay must be an integer >= 1")
    if not (isinstance(sw["sources"], (list, tuple)) and sw["sources"]
            and all(s in ("delayed", "predicted") for s in sw["sources"])):
        problems.append("sweep.sources must be a non-empty subset of "
                        "['delayed', 'predicted']")
    if type(cfg["seed"]) is not int:  # bool is an int subclass
        problems.append("seed must be an integer")
    elif cfg["seed"] < 0:  # numpy's SeedSequence takes no negative entropy
        problems.append("seed must be >= 0, got %d" % cfg["seed"])
    dataset = cfg["airframe"]["dataset"]
    if not isinstance(dataset, str):
        problems.append("airframe.dataset must be 'builtin' or a file path")
    elif dataset != "builtin":
        try:
            frame = af.load_airframe(dataset)
            if cfg["autopilot"]["gain"] == "auto":
                gd.trim_deflection_gain(frame)
        except (OSError, ValueError) as exc:
            problems.append("invalid value for airframe.dataset: %r (%s)" % (dataset, exc))
    return problems


def build_setup(cfg: dict):
    """Typed module configs from a validated config document.

    Returns a dict with keys observer, seeker, guidance, autopilot,
    target, airframe plus the raw engagement section.
    """
    problems = validate(cfg)
    if problems:
        raise ConfigError(problems)
    lag = float(cfg["seeker"]["lag_time_constant"])
    o = cfg["observer"]
    delta = lag if o["delta"] == "auto" else float(o["delta"])
    obs_cfg = ob.ObserverConfig(
        gains=ob.ObserverGains(float(o["k1"]), float(o["k2"]),
                               float(o["k3"]), float(o["k4"])),
        epsilon=float(o["epsilon"]), delta=delta,
        coupled_step1=o["coupled_step1"],
    )
    frame = af.load_airframe(None if cfg["airframe"]["dataset"] == "builtin"
                             else cfg["airframe"]["dataset"])
    ap = cfg["autopilot"]
    gain = (gd.trim_deflection_gain(frame) if ap["gain"] == "auto"
            else float(ap["gain"]))
    t = cfg["target"]
    phase = (tg.sample_phase(tg.derive_seed(int(cfg["seed"]), 0))
             if t["phase"] == "auto" else float(t["phase"]))
    target_cfg = tg.TargetConfig(
        kind=t["kind"], initial_position=tuple(float(v) for v in t["position"]),
        speed=float(t["speed"]), weave_amplitude=float(t["weave_amplitude"]),
        weave_frequency=float(t["weave_frequency"]), phase=phase,
    )
    return {
        "observer": obs_cfg,
        "seeker": sk.SeekerConfig(lag_time_constant=lag),
        "guidance": gd.GuidanceConfig(nav_ratio=float(cfg["guidance"]["nav_ratio"]),
                                      source=cfg["guidance"]["source"],
                                      warmup=float(cfg["guidance"]["warmup"])),
        "autopilot": gd.AutopilotConfig(
            actuator_time_constant=float(ap["actuator_time_constant"]),
            deflection_limit=float(ap["deflection_limit"]),
            accel_to_deflection_gain=gain),
        "target": target_cfg,
        "airframe": frame,
        "engagement": cfg["engagement"],
    }
