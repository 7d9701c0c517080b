"""Configuration schema, defaults, overrides and validation.

A run is described by one nested JSON document.  Defaults live here,
a config file overlays them, and dotted-key overrides overlay the file.
Validation is collected: every violation is reported, not just the
first.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from . import airframe as af
from . import engagement as en
from . import guidance as gd
from . import montecarlo as mc
from . import observer as ob
from . import seeker as sk
from . import targets as tg

__all__ = ["DEFAULTS", "resolve", "apply_override", "validate", "build_setup",
           "build_sweep", "ConfigError"]

DEFAULTS = {
    "seed": 12345,
    "observer": {
        "k1": 4.0, "k2": 6.0, "k3": 4.0, "k4": 1.0,
        "epsilon": 0.05,
        "delta": "auto",          # "auto": match the seeker lag
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
_FLOAT_MAX = sys.float_info.max
# the most steps max_time / dt may ask of one engagement: 167 times the
# default's 60,000: a 1.9 GB record, and 170 s of stepping at 17 us a step
MAX_STEPS = 10_000_000
# the most (delay, sample) pairs one sweep may ask for: run_sweep holds every
# pair's work item and two results (about 0.85 KB) until it ends, 0.85 GB here
MAX_PAIRS = 1_000_000
KNOWN_KEYS = frozenset(_FLAT_DEFAULTS)
# classical RK4's stability region holds the closed left half-disk of this
# radius (its boundary comes within 2.6156 of the origin)
RK4_STABLE_RADIUS = 2.61


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


def _fresh(node):
    """A copy of a :data:`DEFAULTS` node that shares no dict or list with
    it; a third of what ``copy.deepcopy`` costs on these plain values."""
    if isinstance(node, dict):
        return {k: _fresh(v) for k, v in node.items()}
    return list(node) if isinstance(node, list) else node


def resolve(file_cfg: dict | None = None, overrides=()) -> dict:
    """Defaults overlaid with a config document and dotted overrides."""
    cfg = _fresh(DEFAULTS)
    problems = _merge(cfg, file_cfg or {})
    if problems:
        raise ConfigError(problems)
    for key, value in overrides:
        apply_override(cfg, key, value)
    return cfg


def _finite(v) -> bool:
    # abs() compares an int exactly, so one beyond the float range fails
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= _FLOAT_MAX)


def _num(cfg, key, problems, cond=lambda v: True, msg=""):
    node = cfg
    for p in key.split("."):
        node = node[p]
    if not _finite(node) or not cond(node):
        problems.append("invalid value for %s: %r%s"
                        % (key, node, " (%s)" % msg if msg else ""))
        return None
    return float(node)


def _finite_injection_gains(ks, eps: float, delta: float) -> bool:
    """Whether the observer's injection gains (~ delta**3 / eps**4) are finite."""
    try:
        coeffs = ob.ObserverConfig(*ks, eps, delta).coefficients()
    except (OverflowError, ZeroDivisionError):
        return False
    return all(math.isfinite(c) for c in coeffs)


def _rk4_stable(ks, h: float) -> bool:
    """Whether an RK4 step of ``h`` (dt / epsilon) damps every root r of
    the Hurwitz quartic s^4 + k1 s^3 + k2 s^2 + k3 s + k4: |R(h r)| < 1,
    with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.

    Fujiwara's bound on |r| settles most gains without finding roots.
    """
    k1, k2, k3, k4 = ks
    if h * 2.0 * max(k1, k2 ** 0.5, k3 ** (1.0 / 3.0), (k4 / 2.0) ** 0.25) \
            <= RK4_STABLE_RADIUS:
        return True
    with np.errstate(all="ignore"):
        z = h * np.roots([1.0, k1, k2, k3, k4])
        amp = np.abs(1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))))
    return bool(np.all(amp < 1.0))


class _Problems(list):
    """The violations :func:`validate` found, one message each.
    ``airframe`` is the :func:`_airframe` of a file ``airframe.dataset``
    that checking it loaded, so that :func:`build_setup` loads it once;
    None if the check loaded none."""

    airframe = None


def _airframe(dataset: str, trim: bool) -> tuple:
    """(frame, gain): the airframe of ``dataset``, ``"builtin"`` or a
    file path, and the autopilot gain trimmed from it if ``trim``, else
    None."""
    frame = af.load_airframe(None if dataset == "builtin" else dataset)
    return frame, gd.trim_deflection_gain(frame) if trim else None


def validate(cfg: dict) -> list:
    """All violations in the resolved config; empty list means valid.
    The list's ``airframe`` holds what checking a file dataset loaded."""
    problems = _Problems()
    ks = [_num(cfg, "observer." + k, problems) for k in ("k1", "k2", "k3", "k4")]
    gains_ok = None not in ks and ob.validate_gains(*ks)
    if None not in ks and not gains_ok:
        problems.append("observer gains (k1..k4) fail the Hurwitz stability gate")
    eps = _num(cfg, "observer.epsilon", problems, lambda v: v > 0, "must be > 0")
    lag = _num(cfg, "seeker.lag_time_constant", problems, lambda v: v >= 0, "must be >= 0")
    horizons = [("seeker.lag_time_constant", lag)]  # observer horizons, by key
    if cfg["observer"]["delta"] != "auto":
        horizons = [("observer.delta", _num(cfg, "observer.delta", problems,
                                            lambda v: v >= 0, "must be >= 0 or 'auto'"))]
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
    pos = None
    if not (isinstance(t["position"], (list, tuple)) and len(t["position"]) == 3
            and all(_finite(v) for v in t["position"])):
        problems.append("target.position must be a list of 3 finite numbers")
    else:
        pos = tuple(float(v) for v in t["position"])
        # the seeker divides by the squared range, which underflows to 0
        # near the launch site
        if sum(v * v for v in pos) == 0.0:
            problems.append("target.position %r must be off the launch site [0, 0, 0]: "
                            "its squared range must be > 0" % (t["position"],))
    speed = _num(cfg, "target.speed", problems, lambda v: v > 0, "must be > 0")
    amp = _num(cfg, "target.weave_amplitude", problems, lambda v: v >= 0, "must be >= 0")
    freq = _num(cfg, "target.weave_frequency", problems, lambda v: v > 0, "must be > 0")
    if t["phase"] != "auto":
        _num(cfg, "target.phase", problems)
    dt = _num(cfg, "engagement.dt", problems, lambda v: v > 0, "must be > 0")
    max_time = _num(cfg, "engagement.max_time", problems, lambda v: v > 0, "must be > 0")
    if dt is not None and max_time is not None and not max_time / dt <= MAX_STEPS:
        problems.append("invalid value for engagement.dt: %r (the step count "
                        "engagement.max_time / engagement.dt exceeds %d)" % (dt, MAX_STEPS))
    if pos and None not in (speed, amp, freq):
        # the target's farthest reach per axis within max_time, from the
        # loop's products; the weave (checked whatever target.kind says:
        # the sweep flies weaving targets) spans 2 * amp / freq
        reach_t = max_time or 0.0  # an infinite velocity then reads nan
        vx, vy = tg.ground_velocity(tg.TargetConfig(t["kind"], pos, speed, 0.0, 1.0, 0.0))
        reach = (abs(pos[0]) + abs(vx) * reach_t, abs(pos[1]) + abs(vy) * reach_t,
                 abs(pos[2]) + 2.0 * amp / freq)
        if not math.isfinite(sum(r * r for r in reach)):
            problems.append("target.position %r, target.speed, target.weave_amplitude, "
                            "target.weave_frequency and engagement.max_time take the target "
                            "beyond the float range: its squared range overflows in flight"
                            % (t["position"],))
    _num(cfg, "engagement.launch_speed", problems, lambda v: v > 0, "must be > 0")
    _num(cfg, "engagement.launch_elevation_deg", problems)
    if dt is not None and eps is not None and dt > eps / 4.0:
        problems.append("engagement.dt=%g exceeds the observer stiffness guard "
                        "epsilon/4=%g" % (dt, eps / 4.0))
    elif gains_ok and dt is not None and eps is not None and not _rk4_stable(ks, dt / eps):
        problems.append("observer gains (k1..k4) with observer.epsilon=%g and "
                        "engagement.dt=%g have poles the RK4 step does not damp"
                        % (eps, dt))
    sw = cfg["sweep"]
    delays = sw["delays"]
    if not (isinstance(delays, (list, tuple)) and delays
            and all(_finite(d) and d > 0 for d in delays)
            and all(b > a for a, b in zip(delays, delays[1:]))):
        problems.append("sweep.delays must be a positive ascending list")
    else:
        horizons.append(("max(sweep.delays)", float(delays[-1])))
    if gains_ok and eps is not None and all(d is not None for _, d in horizons):
        # the gains grow with the horizon, so the longest one decides
        key, delta = max(horizons, key=lambda h: h[1])
        if not _finite_injection_gains(ks, eps, delta):
            problems.append("observer.epsilon=%r and %s=%r give the observer "
                            "non-finite injection gains" % (eps, key, delta))
    samples = sw["samples_per_delay"]
    if not (type(samples) is int and samples >= 1):
        problems.append("sweep.samples_per_delay must be an integer >= 1")
    elif isinstance(delays, (list, tuple)) and len(delays) * samples > MAX_PAIRS:
        problems.append("sweep.samples_per_delay=%d times %d sweep.delays exceeds %d "
                        "(delay, sample) pairs" % (samples, len(delays), MAX_PAIRS))
    if not (isinstance(sw["sources"], (list, tuple)) and sw["sources"]
            and all(s in ("delayed", "predicted") for s in sw["sources"])
            and len(set(sw["sources"])) == len(sw["sources"])):
        problems.append("sweep.sources must be a non-empty subset of "
                        "['delayed', 'predicted'], without repeats")
    if type(cfg["seed"]) is not int:  # bool is an int subclass
        problems.append("seed must be an integer")
    elif cfg["seed"] < 0:  # targets.derive_seed refuses a negative master
        problems.append("seed must be >= 0, got %d" % cfg["seed"])
    dataset = cfg["airframe"]["dataset"]
    if not isinstance(dataset, str):
        problems.append("invalid value for airframe.dataset: %r (expected 'builtin' "
                        "or a file path)" % (dataset,))
    elif dataset != "builtin":
        try:
            problems.airframe = _airframe(dataset, cfg["autopilot"]["gain"] == "auto")
        except (OSError, ValueError) as exc:
            problems.append("invalid value for airframe.dataset: %r (%s)" % (dataset, exc))
    return problems


def build_setup(cfg: dict) -> dict:
    """The fields of :class:`pgsim.engagement.EngagementConfig` from a
    config document; raises :class:`ConfigError` if it is invalid."""
    problems = validate(cfg)
    if problems:
        raise ConfigError(problems)
    lag = float(cfg["seeker"]["lag_time_constant"])
    o = cfg["observer"]
    delta = lag if o["delta"] == "auto" else float(o["delta"])
    obs_cfg = ob.ObserverConfig(
        *(float(o[k]) for k in ("k1", "k2", "k3", "k4", "epsilon")), delta=delta)
    ap = cfg["autopilot"]
    frame, trim = problems.airframe or _airframe(cfg["airframe"]["dataset"],
                                                 ap["gain"] == "auto")
    gain = trim if ap["gain"] == "auto" else float(ap["gain"])
    t = cfg["target"]
    phase = (tg.sample_phase(tg.derive_seed(int(cfg["seed"]), 0))
             if t["phase"] == "auto" else float(t["phase"]))
    target_cfg = tg.TargetConfig(
        kind=t["kind"], initial_position=tuple(float(v) for v in t["position"]),
        speed=float(t["speed"]), weave_amplitude=float(t["weave_amplitude"]),
        weave_frequency=float(t["weave_frequency"]), phase=phase,
    )
    eng = cfg["engagement"]
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
        "dt": float(eng["dt"]),
        "max_time": float(eng["max_time"]),
        "launch_speed": float(eng["launch_speed"]),
        "launch_elevation": math.radians(float(eng["launch_elevation_deg"])),
    }


def build_sweep(cfg: dict) -> mc.SweepConfig:
    """The sweep of a config document; raises :class:`ConfigError` if it is
    invalid or sets what each run sets (``montecarlo.build_run_config``)."""
    base = en.EngagementConfig.from_setup(build_setup(cfg))
    swept = {"observer.delta": cfg["observer"]["delta"], "target.phase": cfg["target"]["phase"]}
    problems = ["%s must be 'auto' in a sweep, which sets it per run, got %r" % (key, value)
                for key, value in swept.items() if value != "auto"]
    if problems:
        raise ConfigError(problems)
    sw = cfg["sweep"]
    return mc.SweepConfig(delays=tuple(float(d) for d in sw["delays"]),
                          samples_per_delay=sw["samples_per_delay"], master_seed=cfg["seed"],
                          sources=tuple(sw["sources"]), base=base)
