import errno
import json
import os
import subprocess
import sys
import threading
from importlib import resources

import numpy as np
import pytest

from pgsim import airframe as af
from pgsim import cli
from pgsim import config as cf
from pgsim import engagement as en
from pgsim import guidance as gd

FAST = ["--set", "engagement.max_time=0.5"]

# a large positive cm_q (rate anti-damping): every engagement diverges
# within a fraction of a second
UNSTABLE_AIRFRAME = """
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
"""

# the bundled airframe with a 400 kN boost: it climbs past 47 km in 5 s
HOT_AIRFRAME = (resources.files("pgsim.data").joinpath("generic_airframe.txt")
                .read_text().replace("15000.0", "400000.0"))


def _reject_constant(token):
    raise ValueError("non-standard JSON constant %s" % token)


def strict_json(path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def run_cli(*argv):
    return cli.main(list(argv))


class TestValidate:
    def test_prints_resolved_config(self, capsys):
        assert run_cli("validate") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 12345
        assert doc["observer"]["epsilon"] == 0.05
        assert doc["guidance"]["source"] == "true"

    def test_round_trip_through_config_file(self, capsys, tmp_path):
        assert run_cli("validate") == 0
        first = capsys.readouterr().out
        p = tmp_path / "cfg.json"
        p.write_text(first)
        assert run_cli("validate", "--config", str(p)) == 0
        assert capsys.readouterr().out == first

    def test_set_override_applied(self, capsys):
        assert run_cli("validate", "--set", "observer.epsilon=0.08",
                       "--set", "guidance.source=predicted") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["observer"]["epsilon"] == 0.08
        assert doc["guidance"]["source"] == "predicted"

    def test_source_true_stays_a_string(self, capsys):
        assert run_cli("validate", "--set", "guidance.source=true") == 0
        assert json.loads(capsys.readouterr().out)["guidance"]["source"] == "true"

    @pytest.mark.parametrize("command", ["validate", "run", "sweep"])
    def test_validates_once(self, capsys, tmp_path, monkeypatch, command):
        calls = []
        real = cf.validate

        def validate(cfg):
            calls.append(cfg)
            return real(cfg)

        monkeypatch.setattr(cf, "validate", validate)
        out = [] if command == "validate" else ["--out", str(tmp_path)]
        jobs = ["--jobs", "1"] if command == "sweep" else []
        assert run_cli(command, *out, *jobs, *TestSweep.SMALL) == 0
        assert len(calls) == 1

    def test_invalid_value_exits_2(self, capsys):
        assert run_cli("validate", "--set", "guidance.nav_ratio=-1") == 2
        assert "config error" in capsys.readouterr().err

    def test_all_violations_reported(self, capsys):
        assert run_cli("validate", "--set", "guidance.nav_ratio=-1",
                       "--set", "target.speed=0") == 2
        err = capsys.readouterr().err
        assert "nav_ratio" in err
        assert "target.speed" in err

    def test_unknown_key_exits_2(self, capsys):
        assert run_cli("validate", "--set", "observer.gamma=1") == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_set_exits_2(self, capsys):
        assert run_cli("validate", "--set", "epsilon") == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_every_unknown_key_reported(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"observer": {"bandwidth": 1.0}}')
        assert run_cli("validate", "--config", str(p), "--set", "a.b=1", "--set", "c.d=2") == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: unknown config key: %s" % key
            for key in ("observer.bandwidth", "a.b", "c.d")]

    def test_malformed_set_with_other_problems(self, capsys):
        assert run_cli("validate", "--set", "epsilon", "--set", "a.b=1", "--set", "=5",
                       "--set", "target.speed=0") == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: --set expects KEY=VALUE, got 'epsilon'",
            "config error: unknown config key: a.b",
            "config error: --set expects KEY=VALUE, got '=5'",
            "config error: invalid value for target.speed: 0 (must be > 0)"]

    def test_unknown_key_with_invalid_value(self, capsys):
        assert run_cli("validate", "--set", "a.b=1", "--set", "target.speed=0") == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: unknown config key: a.b",
            "config error: invalid value for target.speed: 0 (must be > 0)"]

    @pytest.mark.parametrize("where", ["config", "set"])
    def test_json_nested_too_deep_exits_2(self, capsys, tmp_path, where):
        deep = "[" * 100_000
        if where == "config":
            p = tmp_path / "deep.json"
            p.write_text(deep)
            argv, message = ["--config", str(p)], "%s is not valid JSON" % p
        else:
            argv, message = ["--set", "seed=" + deep], "seed must be an integer"
        assert run_cli("validate", *argv) == 2
        assert capsys.readouterr().err.startswith("config error: " + message)

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="no limit on the digits of an int parsed from text")
    def test_integer_of_too_many_digits_exits_2(self, capsys):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        assert run_cli("validate", "--set", "seed=" + digits) == 2
        assert capsys.readouterr().err == "config error: seed must be an integer\n"

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        assert run_cli("validate", "--config", str(tmp_path / "nope.json")) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_config_file_exits_2(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{bad")
        assert run_cli("validate", "--config", str(p)) == 2
        assert "config error: %s is not valid JSON" % p in capsys.readouterr().err
        p.write_text("[1]")
        assert run_cli("validate", "--config", str(p)) == 2
        assert "must hold a JSON object" in capsys.readouterr().err
        p.write_bytes(b"\xff\xfe{")
        assert run_cli("validate", "--config", str(p)) == 2
        assert "is not valid JSON" in capsys.readouterr().err

    def test_non_finite_target_position_exits_2(self, capsys, tmp_path):
        assert run_cli("run", "--out", str(tmp_path),
                       "--set", "target.position=[NaN,0,0]") == 2
        assert "target.position" in capsys.readouterr().err
        assert not (tmp_path / "engagement.csv").exists()

    def test_non_numeric_gain_exits_2(self, capsys):
        assert run_cli("validate", "--set", 'observer.k1="abc"') == 2
        assert "observer.k1" in capsys.readouterr().err

    def test_non_finite_sweep_delay_exits_2(self, capsys, tmp_path):
        assert run_cli("sweep", "--out", str(tmp_path), "--jobs", "1",
                       "--set", "sweep.delays=[Infinity]") == 2
        assert "sweep.delays" in capsys.readouterr().err

    @pytest.mark.parametrize("samples, code", [
        (1_000_000_000, 2), (cf.MAX_PAIRS // 8 + 1, 2), (cf.MAX_PAIRS // 8, 0)])
    def test_sweep_pair_cap(self, capsys, samples, code):
        # the default sweep has 8 delays; validate flies nothing
        assert run_cli("validate", "--set", "sweep.samples_per_delay=%d" % samples) == code
        err = capsys.readouterr().err
        if code:
            assert "sweep.samples_per_delay" in err and "sweep.delays" in err, err

    @pytest.mark.parametrize("jobs", ["0", "-4", "two", str(cli.MAX_JOBS + 1)])
    def test_jobs_out_of_range_is_a_usage_error(self, capsys, tmp_path, jobs):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--out", str(tmp_path), "--jobs", jobs)
        assert exc.value.code == 2
        assert "argument --jobs" in capsys.readouterr().err
        assert not (tmp_path / "sweep_runs.csv").exists()

    def test_stiffness_guard_cross_check(self, capsys):
        # dt and epsilon are only jointly invalid
        assert run_cli("validate", "--set", "observer.epsilon=0.003") == 2
        assert "epsilon/4" in capsys.readouterr().err

    def test_boolean_integer_keys_exit_2(self, capsys):
        # JSON true is not an integer, though Python's bool subclasses int
        assert run_cli("validate", "--set", "seed=true") == 2
        assert "config error: seed must be an integer" in capsys.readouterr().err
        assert run_cli("validate", "--set", "sweep.samples_per_delay=true") == 2
        assert "sweep.samples_per_delay" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run"])
    def test_target_at_launch_site_exits_2(self, capsys, tmp_path, command):
        # zero initial range, exactly or once squared, or a squared range that
        # overflows: no step could be recorded
        for position in ("[0,0,0]", "[1e-200,0,0]", "[1e200,0,0]"):
            assert run_cli(command, "--out", str(tmp_path),
                           "--set", "target.position=" + position) == 2
            assert "config error: target.position" in capsys.readouterr().err
            assert not (tmp_path / "engagement.csv").exists()

    @pytest.mark.parametrize("command, overrides, key", [
        ("run", ["observer.epsilon=1e200"], "observer.epsilon"),
        ("run", ["observer.delta=1e110"], "observer.delta"),
        ("run", ["seeker.lag_time_constant=1e110"], "seeker.lag_time_constant"),
        ("sweep", ["sweep.delays=[1e110]"], "sweep.delays"),
        ("run", ["engagement.dt=1e-320"], "engagement.dt"),
        ("run", ["engagement.dt=1e-300"], "engagement.dt"),
        ("run", ["target.kind=weaving", "target.weave_frequency=1e-320"],
         "target.weave_frequency"),
        # the sweep flies weaving targets whatever target.kind says
        ("sweep", ["target.weave_frequency=1e-320"], "target.weave_frequency"),
        ("validate", ["observer.epsilon=1" + "0" * 400], "observer.epsilon"),
        ("sweep", ['sweep.sources=["delayed","delayed"]'], "sweep.sources"),
        # the sweep sets the horizon and the phase per run
        ("sweep", ["observer.delta=0.1"], "observer.delta"),
        ("sweep", ["target.phase=1.0"], "target.phase"),
        # the ground velocity -speed * x0 / rh overflows
        ("run", ["target.speed=1e308"], "target.speed"),
        ("sweep", ["sweep.samples_per_delay=1", "sweep.delays=[0.1]", "target.speed=1e308"],
         "target.speed"),
        # the start is in range, but the target leaves it within max_time
        ("run", ["target.speed=1e300", "engagement.max_time=0.5"], "target.position"),
        # every pole at -1000: dt/epsilon * |pole| = 20, beyond RK4's damping
        ("validate", ["observer.k1=4000", "observer.k2=6000000", "observer.k3=4000000000",
                      "observer.k4=1000000000000"], "observer.epsilon"),
    ], ids=["epsilon-gains", "delta-gains", "lag-gains", "sweep-delay-gains",
            "step-count", "step-count-cap", "weave-height", "sweep-weave-height", "int-beyond-float",
            "repeated-sources", "sweep-delta", "sweep-phase", "speed-velocity",
            "sweep-speed-velocity", "target-path", "stiff-gains"])
    def test_overflowing_or_repeated_input_exits_2(self, capsys, tmp_path, command,
                                                   overrides, key):
        out = [] if command == "validate" else ["--out", str(tmp_path)]
        jobs = ["--jobs", "1"] if command == "sweep" else []
        sets = [arg for o in overrides for arg in ("--set", o)]
        assert run_cli(command, *out, *jobs, *sets) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and key in err
        assert list(tmp_path.iterdir()) == []


class TestInputFiles:
    """An unreadable or malformed input file is a config error (exit 2)
    in every subcommand, not a traceback."""

    def test_config_directory_exits_2(self, capsys, tmp_path):
        assert run_cli("validate", "--config", str(tmp_path)) == 2
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_dataset_reported_after_document(self, capsys, tmp_path, command):
        out = ["--out", str(tmp_path)] if command == "run" else []
        missing = str(tmp_path / "missing.txt")
        assert run_cli(command, *out, "--set", "airframe.dataset=%s" % missing,
                       "--set", "target.speed=0") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("config error: invalid value for target.speed: 0")
        assert lines[1].startswith("config error: invalid value for airframe.dataset: %r (" % missing)
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("dataset, gain, trims", [
        ("file", "auto", 1), ("file", "0.002", 0), ("builtin", "auto", 1),
        ("builtin", "0.002", 0)])
    def test_dataset_loaded_and_trimmed_once(self, monkeypatch, tmp_path, dataset, gain, trims):
        calls = {"load": 0, "trim": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(af, "load_airframe", counted("load", af.load_airframe))
        monkeypatch.setattr(gd, "trim_deflection_gain", counted("trim", gd.trim_deflection_gain))
        path = resources.files("pgsim.data").joinpath("generic_airframe.txt")
        assert run_cli("run", "--out", str(tmp_path), "--set", "engagement.max_time=0.01",
                       "--set", "autopilot.gain=%s" % gain,
                       "--set", "airframe.dataset=%s" % (path if dataset == "file" else dataset)) == 0
        assert calls == {"load": 1, "trim": trims}

    @pytest.mark.parametrize("command", ["validate", "run", "sweep"])
    def test_dataset_directory_exits_2(self, capsys, tmp_path, command):
        out = ["--out", str(tmp_path)] if command in ("run", "sweep") else []
        assert run_cli(command, *out, "--set", "airframe.dataset=%s" % tmp_path) == 2
        assert "config error: invalid value for airframe.dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (("reference_area = 0.0254", "reference_area = abc"),
         "line 3 in [airframe]: could not convert string to float: 'abc'"),
        (("[airframe]\nreference_area = 0.0254\nreference_length = 2.0\n"
          "transverse_inertia = 22.0\n", ""), "missing section 'airframe'"),
        (("reference_area = 0.0254\n", ""), "[airframe] missing key 'reference_area'"),
        # fins that turn the body against the demand: no trim gain exists
        (("8.0 10.0\n", "8.0 -10.0\n"), "reference trim produces no usable acceleration"),
        (("transverse_inertia = 22.0", "transverse_inertia = 0.0"),
         "transverse_inertia must be > 0, got 0"),
        (("transverse_inertia = 22.0", "transverse_inertia = -22.0"),
         "transverse_inertia must be > 0, got -22"),
        (("0.4 20.0 0.3", "0.4 nan 0.3"), "line 10 in [aero]: non-finite dataset value 'nan'"),
        (("3.0 15000.0", "3.0 inf"), "line 14 in [thrust]: non-finite dataset value 'inf'"),
        (("3.0 15000.0", "3.0"), "thrust row at t=3 holds 1 numbers, expected 2"),
        (("3.0 15000.0", "3.0 15000.0 1.0"), "thrust row at t=3 holds 3 numbers, expected 2"),
        (("3.1 0.0\n", "3.1 0.0\n[thrust]\n0.0 1.0\n"), "repeats section [thrust]"),
        # every line is read by its section or refused
        (("propellant_mass = 30.0\n", "propellant_mass = 30.0\n1.0 2.0\n"),
         "line 9 in [mass]: expected 'key = value', got '1.0 2.0'"),
        (("[aero]\n", "[aero]\nmach = 0.4\n"),
         "line 10 in [aero]: expected a row of numbers, got 'mach = 0.4'"),
        (("[thrust]\n", "[thrust]\nburn_time = 3.0\n"),
         "line 13 in [thrust]: expected a row of numbers, got 'burn_time = 3.0'"),
        (("transverse_inertia = 22.0\n", "transverse_inertia = 22.0\nreference_lenght = 2.0\n"),
         "line 6 in [airframe]: unknown key 'reference_lenght'"),
        (("initial_mass = 85.0\n", "initial_mass = 85.0\ninitial_mass = 80.0\n"),
         "line 8 in [mass] repeats key 'initial_mass'"),
        (("3.1 0.0\n", "3.1 0.0\n[drag]\n0.5 0.3\n"), "line 16: unknown section [drag]"),
        (("[airframe]\n", "reference_area = 0.0254\n[airframe]\n"),
         "line 2: 'reference_area = 0.0254' before any [section] header"),
        (("0.0 15000.0\n3.0 15000.0\n3.1 0.0\n", ""), "thrust table has no rows"),
        (("3.0 15000.0", "3.2 15000.0"), "thrust breakpoints must be strictly ascending"),
        (("3.1 0.0", "3.1 -1.0"), "thrust must be non-negative"),
        (("propellant_mass = 30.0", "propellant_mass = 85.0"),
         "need 0 <= propellant mass < initial mass"),
        (("3.0 20.0 0.3", "0.2 20.0 0.3"), "Mach breakpoints must be strictly ascending"),
        (("3.0 20.0 0.3 -1.0 200000.0 8.0 10.0", "3.0 20.0 0.3 -1.0 200000.0 8.0"),
         "aero row at Mach 3 has 5 columns, expected 6"),
        (("reference_area = 0.0254", "reference_area = 0"),
         "reference area and length must be positive"),
        # a JSON number, not a path
        (None, "5 (expected 'builtin' or a file path)"),
    ], ids=["non-numeric-value", "missing-section", "missing-key", "no-trim-gain",
            "zero-inertia", "negative-inertia", "nan-aero-entry", "inf-thrust-entry",
            "short-thrust-row", "long-thrust-row", "repeated-section", "row-in-keyed-section",
            "key-in-aero-table", "key-in-thrust-table", "unknown-key", "repeated-key",
            "unknown-section", "key-before-section", "empty-thrust-table",
            "descending-thrust-times", "negative-thrust", "propellant-not-below-mass",
            "descending-mach", "ragged-aero-row", "zero-reference-area", "number-not-path"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_malformed_dataset_exits_2(self, capsys, tmp_path, command, edit, message):
        p = 5
        if edit is not None:
            assert edit[0] in UNSTABLE_AIRFRAME
            p = tmp_path / "frame.txt"
            p.write_text(UNSTABLE_AIRFRAME.replace(*edit))
        out = ["--out", str(tmp_path)] if command == "run" else []
        assert run_cli(command, *out, "--set", "airframe.dataset=%s" % p) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid value for airframe.dataset")
        assert message in err
        assert not (tmp_path / "metrics.json").exists()


class TestOptions:
    """Each subcommand accepts only the options it reads."""

    @pytest.mark.parametrize("argv", [
        ["run", "--jobs", "2"],
        ["validate", "--out", "X"],
        ["validate", "--jobs", "2"],
    ], ids=["run-jobs", "validate-out", "validate-jobs"])
    def test_unread_option_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: pgsim")
        assert "error: unrecognized arguments: %s" % " ".join(argv[1:]) in err

    def test_jobs_default_to_usable_cpus(self, monkeypatch):
        # pinned to one CPU, a sweep starts one worker on a many-core host
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert cli.build_parser().parse_args(["sweep"]).jobs == 1

    def test_jobs_default_at_most_max_jobs(self, monkeypatch):
        # a host with more CPUs than MAX_JOBS defaults to MAX_JOBS workers
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cli.MAX_JOBS + 1)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cli.MAX_JOBS + 1)
        assert cli.build_parser().parse_args(["sweep"]).jobs == cli.MAX_JOBS

    def test_run_out_and_seed(self, capsys, tmp_path):
        assert run_cli("run", "--out", str(tmp_path), "--seed", "7", *FAST) == 0
        assert strict_json(tmp_path / "metrics.json")["config"]["seed"] == 7


class TestSeedPrecedence:
    @pytest.mark.parametrize("command", ["validate", "run", "sweep"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_negative_seed_exits_2(self, capsys, tmp_path, command, via):
        # pgsim's seed derivation takes no negative entropy
        argv = ["--seed", "-1"] if via == "flag" else ["--set", "seed=-1"]
        out = ["--out", str(tmp_path)] if command != "validate" else []
        assert run_cli(command, *out, *argv) == 2
        assert "config error: seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_without_env(self, capsys):
        assert run_cli("validate", "--set", "seed=31") == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 31

    def test_flag_wins_over_set_and_file(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"seed": 5}')
        argv = ["--config", str(p), "--set", "seed=6", "--seed", "7"]
        assert run_cli("validate", *argv) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 7
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), *argv, *FAST) == 0
        assert strict_json(out / "metrics.json")["config"]["seed"] == 7


class TestRun:
    def test_outputs_and_exit_code(self, capsys, tmp_path):
        assert run_cli("run", "--out", str(tmp_path), *FAST) == 0
        out = capsys.readouterr().out
        assert "termination=timeout" in out
        csv = tmp_path / "engagement.csv"
        data = np.genfromtxt(csv, delimiter=",", skip_header=1)
        assert data.shape[0] == 501
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert doc["termination_reason"] == "timeout"
        assert doc["config"]["engagement"]["max_time"] == 0.5
        assert "miss_distance" in doc["metrics"]

    def test_full_engagement_intercepts(self, capsys, tmp_path):
        assert run_cli("run", "--out", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert doc["termination_reason"] == "closest_approach"
        assert doc["miss_distance"] < 1.0

    def test_divergence_exits_3(self, capsys, tmp_path):
        p = tmp_path / "unstable.txt"
        p.write_text(UNSTABLE_AIRFRAME)
        code = run_cli("run", "--out", str(tmp_path),
                       "--set", "airframe.dataset=%s" % p,
                       "--set", "guidance.source=predicted",
                       "--set", "seeker.lag_time_constant=0.2")
        assert code == 3
        captured = capsys.readouterr()
        assert "divergence" in captured.err
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert doc["termination_reason"] == "vehicle_divergence"

    def test_tiny_launch_speed_exits_3(self, capsys, tmp_path):
        # the launch speed squared underflows to 0, so the airframe step
        # divides by zero on the first step
        code = run_cli("run", "--out", str(tmp_path),
                       "--set", "engagement.launch_speed=1e-170")
        assert code == 3
        err = capsys.readouterr().err
        assert "vehicle_divergence: " in err
        assert "Traceback" not in err
        doc = strict_json(tmp_path / "metrics.json")
        assert doc["termination_reason"] == "vehicle_divergence"

    def test_altitude_ceiling_exits_3(self, capsys, tmp_path):
        # a 400 kN boost toward a target above the 47 km atmosphere model
        p = tmp_path / "hot.txt"
        p.write_text(HOT_AIRFRAME)
        code = run_cli("run", "--out", str(tmp_path),
                       "--set", "airframe.dataset=%s" % p,
                       "--set", "target.position=[2000, 0, 60000]",
                       "--set", "engagement.launch_elevation_deg=85")
        assert code == 3
        assert "altitude_ceiling: " in capsys.readouterr().err
        doc = strict_json(tmp_path / "metrics.json")
        assert doc["termination_reason"] == "altitude_ceiling"
        assert "ceiling" in doc["diagnostic"]


@pytest.fixture
def writers(monkeypatch):
    """The pids of the processes that os.fork starts during the test;
    afterwards, none of them is left unreaped."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def flown(monkeypatch):
    """The records that the command line's run_engagement returns."""
    records = []
    real_run = en.run_engagement

    def run(*args, **kwargs):
        records.append(real_run(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(en, "run_engagement", run)
    return records


def assert_csv_is_records(out, record):
    ref = out / "ref" / "engagement.csv"
    ref.parent.mkdir()
    record.write_csv(ref)
    assert (out / "engagement.csv").read_bytes() == ref.read_bytes()


class TestRunWriter:
    """``run`` writes engagement.csv from a forked writer, which never
    outlives it."""

    def test_streamed_csv_is_record_csv(self, capsys, tmp_path, writers, flown):
        assert run_cli("run", "--out", str(tmp_path), *FAST) == 0
        assert len(writers) == 1
        assert_csv_is_records(tmp_path, flown[0])

    def test_divergence_exits_3_with_record_csv(self, capsys, tmp_path, writers, flown):
        p = tmp_path / "unstable.txt"
        p.write_text(UNSTABLE_AIRFRAME)
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--set", "airframe.dataset=%s" % p,
                       "--set", "guidance.source=predicted",
                       "--set", "seeker.lag_time_constant=0.2") == 3
        assert flown[0].termination_reason == "vehicle_divergence"
        assert len(writers) == 1
        assert_csv_is_records(out, flown[0])

    def test_writer_failure_exits_2(self, capsys, tmp_path, writers, monkeypatch):
        def fail(fh, blocks):
            raise RuntimeError("formatter failed")

        # the forked writer inherits the patch
        monkeypatch.setattr(en, "_write_table", fail)
        assert run_cli("run", "--out", str(tmp_path), *FAST) == 2
        assert len(writers) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "engagement.csv" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

        # pinned to one CPU, the record is written in-process: a write
        # that fails part way leaves no file either
        def fill_disk(fh, blocks):
            fh.write(",".join(en.CSV_COLUMNS) + "\n")
            fh.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(en, "_write_table", fill_disk)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert run_cli("run", "--out", str(tmp_path), *FAST) == 2
        assert len(writers) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
    @pytest.mark.parametrize("failure", [OSError(errno.EAGAIN, os.strerror(errno.EAGAIN)),
                                         KeyboardInterrupt()], ids=["eagain", "interrupt"])
    def test_failed_fork_leaves_nothing(self, capsys, tmp_path, monkeypatch, failure):
        forks = []

        def fork():
            forks.append(1)
            raise failure

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        fds = len(os.listdir("/proc/self/fd"))
        if isinstance(failure, OSError):
            assert run_cli("run", "--out", str(tmp_path), *FAST) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "engagement.csv" in err and "Traceback" not in err
        else:
            with pytest.raises(KeyboardInterrupt) as exc:
                run_cli("run", "--out", str(tmp_path), *FAST)
            assert exc.value is failure
        assert forks == [1]
        assert list(tmp_path.iterdir()) == []
        assert len(os.listdir("/proc/self/fd")) == fds  # both pipe ends closed

    def test_interrupted_run_removes_csv(self, tmp_path, writers, monkeypatch):
        real_pn = gd.pn_command
        calls = []

        def pn_command(*args):
            calls.append(1)
            if len(calls) > 300:
                raise KeyboardInterrupt
            return real_pn(*args)

        monkeypatch.setattr(gd, "pn_command", pn_command)
        with pytest.raises(KeyboardInterrupt):
            run_cli("run", "--out", str(tmp_path), *FAST)
        assert len(writers) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("why", ["thread", "no-fork", "one-cpu"])
    def test_writes_in_process_without_safe_fork(self, capsys, tmp_path, monkeypatch,
                                                  flown, why):
        def fork():
            pytest.fail("forked")

        stop = threading.Event()
        helper = threading.Thread(target=stop.wait)
        if why == "no-fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", fork)
        if why == "thread":
            helper.start()
        if why == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        try:
            assert run_cli("run", "--out", str(tmp_path), *FAST) == 0
        finally:
            stop.set()
            if why == "thread":
                helper.join(timeout=10)
        assert not helper.is_alive()
        assert_csv_is_records(tmp_path, flown[0])

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_out_is_a_file_exits_2_before_flying(self, capsys, tmp_path, monkeypatch,
                                                 command):
        def fly(*args, **kwargs):
            pytest.fail("flew with an unusable --out")

        monkeypatch.setattr(en, "run_engagement", fly)
        monkeypatch.setattr(cli.mc, "run_sweep", fly)
        out = tmp_path / "file"
        out.write_text("")
        assert run_cli(command, "--out", str(out), *FAST) == 2
        assert "error: " in capsys.readouterr().err
        assert out.read_text() == ""


class TestStrictJson:
    def test_short_run_metrics_use_null(self, capsys, tmp_path):
        assert run_cli("run", "--out", str(tmp_path),
                       "--set", "engagement.max_time=0.05") == 0
        doc = strict_json(tmp_path / "metrics.json")
        assert doc["metrics"]["rmse_delayed"] is None
        assert doc["metrics"]["rmse_predicted_full"] is None

    def test_failed_sweep_summary_uses_null(self, capsys, tmp_path):
        p = tmp_path / "unstable.txt"
        p.write_text(UNSTABLE_AIRFRAME)
        assert run_cli("sweep", "--out", str(tmp_path), "--jobs", "1",
                       "--set", "airframe.dataset=%s" % p,
                       "--set", "sweep.delays=[0.2]",
                       "--set", "sweep.samples_per_delay=1",
                       "--set", "engagement.max_time=0.5") == 0
        doc = strict_json(tmp_path / "sweep_summary.json")
        assert [g["failure_count"] for g in doc["groups"]] == [1, 1]
        assert all(g["mean_miss"] is None for g in doc["groups"])


class TestSweep:
    SMALL = ["--set", "sweep.delays=[0.05]",
             "--set", "sweep.samples_per_delay=2",
             "--set", "engagement.max_time=0.5"]

    def test_outputs(self, capsys, tmp_path):
        assert run_cli("sweep", "--out", str(tmp_path), "--jobs", "1",
                       *self.SMALL) == 0
        out = capsys.readouterr().out
        assert out.count("delay=0.050") == 2  # one line per source
        runs = (tmp_path / "sweep_runs.csv").read_text().splitlines()
        assert len(runs) == 1 + 1 * 2 * 2
        doc = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert doc["config"]["resolved_config"]["seed"] == 12345
        assert len(doc["groups"]) == 2
        assert (tmp_path / "plotdata_delayed.csv").exists()
        assert (tmp_path / "plotdata_predicted.csv").exists()

    def test_seed_changes_rows(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("sweep", "--out", str(a), "--jobs", "1", "--seed", "1",
                       *self.SMALL) == 0
        assert run_cli("sweep", "--out", str(b), "--jobs", "1", "--seed", "2",
                       *self.SMALL) == 0
        ra = (a / "sweep_runs.csv").read_text()
        rb = (b / "sweep_runs.csv").read_text()
        assert ra != rb

    def test_repeat_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("sweep", "--out", str(out), "--jobs", "1",
                           *self.SMALL) == 0
        assert (a / "sweep_runs.csv").read_bytes() == \
            (b / "sweep_runs.csv").read_bytes()


class TestFootprint:
    """No command loads ``numpy.random`` or OpenSSL's ``_hashlib`` (3.6 MB
    of resident memory): the weave phase is drawn with ``random.Random``.
    Each command runs in a fresh interpreter, since the test process itself
    imports both."""

    @pytest.mark.parametrize("argv", [
        ["run", "--set", "target.kind=weaving", "--set", "engagement.max_time=0.05"],
        ["sweep", "--jobs", "1", "--set", "sweep.delays=[0.2]",
         "--set", "sweep.samples_per_delay=1", "--set", "engagement.max_time=0.05"],
    ], ids=["run", "sweep"])
    def test_no_numpy_random(self, tmp_path, argv):
        script = ("import sys\nfrom pgsim import cli\ncode = cli.main(sys.argv[1:])\n"
                  "assert 'numpy.random' not in sys.modules\n"
                  "assert '_hashlib' not in sys.modules\nsys.exit(code)\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.run([sys.executable, "-c", script, *argv, "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
