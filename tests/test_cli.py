import json
from importlib import resources

import numpy as np
import pytest

from pgsim import cli

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

    @pytest.mark.parametrize("jobs", ["0", "-4", "two"])
    def test_jobs_below_one_is_a_usage_error(self, capsys, tmp_path, jobs):
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

    def test_coupled_step1_takes_only_booleans(self, capsys):
        for value in ("no", '"false"', "0", "2"):
            assert run_cli("validate", "--set", "observer.coupled_step1=" + value) == 2
            assert "observer.coupled_step1" in capsys.readouterr().err
        assert run_cli("validate", "--set", "observer.coupled_step1=true") == 0
        assert json.loads(capsys.readouterr().out)["observer"]["coupled_step1"] is True

    @pytest.mark.parametrize("command", ["run", "demo"])
    def test_target_at_launch_site_exits_2(self, capsys, tmp_path, command):
        # zero initial range: no step could be recorded
        out = ["--out", str(tmp_path)] if command == "run" else []
        assert run_cli(command, *out, "--set", "target.position=[0,0,0]") == 2
        assert "config error: target.position" in capsys.readouterr().err
        assert not (tmp_path / "engagement.csv").exists()


class TestInputFiles:
    """An unreadable or malformed input file is a config error (exit 2)
    in every subcommand, not a traceback."""

    def test_config_directory_exits_2(self, capsys, tmp_path):
        assert run_cli("validate", "--config", str(tmp_path)) == 2
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run", "sweep", "demo"])
    def test_dataset_directory_exits_2(self, capsys, tmp_path, command):
        out = ["--out", str(tmp_path)] if command in ("run", "sweep") else []
        assert run_cli(command, *out, "--set", "airframe.dataset=%s" % tmp_path) == 2
        assert "config error: invalid value for airframe.dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (("reference_area = 0.0254", "reference_area = abc"), "could not convert"),
        (("[airframe]\nreference_area = 0.0254\nreference_length = 2.0\n"
          "transverse_inertia = 22.0\n", ""), "missing section 'airframe'"),
        (("reference_area = 0.0254\n", ""), "[airframe] missing key 'reference_area'"),
        # fins that turn the body against the demand: no trim gain exists
        (("8.0 10.0\n", "8.0 -10.0\n"), "reference trim produces no usable acceleration"),
        (("transverse_inertia = 22.0", "transverse_inertia = 0.0"),
         "transverse_inertia must be > 0, got 0"),
        (("transverse_inertia = 22.0", "transverse_inertia = -22.0"),
         "transverse_inertia must be > 0, got -22"),
        (("0.4 20.0 0.3", "0.4 nan 0.3"), "non-finite dataset value 'nan'"),
        (("3.0 15000.0", "3.0 inf"), "non-finite dataset value 'inf'"),
    ], ids=["non-numeric-value", "missing-section", "missing-key", "no-trim-gain",
            "zero-inertia", "negative-inertia", "nan-aero-entry", "inf-thrust-entry"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_malformed_dataset_exits_2(self, capsys, tmp_path, command, edit, message):
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
        ["demo", "--out", "X"],
        ["demo", "--jobs", "2"],
    ], ids=["run-jobs", "validate-out", "validate-jobs", "demo-out", "demo-jobs"])
    def test_unread_option_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: pgsim")
        assert "error: unrecognized arguments: %s" % " ".join(argv[1:]) in err

    def test_run_out_and_seed(self, capsys, tmp_path):
        assert run_cli("run", "--out", str(tmp_path), "--seed", "7", *FAST) == 0
        assert strict_json(tmp_path / "metrics.json")["config"]["seed"] == 7

    def test_demo_takes_seed(self, capsys):
        assert run_cli("demo", "--seed", "7", *FAST) == 0


class TestSeedPrecedence:
    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("PGS_SEED", "777")
        assert run_cli("validate") == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 777

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PGS_SEED", "777")
        assert run_cli("validate", "--seed", "888") == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 888

    def test_non_integer_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("PGS_SEED", "abc")
        assert run_cli("validate") == 2
        assert "config error: PGS_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run", "sweep"])
    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_negative_seed_exits_2(self, capsys, monkeypatch, tmp_path, command, via):
        # numpy's SeedSequence takes no negative entropy
        monkeypatch.delenv("PGS_SEED", raising=False)
        argv = ["--seed", "-1"] if via == "flag" else []
        if via == "env":
            monkeypatch.setenv("PGS_SEED", "-1")
        out = ["--out", str(tmp_path)] if command != "validate" else []
        assert run_cli(command, *out, *argv) == 2
        assert "config error: seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_without_env(self, capsys, monkeypatch):
        monkeypatch.delenv("PGS_SEED", raising=False)
        assert run_cli("validate", "--set", "seed=31") == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 31


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


class TestDemo:
    def test_three_row_table(self, capsys):
        assert run_cli("demo", *FAST) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
        assert len(lines) == 4
        assert lines[0].startswith("source")
        labels = [ln.split()[0] for ln in lines[1:]]
        assert labels == ["zero", "uncorrected", "corrected"]
