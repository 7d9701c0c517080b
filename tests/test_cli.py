import json

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

    def test_stiffness_guard_cross_check(self, capsys):
        # dt and epsilon are only jointly invalid
        assert run_cli("validate", "--set", "observer.epsilon=0.003") == 2
        assert "epsilon/4" in capsys.readouterr().err


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
        assert doc["termination_reason"] == "observer_divergence"


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
