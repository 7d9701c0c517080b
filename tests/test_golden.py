"""Byte-level golden outputs of the command-line runs.

Each case runs ``pgsim`` in-process and compares the sha256 of its
output files with the recorded value, so a change that alters any output
byte fails here.  A change that alters outputs on purpose updates the
hashes below and says so, with the old and the new values, in
``CHANGES.md``.  The hashes depend on the platform's libm (``exp``,
``sin``, ``atan2`` and friends are not correctly rounded everywhere), so
they hold for the Linux/glibc x86-64 build they were recorded on.

The full 400-run default sweep's ``sweep_runs.csv`` is hashed from the
session's one run of it, which acceptance criterion 6 also reads.
"""

import hashlib

import pytest

from pgsim import cli
from pgsim import montecarlo as mc

REDUCED_SWEEP = ["--set", "sweep.delays=[0.025, 0.35]",
                 "--set", "sweep.samples_per_delay=2"]

DEFAULT_SWEEP_RUNS_CSV = "fcfa3931f00f146c28f18d9e16ae6cd4e78508aa4d40558f7771a96a14ef30c6"

SWEEP_HASHES = {
    "sweep_runs.csv": "f211cb394315c49197ffffb2c4613668c361713f09d25bf509da1fdf4b0c2792",
    "sweep_summary.json": "a0da15a79e0923248f373049360b570076361507340b11d659515a92e9e52b1b",
}

CASES = {
    "run-default": (["run"], {
        "engagement.csv": "26160f4c551e48f60596f7335718a368f54f89d29aa1215e9cea0dc94768e31b",
        "metrics.json": "c36f69c37e98f234cb93c36dd1e08954b77c2d72823b0b897084fcf630497a0d",
    }),
    "run-weave-predicted": (["run", "--set", "seeker.lag_time_constant=0.2",
                             "--set", "guidance.source=predicted",
                             "--set", "target.kind=weaving"], {
        "engagement.csv": "1986cc271b8de436326ec4a3ab21f33e62ef28fb215bbed3ef0072aeef63f032",
        "metrics.json": "f16aac3bb6968f43c79f5fefadb5d3711980c0ffe9393e905985e116c9d09c2d",
    }),
    # a warm-up off the step grid: guidance hands over at t = 2.001
    "run-weave-predicted-offgrid": (["run", "--set", "seeker.lag_time_constant=0.2",
                                     "--set", "guidance.source=predicted",
                                     "--set", "target.kind=weaving",
                                     "--set", "guidance.warmup=2.0005"], {
        "engagement.csv": "a20cea59223024bff412a0393af7b10af8ef4e4eefd16d33122dd776a080fb6c",
        "metrics.json": "6ea99c9dfeb7eba85c65ce40a934c4a525cd6a5ecfbcc8341fbfeca4948f335a",
    }),
    # a step off the thrust table's grid: the stage times fall between
    # breakpoints, and burnout (6.6 s) falls inside a step
    "run-dt-offgrid": (["run", "--set", "engagement.dt=0.0007"], {
        "engagement.csv": "7761b89f30c7c9069cac9d86446d004344b0b1e3eea0b80a3b54ae47839b929d",
        "metrics.json": "537abaed00601db548dd27cf736c9fe0d8772083a39c92fab38c7987aeadca5e",
    }),
    "sweep-jobs1": (["sweep", "--jobs", "1", *REDUCED_SWEEP], SWEEP_HASHES),
    "sweep-jobs2": (["sweep", "--jobs", "2", *REDUCED_SWEEP], SWEEP_HASHES),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes(case, tmp_path, capsys):
    argv, hashes = CASES[case]
    assert cli.main([argv[0], "--out", str(tmp_path), *argv[1:]]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in hashes}
    assert got == hashes


@pytest.mark.slow
def test_default_sweep_runs_csv(default_sweep, tmp_path):
    _, summary, _ = default_sweep
    path = tmp_path / "sweep_runs.csv"
    mc.write_runs_csv(summary, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_SWEEP_RUNS_CSV
