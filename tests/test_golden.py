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

DEFAULT_SWEEP_RUNS_CSV = "511b3291fa20897dad7bc7e6bff5b76f55db9f1176c2983d1f099ce550b97ffa"

SWEEP_HASHES = {
    "sweep_runs.csv": "b46f4c7f25e7e609900a733eb0adaed5c4c1a6c868d673f06a0600bbd0be83f0",
    "sweep_summary.json": "9592264b3ea14840450b97a6ab5f747f2bd8bd6489f05c634e26a11c599e1167",
}

CASES = {
    "run-default": (["run"], {
        "engagement.csv": "b5dde62b3927f660246993702ac50037b83ed7f098678d25ce60ceaac2cecae4",
        "metrics.json": "cee709666ae35eb8782077137378a387ac38b200c6a7b0bdec45203a60bef393",
    }),
    "run-weave-predicted": (["run", "--set", "seeker.lag_time_constant=0.2",
                             "--set", "guidance.source=predicted",
                             "--set", "target.kind=weaving"], {
        "engagement.csv": "8b938c711866da37a7f2a3d99f3f6ee7869f6ad60be662d593764c68e7294022",
        "metrics.json": "457ea3d18dbc5af14454568ccb75c2c2de06765c328cf587ab103612078987f2",
    }),
    # a warm-up off the step grid: guidance hands over at t = 2.001
    "run-weave-predicted-offgrid": (["run", "--set", "seeker.lag_time_constant=0.2",
                                     "--set", "guidance.source=predicted",
                                     "--set", "target.kind=weaving",
                                     "--set", "guidance.warmup=2.0005"], {
        "engagement.csv": "9c307f1e93a93c5385739ea529dd21cc55544e0846f9a6059dff8c54de86ded4",
        "metrics.json": "836f9005a23ef9d25d8b266f32a339487e497fa87ac4cb4c532ef7bc0449db46",
    }),
    # a step off the thrust table's grid: the stage times fall between
    # breakpoints, and burnout (6.6 s) falls inside a step
    "run-dt-offgrid": (["run", "--set", "engagement.dt=0.0007"], {
        "engagement.csv": "ab1ab9e44957000238ce8ecb09df7eca4a1d005602d453069dffe6fd47045dc0",
        "metrics.json": "bc62b145a4cb994a46f73d1bbd95ca524e1378c1a64ad1f900a95d28ce195027",
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
