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

DEFAULT_SWEEP_RUNS_CSV = "18346051223a38d51a27239e630189915976583f1bf35b58ea928b5f265d4718"

SWEEP_HASHES = {
    "sweep_runs.csv": "aceb4e38e6c695fd4e72d347c1d11b6badd74a28032d05a7306f8a3dc2b8dffa",
    "sweep_summary.json": "6056da433b0db2577383865a463eb15eb08850a88f9e401128106d65a9af9faa",
}

CASES = {
    "run-default": (["run"], {
        "engagement.csv": "03ce1a71c655f544c87c37795a764a6ed97333c44d2b2d5cd5bad53b55535866",
        "metrics.json": "c36f69c37e98f234cb93c36dd1e08954b77c2d72823b0b897084fcf630497a0d",
    }),
    "run-weave-predicted": (["run", "--set", "seeker.lag_time_constant=0.2",
                             "--set", "guidance.source=predicted",
                             "--set", "target.kind=weaving"], {
        "engagement.csv": "98457b254f5106bbf60ecc7240b76661ccef15027e3d0a3fa357b7b8c45812ff",
        "metrics.json": "e843d1d48709fcf185e0e5782f128799c47eeef82681dc2987dbdcb1e1bd5939",
    }),
    # a warm-up off the step grid: guidance hands over at t = 2.001
    "run-weave-predicted-offgrid": (["run", "--set", "seeker.lag_time_constant=0.2",
                                     "--set", "guidance.source=predicted",
                                     "--set", "target.kind=weaving",
                                     "--set", "guidance.warmup=2.0005"], {
        "engagement.csv": "8cd78537887e177c7404344e3574e9c104ad64b57b5afa46b4526ded60afc918",
        "metrics.json": "749c02a7467f011d69440ea2df3c6aa0f6f0d6c6527e9a822989bca2f9e08036",
    }),
    "sweep-jobs1": (["sweep", "--jobs", "1", *REDUCED_SWEEP], SWEEP_HASHES),
    "sweep-jobs2": (["sweep", "--jobs", "2", *REDUCED_SWEEP], SWEEP_HASHES),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes(case, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("PGS_SEED", raising=False)
    argv, hashes = CASES[case]
    assert cli.main([argv[0], "--out", str(tmp_path), *argv[1:]]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in hashes}
    assert got == hashes


def test_default_sweep_runs_csv(default_sweep, tmp_path):
    _, summary, _ = default_sweep
    path = tmp_path / "sweep_runs.csv"
    mc.write_runs_csv(summary, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_SWEEP_RUNS_CSV
