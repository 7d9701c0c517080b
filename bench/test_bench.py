"""Tests of the benchmark itself: span arithmetic, hook restoration,
missing hooks, the observer-use counter, the speed probe, and the
refusal to run without the program's sources.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import run
from reference import SpeedProbe
from tracing import HOOKS, Hook, Tracer, _locate

from pgsim import engagement as en

FAKE_SOURCE = '''
clock = [0.0]

def leaf():
    clock[0] += 2.0

def mid():
    clock[0] += 1.0
    leaf()
    clock[0] += 1.0

def outer():
    clock[0] += 5.0
    mid()
    mid()
'''


@pytest.fixture
def fake_module():
    mod = types.ModuleType("bench_fake_layers")
    exec(FAKE_SOURCE, mod.__dict__)
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def short_run(overlay):
    _, eng = run.resolve_setup(overlay, seed=7)
    return en.run_engagement(eng)


SHORT = {"engagement": {"max_time": 0.5},
         "seeker": {"lag_time_constant": 0.05},
         "guidance": {"source": "predicted", "warmup": 0.2005}}


def test_self_time_of_nested_spans(fake_module):
    hooks = [Hook(n, "bench_fake_layers:" + n) for n in ("outer", "mid", "leaf")]
    with Tracer(hooks, clock=lambda: fake_module.clock[0]) as tr:
        fake_module.outer()
    # outer spans 5 + 2 * (1 + 2 + 1); each mid wraps one 2-unit leaf
    assert tr.stats["leaf"] == [2, 4.0, 4.0]
    assert tr.stats["mid"] == [2, 8.0, 4.0]
    assert tr.stats["outer"] == [1, 13.0, 5.0]
    assert tr.self_s("outer", "mid", "leaf") == tr.inclusive_s("outer")


def test_span_closes_when_the_call_raises(fake_module):
    def boom():
        fake_module.clock[0] += 3.0
        raise RuntimeError("boom")

    fake_module.boom = boom
    hooks = [Hook("boom", "bench_fake_layers:boom")]
    with Tracer(hooks, clock=lambda: fake_module.clock[0]) as tr:
        with pytest.raises(RuntimeError):
            fake_module.boom()
    assert tr.stats["boom"] == [1, 3.0, 3.0]


def originals():
    return {h.name: vars(_locate(h.target)[0])[_locate(h.target)[1]] for h in HOOKS}


def test_every_hook_is_found_and_restored():
    before = originals()
    with pytest.raises(KeyError):
        with Tracer() as tr:
            assert tr.missing == []
            for h in HOOKS:
                owner, attr = _locate(h.target)
                assert vars(owner)[attr] is not before[h.name]
            raise KeyError("leave the block by an exception")
    after = originals()
    assert all(after[name] is fn for name, fn in before.items())


def test_missing_hook_reports_missing_not_zero():
    renamed = "pgsim.engagement:_renamed_integrator"
    hooks = [h._replace(target=renamed) if h.name == "airframe.step" else h
             for h in HOOKS]
    hooks += [Hook("x.module", "no_such_module:f"),
              Hook("x.class", "pgsim.airframe:NoSuchClass.f")]
    with Tracer(hooks) as tr:
        short_run(SHORT)
    assert tr.missing == ["airframe.step", "x.module", "x.class"]
    m = run.layer_metrics(tr)
    for name in ("airframe.step_calls", "airframe.step_self_s",
                 "airframe.us_per_step", "trace.remainder_frac"):
        assert m[name] is None
    assert m["observer.calls"] == 1000
    lines = run.table(m, {"airframe.step_calls": "count", "observer.calls": "count"})
    assert lines[0].split()[1] == "missing"
    assert lines[1].split()[1] == "1000"


def test_used_frac_with_known_warmup():
    # 0.5 s at dt = 1 ms ends by timeout with samples n = 0..500; the
    # prediction drives guidance from n = 201 (t >= 0.2005 s) on.
    with Tracer() as tr:
        record = short_run(SHORT)
    assert record.termination_reason == "timeout"
    m = run.layer_metrics(tr)
    assert m["engagement.steps"] == len(record) == 501
    assert m["observer.calls"] == 2 * 500
    assert m["observer.used_frac"] == 300 / 501

    delayed = {**SHORT, "guidance": {"source": "delayed"}}
    with Tracer() as tr:
        short_run(delayed)
    assert run.layer_metrics(tr)["observer.used_frac"] == 0.0


def test_layer_split_accounts_for_the_run():
    with Tracer() as tr:
        short_run(SHORT)
    m = run.layer_metrics(tr)
    assert abs(m["trace.remainder_frac"]) < 1e-3


def test_traced_outputs_equal_untraced():
    plain = short_run(SHORT)
    with Tracer():
        traced = short_run(SHORT)
    for col in en.CSV_COLUMNS:
        assert np.array_equal(plain.series[col], traced.series[col])
    assert (plain.miss_distance, plain.termination_reason) == \
        (traced.miss_distance, traced.termination_reason)


def test_benchmark_json_matches_reported_metrics():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("jobs", [1, 2])
def test_speed_probe_times_every_job_and_stops_its_pool(jobs):
    probe = SpeedProbe(jobs)
    try:
        probe.after(0.01)
        pool = probe._pool
    finally:
        probe.close()
    assert len(probe.times) == jobs
    assert probe.factor() > 0.0
    if pool is not None:
        assert not any(p.is_alive() for p in pool._pool)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(Path(run.ROOT) / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.ROOT) / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "engage-weave-pred",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
