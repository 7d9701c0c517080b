import json
import math

import pytest
from conftest import engagement_config

from pgsim import config as cf
from pgsim import engagement as en
from pgsim import montecarlo as mc
from pgsim import targets as tg

SOURCES = tuple(cf.DEFAULTS["sweep"]["sources"])


def result(delay=0.1, source="delayed", sample=0, seed=1, miss=1.0,
           rmse=0.01, peak=50.0, termination="closest_approach"):
    return mc.RunResult(delay=delay, source=source, sample=sample, seed=seed,
                        miss=miss, miss_continuous=miss, rmse=rmse, peak_accel=peak,
                        termination=termination)


@pytest.fixture(scope="module")
def small_sweep():
    # short runs: enough to exercise the machinery end to end quickly
    sweep = mc.SweepConfig(delays=(0.05, 0.1), samples_per_delay=2,
                           master_seed=777, sources=("delayed", "predicted"),
                           base=engagement_config({"engagement.max_time": 0.5}))
    return sweep, mc.run_sweep(sweep)


class TestAggregate:
    def test_hand_computed_stats(self):
        rs = [result(miss=m, sample=i) for i, m in enumerate([1.0, 2.0, 3.0])]
        summary = mc.aggregate(rs)
        stats = summary.groups[(0.1, "delayed")]
        assert stats["mean_miss"] == pytest.approx(2.0)
        assert stats["std_miss"] == pytest.approx(math.sqrt(2.0 / 3.0))
        assert stats["n"] == 3
        assert stats["failure_count"] == 0

    def test_failures_excluded_from_stats(self):
        rs = [result(miss=1.0, sample=0),
              result(miss=3.0, sample=1),
              result(miss=math.nan, sample=2, termination="observer_divergence")]
        stats = mc.aggregate(rs).groups[(0.1, "delayed")]
        assert stats["mean_miss"] == pytest.approx(2.0)
        assert stats["n"] == 2
        assert stats["failure_count"] == 1

    def test_divergence_with_finite_miss_still_a_failure(self):
        rs = [result(miss=1.0, sample=0),
              result(miss=2.0, sample=1, termination="observer_divergence")]
        stats = mc.aggregate(rs).groups[(0.1, "delayed")]
        assert stats["n"] == 1
        assert stats["failure_count"] == 1
        assert stats["mean_miss"] == pytest.approx(1.0)

    def test_every_failure_label_excluded(self):
        rs = [result(miss=1.0, sample=0)]
        rs += [result(miss=2.0, sample=i + 1, termination=label)
               for i, label in enumerate(en.FAILURES)]
        stats = mc.aggregate(rs).groups[(0.1, "delayed")]
        assert stats["n"] == 1
        assert stats["failure_count"] == 3
        assert stats["mean_miss"] == pytest.approx(1.0)

    def test_timeout_counts_as_data(self):
        rs = [result(miss=5.0, termination="timeout")]
        stats = mc.aggregate(rs).groups[(0.1, "delayed")]
        assert stats["n"] == 1
        assert stats["failure_count"] == 0

    def test_all_failed_group(self):
        rs = [result(miss=math.nan, termination="observer_divergence")]
        stats = mc.aggregate(rs).groups[(0.1, "delayed")]
        assert stats["n"] == 0
        assert stats["failure_count"] == 1
        assert math.isnan(stats["mean_miss"])
        assert math.isnan(stats["std_miss"])

    def test_groups_keyed_by_delay_and_source(self):
        rs = [result(delay=0.1, source="delayed"),
              result(delay=0.1, source="predicted"),
              result(delay=0.2, source="delayed")]
        summary = mc.aggregate(rs)
        assert set(summary.groups) == {(0.1, "delayed"), (0.1, "predicted"),
                                       (0.2, "delayed")}

    def test_runs_ordered_deterministically(self):
        rs = [result(delay=0.2, source="predicted", sample=1),
              result(delay=0.1, source="delayed", sample=1),
              result(delay=0.1, source="delayed", sample=0),
              result(delay=0.2, source="delayed", sample=0)]
        summary = mc.aggregate(rs)
        keys = [(r.delay, r.source, r.sample) for r in summary.runs]
        assert keys == sorted(keys)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mc.aggregate([])


class TestBuildRunConfig:
    def test_paired_phase_across_sources(self):
        sweep = mc.SweepConfig(delays=(0.1,), samples_per_delay=2,
                               master_seed=42, sources=SOURCES,
                               base=engagement_config())
        _, pair = mc.build_run_config(sweep, 0.1, 0)
        a = pair.with_source("delayed")
        b = pair.with_source("predicted")
        assert a.target.phase == b.target.phase
        assert a.guidance.source == "delayed"
        assert b.guidance.source == "predicted"

    def test_delay_sets_lag_and_horizon(self):
        sweep = mc.SweepConfig(delays=(0.25,), samples_per_delay=1,
                               master_seed=42, sources=SOURCES,
                               base=engagement_config())
        _, cfg = mc.build_run_config(sweep, 0.25, 0)
        assert cfg.seeker.lag_time_constant == 0.25
        assert cfg.observer.delta == 0.25
        assert cfg.target.kind == "weaving"

    def test_samples_get_distinct_phases(self):
        sweep = mc.SweepConfig(delays=(0.1,), samples_per_delay=5,
                               master_seed=42, sources=SOURCES,
                               base=engagement_config())
        phases = {mc.build_run_config(sweep, 0.1, i)[1].target.phase
                  for i in range(5)}
        assert len(phases) == 5

    def test_phase_matches_seed_chain(self):
        sweep = mc.SweepConfig(delays=(0.1,), samples_per_delay=3,
                               master_seed=99, sources=SOURCES,
                               base=engagement_config())
        seed, cfg = mc.build_run_config(sweep, 0.1, 2)
        assert seed == tg.derive_seed(99, 2)
        assert cfg.target.phase == tg.sample_phase(seed)


class TestRunSweep:
    def test_complete_and_ordered(self, small_sweep):
        sweep, summary = small_sweep
        assert len(summary.runs) == 2 * 2 * 2
        keys = [(r.delay, r.source, r.sample) for r in summary.runs]
        assert keys == sorted(keys)
        assert set(summary.groups) == {(d, s) for d in sweep.delays
                                       for s in sweep.sources}

    def test_config_echo(self, small_sweep):
        sweep, summary = small_sweep
        echo = summary.config_echo
        assert echo["delays"] == list(sweep.delays)
        assert echo["samples_per_delay"] == sweep.samples_per_delay
        assert echo["master_seed"] == sweep.master_seed
        assert echo["std_definition"] == "population"

    def test_deterministic_repeat(self, small_sweep):
        sweep, summary = small_sweep
        again = mc.run_sweep(sweep)
        assert again.runs == summary.runs
        assert again.groups == summary.groups

    def test_parallel_matches_serial(self, small_sweep):
        sweep, summary = small_sweep
        parallel = mc.run_sweep(sweep, jobs=2)

        def key(r):
            # NaN-tolerant field comparison (NaN != NaN after pickling)
            return tuple(v if v == v else "nan"
                         for v in (r.delay, r.source, r.sample, r.seed,
                                   r.miss, r.rmse, r.peak_accel, r.termination))

        assert [key(r) for r in parallel.runs] == [key(r) for r in summary.runs]
        assert parallel.groups == summary.groups

    @pytest.mark.parametrize("jobs, started", [(64, 2), (2, 2), (1, None)])
    def test_pool_capped_at_item_count(self, monkeypatch, jobs, started):
        # a stand-in pool records the worker count it is asked for and
        # runs the items in this process
        import multiprocessing
        requested = []

        class RecordingPool:
            def __init__(self, processes):
                requested.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return [fn(it) for it in items]

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        # two work items: one (delay, sample) pair each
        sweep = mc.SweepConfig(delays=(0.05,), samples_per_delay=2, master_seed=3,
                               sources=("delayed", "predicted"),
                               base=engagement_config({"engagement.max_time": 0.05}))
        summary = mc.run_sweep(sweep, jobs=jobs)
        assert len(summary.runs) == 4
        assert requested == ([] if started is None else [started])

    @pytest.mark.parametrize("case", ["handoff", "intercept-before-warmup"])
    def test_pairs_match_independent_runs(self, case, tmp_path):
        # the runs CSV rows do not depend on how the sources are paired,
        # in which order, or on the worker count.  "handoff" branches
        # every pair at t = 2 s; in the other case each run reaches
        # closest approach before the warm-up ends, leaves no warm-up
        # state, and the second source flies from the start
        base = engagement_config(
            {"engagement.max_time": 2.5} if case == "handoff"
            else {"guidance.warmup": 30.0, "target.position": [2000.0, 0.0, 800.0]})

        def rows(sources, jobs=1):
            sweep = mc.SweepConfig(delays=(0.05, 0.2), samples_per_delay=2,
                                   master_seed=31, sources=sources, base=base)
            path = tmp_path / "runs.csv"
            mc.write_runs_csv(mc.run_sweep(sweep, jobs=jobs), path)
            return path.read_text().splitlines()[1:]

        paired = rows(("delayed", "predicted"))
        assert len(paired) == 8
        assert rows(("predicted", "delayed")) == paired
        assert rows(("delayed", "predicted"), jobs=2) == paired
        singles = rows(("delayed",)) + rows(("predicted",))
        assert sorted(singles) == sorted(paired)
        want = "timeout" if case == "handoff" else "closest_approach"
        assert {row.split(",")[-1] for row in paired} == {want}

    def test_item_is_one_pair(self):
        sweep = mc.SweepConfig(delays=(0.05,), samples_per_delay=1, master_seed=3,
                               sources=("predicted", "delayed"),
                               base=engagement_config({"engagement.max_time": 0.05}))
        got = mc._execute_item((sweep, 0.05, 0))
        assert [(r.delay, r.source, r.sample) for r in got] == [
            (0.05, "predicted", 0), (0.05, "delayed", 0)]

    def test_seeds_recorded(self, small_sweep):
        sweep, summary = small_sweep
        for r in summary.runs:
            assert r.seed == tg.derive_seed(sweep.master_seed, r.sample)


class TestOutputs:
    def test_runs_csv(self, small_sweep, tmp_path):
        _, summary = small_sweep
        path = tmp_path / "runs.csv"
        mc.write_runs_csv(summary, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(mc.RUNS_CSV_COLUMNS)
        assert len(lines) == 1 + len(summary.runs)
        first = lines[1].split(",")
        assert float(first[0]) == summary.runs[0].delay
        assert first[1] == summary.runs[0].source

    def test_summary_json(self, small_sweep, tmp_path):
        sweep, summary = small_sweep
        path = tmp_path / "summary.json"
        mc.write_summary_json(summary, path)
        doc = json.loads(path.read_text())
        assert doc["config"]["master_seed"] == sweep.master_seed
        assert len(doc["groups"]) == len(summary.groups)
        g0 = doc["groups"][0]
        assert {"delay", "source", "mean_miss", "std_miss", "n",
                "failure_count"} <= set(g0)

    def test_plotdata(self, small_sweep, tmp_path):
        sweep, summary = small_sweep
        mc.write_plotdata(summary, tmp_path)
        for src in sweep.sources:
            lines = (tmp_path / ("plotdata_%s.csv" % src)).read_text().splitlines()
            assert lines[0] == "delay,mean,mean_minus_std,mean_plus_std"
            assert len(lines) == 1 + len(sweep.delays)
            d, m, lo, hi = (float(v) for v in lines[1].split(","))
            stats = summary.groups[(d, src)]
            assert m == stats["mean_miss"]
            assert hi - m == pytest.approx(stats["std_miss"])
